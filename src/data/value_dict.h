#ifndef TDAC_DATA_VALUE_DICT_H_
#define TDAC_DATA_VALUE_DICT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "data/ids.h"
#include "data/value.h"

namespace tdac {

/// Dense zero-based id of a distinct claim value inside one Dataset's
/// ValueDict. Ids are assigned in first-appearance (storage claim) order
/// and are meaningful only within the dictionary that interned them;
/// kInvalidId marks "no such value".
using ValueId = int32_t;

/// \brief Append-only byte storage for dictionary strings.
///
/// Bytes live in large heap blocks that are never resized or moved once
/// written, so the `string_view`s handed out by `Add` stay valid for the
/// arena's whole lifetime — growth allocates a *fresh* block rather than
/// reallocating an old one (pinned by the ASan growth test in
/// tests/value_dict_test.cc). Copying an arena shares the already-written
/// blocks (shared_ptr ownership) and seals the copy's write head, so the
/// original and the copy each append into blocks of their own afterwards
/// and can never scribble over bytes the other one views.
class StringArena {
 public:
  StringArena() = default;
  StringArena(const StringArena& other);
  StringArena& operator=(const StringArena& other);
  StringArena(StringArena&&) = default;
  StringArena& operator=(StringArena&&) = default;

  /// Copies `s` — embedded NULs included — into the arena and returns a
  /// view of the stored copy, stable for the arena's lifetime.
  std::string_view Add(std::string_view s);

  /// Total payload bytes stored (not allocated capacity).
  size_t size_bytes() const { return stored_; }

  /// Number of blocks allocated so far (growth observability for tests).
  size_t num_blocks() const { return blocks_.size(); }

 private:
  static constexpr size_t kMinBlockBytes = size_t{1} << 16;

  // Blocks are immutable once their bytes are handed out; only the tail of
  // the last block (past head_used_) is ever written again.
  std::vector<std::shared_ptr<char[]>> blocks_;
  size_t head_used_ = 0;  // bytes written into blocks_.back()
  size_t head_cap_ = 0;   // capacity of blocks_.back(); 0 = head is sealed
  size_t stored_ = 0;
};

/// \brief Interning dictionary over the distinct `Value`s of one dataset.
///
/// Id equality coincides exactly with `Value::operator==`: an int 2 and a
/// double 2.0 intern to different ids, `-0.0` and `+0.0` to the same one,
/// and a NaN payload (never equal to anything, itself included) gets a
/// fresh id on every Intern so id equality never claims more than Value
/// equality does. That contract is what lets the hot kernels replace
/// per-claim `Value` comparisons with int32 compares over the dataset's
/// `claim_value_ids()` column.
///
/// `Freeze()` additionally assigns every id its *rank*: the position of
/// its value in the ascending `Value::operator<` order over all distinct
/// values (NaN ids tie-broken by id). Sorting claims by rank is sorting
/// them by value — the integer form of the deterministic value ordering
/// the grouping kernel relies on.
class ValueDict {
 public:
  ValueDict() = default;

  /// Returns the id of `v`, interning it on first appearance. Must not be
  /// called on a frozen dictionary.
  ValueId Intern(const Value& v);

  /// Interns the value `other` holds under `other_id`, exactly as
  /// Intern(other.ValueAt(other_id)) would, without materializing it.
  ValueId InternFrom(const ValueDict& other, ValueId other_id);

  /// Id of `v` if some interned value compares == to it; kInvalidId
  /// otherwise (in particular, always kInvalidId for NaN payloads).
  ValueId Find(const Value& v) const;

  int32_t size() const { return static_cast<int32_t>(entries_.size()); }

  Value::Kind kind(ValueId id) const {
    return entries_[static_cast<size_t>(id)].kind;
  }

  /// Materializes the value stored under `id`.
  Value ValueAt(ValueId id) const;

  /// Arena-backed view of a kString entry's payload (no copy). Aborts on
  /// kind mismatch.
  std::string_view StringAt(ValueId id) const;

  /// `ValueAt(id).Hash()`, without materializing the value.
  uint64_t Hash(ValueId id) const {
    return entries_[static_cast<size_t>(id)].hash;
  }

  /// Builds the rank permutation and seals the dictionary against further
  /// interning. Each kind is ranked by a sort of its own, and the three
  /// runs are laid end to end in Value::operator<'s kind order. Idempotent
  /// state check: must be called exactly once.
  void Freeze();

  bool frozen() const { return frozen_; }

  /// Rank of `id` in the global sorted value order (Freeze() first).
  int32_t rank(ValueId id) const { return ranks_[static_cast<size_t>(id)]; }

  /// Inverse permutation: the id whose rank is `r`.
  ValueId id_at_rank(int32_t r) const {
    return by_rank_[static_cast<size_t>(r)];
  }

 private:
  // One distinct value: the payload is either the arena view (kString) or
  // `num` (the int payload, or the double's bits for kDouble), plus its
  // Value::Hash.
  struct Entry {
    Value::Kind kind = Value::Kind::kString;
    int64_t num = 0;
    std::string_view str;
    uint64_t hash = 0;
  };

  /// `v` as an entry, its string payload viewed in place.
  static Entry EntryOf(const Value& v);
  static bool IsNaN(const Entry& e);
  /// Value::operator== on entries: -0.0 equals +0.0, NaN equals nothing.
  static bool SameValue(const Entry& a, const Entry& b);

  /// Intern's body: the id of an entry equal to `e`, else `e` appended
  /// (its string payload copied into this arena) under a fresh id.
  ValueId InternEntry(Entry e);

  /// The slot holding an entry equal to `e`, else the empty slot where
  /// `e` belongs. `e` must not be NaN.
  size_t Probe(const Entry& e) const;

  /// Doubles the slot table and re-inserts every non-NaN entry.
  void Grow();

  std::vector<Entry> entries_;
  StringArena arena_;
  // Lookup table: open addressing with linear probing, a power-of-two
  // size kept at least twice the entry count; a slot holds an entry id or
  // kInvalidId. One flat array rather than a node per value, so interning
  // allocates nothing per value. NaN entries never enter it. Never
  // iterated — determinism comes from the entries_ append order and the
  // sorted rank permutation.
  std::vector<ValueId> slots_;
  std::vector<int32_t> ranks_;
  std::vector<ValueId> by_rank_;
  bool frozen_ = false;
};

}  // namespace tdac

#endif  // TDAC_DATA_VALUE_DICT_H_
