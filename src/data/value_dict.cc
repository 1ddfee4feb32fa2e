#include "data/value_dict.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace tdac {

StringArena::StringArena(const StringArena& other)
    : blocks_(other.blocks_), stored_(other.stored_) {
  // head_used_/head_cap_ stay 0: the copy's write head is sealed, so its
  // next Add allocates a private block instead of appending into the tail
  // of a block the original is still writing to.
}

StringArena& StringArena::operator=(const StringArena& other) {
  if (this == &other) return *this;
  blocks_ = other.blocks_;
  stored_ = other.stored_;
  head_used_ = 0;
  head_cap_ = 0;
  return *this;
}

std::string_view StringArena::Add(std::string_view s) {
  if (s.size() > head_cap_ - head_used_ || head_cap_ == 0) {
    const size_t block_size = std::max(kMinBlockBytes, s.size());
    blocks_.push_back(std::shared_ptr<char[]>(new char[block_size]));
    head_used_ = 0;
    head_cap_ = block_size;
  }
  char* dst = blocks_.back().get() + head_used_;
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  head_used_ += s.size();
  stored_ += s.size();
  return std::string_view(dst, s.size());
}

ValueDict::Entry ValueDict::EntryOf(const Value& v) {
  Entry e;
  e.kind = v.kind();
  e.hash = v.Hash();
  if (v.is_string()) {
    e.str = v.AsString();
  } else {
    e.num = v.is_int() ? v.AsInt() : std::bit_cast<int64_t>(v.AsDouble());
  }
  return e;
}

bool ValueDict::IsNaN(const Entry& e) {
  return e.kind == Value::Kind::kDouble &&
         std::isnan(std::bit_cast<double>(e.num));
}

bool ValueDict::SameValue(const Entry& a, const Entry& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == Value::Kind::kString) return a.str == b.str;
  if (a.kind == Value::Kind::kInt) return a.num == b.num;
  return std::bit_cast<double>(a.num) == std::bit_cast<double>(b.num);
}

size_t ValueDict::Probe(const Entry& e) const {
  // Value::Hash hashes -0.0 as +0.0, so equal values share a chain.
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(e.hash ^ (e.hash >> 32)) & mask;
  while (slots_[slot] != kInvalidId &&
         !SameValue(entries_[static_cast<size_t>(slots_[slot])], e)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ValueDict::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kInvalidId);
  for (size_t id = 0; id < entries_.size(); ++id) {
    if (IsNaN(entries_[id])) continue;
    slots_[Probe(entries_[id])] = static_cast<ValueId>(id);
  }
}

ValueId ValueDict::Intern(const Value& v) { return InternEntry(EntryOf(v)); }

ValueId ValueDict::InternFrom(const ValueDict& other, ValueId other_id) {
  return InternEntry(other.entries_[static_cast<size_t>(other_id)]);
}

ValueId ValueDict::InternEntry(Entry e) {
  TDAC_CHECK(!frozen_) << "ValueDict::Intern on a frozen dictionary";
  const ValueId next = static_cast<ValueId>(entries_.size());
  if (IsNaN(e)) {
    // NaN != NaN under Value::operator==, so a NaN payload must never
    // dedup: every occurrence is its own distinct value.
    entries_.push_back(e);
    return next;
  }
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const size_t slot = Probe(e);
  // -0.0 and +0.0 land on one slot; the entry keeps the first-seen
  // payload, which compares equal either way.
  if (slots_[slot] != kInvalidId) return slots_[slot];
  if (e.kind == Value::Kind::kString) e.str = arena_.Add(e.str);
  entries_.push_back(e);
  slots_[slot] = next;
  return next;
}

ValueId ValueDict::Find(const Value& v) const {
  const Entry e = EntryOf(v);
  // Nothing compares == to NaN.
  if (slots_.empty() || IsNaN(e)) return kInvalidId;
  return slots_[Probe(e)];
}

Value ValueDict::ValueAt(ValueId id) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  switch (e.kind) {
    case Value::Kind::kString:
      return Value(std::string(e.str));
    case Value::Kind::kInt:
      return Value(e.num);
    case Value::Kind::kDouble:
      return Value(std::bit_cast<double>(static_cast<uint64_t>(e.num)));
  }
  TDAC_CHECK(false) << "ValueDict::ValueAt: unknown value kind";
  return Value();
}

std::string_view ValueDict::StringAt(ValueId id) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  TDAC_CHECK(e.kind == Value::Kind::kString)
      << "ValueDict::StringAt on a non-string id";
  return e.str;
}

namespace {

/// (key, id) pairs whose ascending key order is ascending value order.
using KeyedIds = std::vector<std::pair<uint64_t, ValueId>>;

/// An int's key: flipping the sign bit puts negatives first.
uint64_t IntKey(int64_t value) {
  return std::bit_cast<uint64_t>(value) ^ (uint64_t{1} << 63);
}

/// A non-NaN double's key: negatives have every bit flipped (so larger
/// magnitudes come first), non-negatives just the sign bit. -0.0 keys
/// below +0.0, but they intern to one entry and never meet here.
uint64_t DoubleKey(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// Sorts `keyed` by key, stably: an LSD radix sort, one byte a pass, that
/// skips a byte on which every key agrees.
void RadixSort(KeyedIds* keyed) {
  KeyedIds scratch(keyed->size());
  for (int shift = 0; shift < 64; shift += 8) {
    std::array<size_t, 257> next{};
    for (const auto& item : *keyed) ++next[((item.first >> shift) & 0xff) + 1];
    if (std::ranges::find(next, keyed->size()) != next.end()) continue;
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (const auto& item : *keyed) {
      scratch[next[(item.first >> shift) & 0xff]++] = item;
    }
    keyed->swap(scratch);
  }
}

}  // namespace

void ValueDict::Freeze() {
  TDAC_CHECK(!frozen_) << "ValueDict::Freeze called twice";
  // Value::operator< orders by kind first (strings, ints, doubles), then
  // by payload, with every NaN after every number. So each kind is sorted
  // on its own: strings by (payload, id), ints and doubles by a radix sort
  // of their keys, which is stable. Only NaNs can tie, since every other
  // value is interned once; they compare equal to nothing, so they stay
  // out of the double sort and rank last, in id order.
  std::vector<std::pair<std::string_view, ValueId>> strings;
  KeyedIds ints;
  KeyedIds doubles;
  std::vector<ValueId> nans;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const auto id = static_cast<ValueId>(i);
    switch (e.kind) {
      case Value::Kind::kString:
        strings.emplace_back(e.str, id);
        break;
      case Value::Kind::kInt:
        ints.emplace_back(IntKey(e.num), id);
        break;
      case Value::Kind::kDouble:
        if (IsNaN(e)) {
          nans.push_back(id);
        } else {
          doubles.emplace_back(DoubleKey(std::bit_cast<double>(e.num)), id);
        }
        break;
    }
  }
  std::sort(strings.begin(), strings.end());
  RadixSort(&ints);
  RadixSort(&doubles);
  by_rank_.clear();
  by_rank_.reserve(entries_.size());
  for (const auto& [key, id] : strings) by_rank_.push_back(id);
  for (const auto& [key, id] : ints) by_rank_.push_back(id);
  for (const auto& [key, id] : doubles) by_rank_.push_back(id);
  by_rank_.insert(by_rank_.end(), nans.begin(), nans.end());
  ranks_.resize(entries_.size());
  for (size_t r = 0; r < by_rank_.size(); ++r) {
    ranks_[static_cast<size_t>(by_rank_[r])] = static_cast<int32_t>(r);
  }
  frozen_ = true;
}

}  // namespace tdac
