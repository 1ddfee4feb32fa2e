#include "data/value_dict.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

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

ValueId ValueDict::Intern(const Value& v) {
  TDAC_CHECK(!frozen_) << "ValueDict::Intern on a frozen dictionary";
  const ValueId next = static_cast<ValueId>(entries_.size());
  Entry e = EntryOf(v);
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

double ValueDict::DoubleAt(size_t index) const {
  return std::bit_cast<double>(static_cast<uint64_t>(entries_[index].num));
}

void ValueDict::Freeze() {
  TDAC_CHECK(!frozen_) << "ValueDict::Freeze called twice";
  by_rank_.resize(entries_.size());
  std::iota(by_rank_.begin(), by_rank_.end(), 0);
  // Mirror of Value::operator< (kind first, then payload, doubles with NaN
  // after every number), with id as the final tie-break so the order is
  // total even across distinct NaN entries.
  std::sort(by_rank_.begin(), by_rank_.end(), [this](ValueId a, ValueId b) {
    const Entry& ea = entries_[static_cast<size_t>(a)];
    const Entry& eb = entries_[static_cast<size_t>(b)];
    if (ea.kind != eb.kind) {
      return static_cast<int>(ea.kind) < static_cast<int>(eb.kind);
    }
    switch (ea.kind) {
      case Value::Kind::kString:
        if (ea.str != eb.str) return ea.str < eb.str;
        break;
      case Value::Kind::kInt:
        if (ea.num != eb.num) return ea.num < eb.num;
        break;
      case Value::Kind::kDouble: {
        const double da = DoubleAt(static_cast<size_t>(a));
        const double db = DoubleAt(static_cast<size_t>(b));
        const bool a_nan = std::isnan(da);
        const bool b_nan = std::isnan(db);
        if (a_nan || b_nan) {
          if (a_nan != b_nan) return !a_nan;
          break;  // two NaNs: fall through to the id tie-break
        }
        if (da != db) return da < db;
        break;
      }
    }
    return a < b;
  });
  ranks_.resize(entries_.size());
  for (size_t r = 0; r < by_rank_.size(); ++r) {
    ranks_[static_cast<size_t>(by_rank_[r])] = static_cast<int32_t>(r);
  }
  frozen_ = true;
}

}  // namespace tdac
