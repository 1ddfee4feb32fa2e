#include "td/truth_discovery.h"

#include <algorithm>
#include <cmath>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "data/dataset.h"
#include "data/soa_mode.h"

namespace tdac {

Result<TruthDiscoveryResult> TruthDiscovery::Discover(
    const DatasetLike& data) const {
  return Discover(data, RunGuard::None());
}

Result<TruthDiscoveryResult> TruthDiscovery::Discover(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TruthDiscoveryResult result,
                        DiscoverGuarded(data, guard));
  td_internal::SanitizeResult(result);
  return result;
}

std::string SerializeTruthDiscoveryResult(const TruthDiscoveryResult& result) {
  PayloadWriter out;
  (out << "R" << result.iterations << result.converged
       << static_cast<int>(result.stop_reason))
      .End();
  out << "T" << result.source_trust.size();
  for (double trust : result.source_trust) out << trust;
  out.End();
  const std::vector<uint64_t> keys = result.predicted.SortedKeys();
  (out << "I" << keys.size()).End();
  for (uint64_t key : keys) {
    const Value* value =
        result.predicted.Get(ObjectFromKey(key), AttributeFromKey(key));
    (out << key << static_cast<int>(value->kind()) << value->ToString()).End();
  }
  std::vector<uint64_t> conf_keys;
  conf_keys.reserve(result.confidence.size());
  // lint: unordered-ok (keys collected then sorted before emission)
  for (const auto& [key, unused] : result.confidence) conf_keys.push_back(key);
  std::sort(conf_keys.begin(), conf_keys.end());
  (out << "C" << conf_keys.size()).End();
  for (uint64_t key : conf_keys) {
    (out << key << result.confidence.at(key)).End();
  }
  return out.Take();
}

Result<TruthDiscoveryResult> DeserializeTruthDiscoveryResult(
    std::string_view payload) {
  const auto malformed = [](const std::string& what) {
    return Status::InvalidArgument("malformed result payload: " + what);
  };
  PayloadReader in(payload);
  TruthDiscoveryResult result;
  std::string tags[4];
  int stop = 0;
  in >> tags[0] >> result.iterations >> result.converged >> stop >> tags[1];
  result.source_trust.resize(in.Count());
  for (double& trust : result.source_trust) in >> trust;
  in >> tags[2];
  for (size_t i = in.Count(); i > 0 && in.ok(); --i) {
    uint64_t key = 0;
    int kind = 0;
    std::string text;
    in >> key >> kind >> text;
    if (kind < static_cast<int>(Value::Kind::kString) ||
        kind > static_cast<int>(Value::Kind::kDouble)) {
      return malformed("unknown value kind " + std::to_string(kind));
    }
    TDAC_ASSIGN_OR_RETURN(
        Value value,
        Value::FromTextChecked(static_cast<Value::Kind>(kind), text));
    result.predicted.Set(ObjectFromKey(key), AttributeFromKey(key),
                         std::move(value));
  }
  in >> tags[3];
  for (size_t i = in.Count(); i > 0 && in.ok(); --i) {
    uint64_t key = 0;
    double conf = 0.0;
    in >> key >> conf;
    result.confidence[key] = conf;
  }
  TDAC_RETURN_NOT_OK(in.Finish());
  if (tags[0] != "R" || tags[1] != "T" || tags[2] != "I" || tags[3] != "C") {
    return malformed("records out of order");
  }
  if (stop < static_cast<int>(StopReason::kConverged) ||
      stop > static_cast<int>(StopReason::kOverloaded)) {
    return malformed("unknown stop reason " + std::to_string(stop));
  }
  result.stop_reason = static_cast<StopReason>(stop);
  return result;
}

namespace td_internal {
namespace {

/// Legacy grouping: per item, copy out (Value, SourceId) pairs and sort
/// them with full Value comparisons. Kept verbatim as the differential
/// reference the columnar path is tested against.
std::vector<ItemConflict> GroupClaimsByItemLegacy(const DatasetLike& data) {
  std::vector<ItemConflict> out;
  out.reserve(data.DataItems().size());
  for (uint64_t key : data.DataItems()) {
    const auto& claim_indices =
        data.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    ItemConflict item;
    item.key = key;
    // Collect (value, source) pairs, then sort by value for determinism.
    std::vector<std::pair<Value, SourceId>> pairs;
    pairs.reserve(claim_indices.size());
    for (int32_t idx : claim_indices) {
      // lint: claim-value-ok (this IS the legacy reference path)
      const Claim& c = data.claim(static_cast<size_t>(idx));
      pairs.emplace_back(c.value, c.source);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) {
                if (a.first < b.first) return true;
                if (b.first < a.first) return false;
                return a.second < b.second;
              });
    for (auto& [value, source] : pairs) {
      if (item.values.empty() || !(item.values.back() == value)) {
        item.values.push_back(value);
        item.supporters.emplace_back();
      }
      item.supporters.back().push_back(source);
    }
    out.push_back(std::move(item));
  }
  return out;
}

/// Columnar grouping: each claim of an item becomes one packed uint64,
/// `(value rank << 32) | source`, read straight from the storage columns.
/// Sorting the packed keys is exactly the legacy (value, source) sort —
/// ranks are assigned in ascending Value order and equal Values share one
/// dictionary id — and each distinct rank run becomes one conflict entry,
/// its Value materialized once from the dictionary instead of copied per
/// claim. Sources within a run come out ascending for free.
///
/// Callers must check GroupKeysFitPackedWidth before taking this path: a
/// rank or source id at or past 2^32 would alias another key's high or low
/// half and silently reorder the sort.
///
/// Known divergence (unreachable through checked ingestion): two claims
/// with *distinct NaN* payloads on one item order by interning order here
/// vs. source order on the legacy path. FromTextChecked rejects non-finite
/// doubles, so no built dataset carries NaN values.
std::vector<ItemConflict> GroupClaimsByItemSoa(const DatasetLike& data) {
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& ranks = storage.claim_value_ranks();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const ValueDict& dict = storage.value_dict();
  // lint: hot-path-alloc-ok (single result buffer, reserved below)
  std::vector<ItemConflict> out;
  out.reserve(data.DataItems().size());
  // lint: hot-path-alloc-ok (one scratch buffer reused across all items)
  std::vector<uint64_t> packed;
  for (uint64_t key : data.DataItems()) {
    const auto& claim_indices =
        data.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    ItemConflict item;
    item.key = key;
    packed.clear();
    packed.reserve(claim_indices.size());
    for (int32_t idx : claim_indices) {
      const auto i = static_cast<size_t>(idx);
      packed.push_back(
          (static_cast<uint64_t>(static_cast<uint32_t>(ranks[i])) << 32) |
          static_cast<uint32_t>(sources[i]));
    }
    std::sort(packed.begin(), packed.end());
    // Count distinct ranks first (the packed keys are sorted and in cache)
    // so the per-item vectors are sized exactly once instead of growing.
    size_t groups = 0;
    uint64_t prev_hi = ~uint64_t{0};
    for (uint64_t p : packed) {
      const uint64_t hi = p >> 32;
      groups += hi != prev_hi;
      prev_hi = hi;
    }
    item.values.reserve(groups);
    item.value_ids.reserve(groups);
    item.supporters.reserve(groups);
    int64_t prev_rank = -1;
    for (uint64_t p : packed) {
      const auto rank = static_cast<int32_t>(p >> 32);
      if (rank != prev_rank) {
        const ValueId id = dict.id_at_rank(rank);
        item.values.push_back(dict.ValueAt(id));
        item.value_ids.push_back(id);
        item.supporters.emplace_back();
        prev_rank = rank;
      }
      item.supporters.back().push_back(
          static_cast<SourceId>(p & 0xffffffffULL));
    }
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace

bool GroupKeysFitPackedWidth(int64_t num_ranks, int64_t num_sources) {
  return num_ranks >= 0 && num_ranks <= kPackedGroupKeyWidth &&
         num_sources >= 0 && num_sources <= kPackedGroupKeyWidth;
}

uint64_t PackGroupKey(int64_t rank, int64_t source) {
  TDAC_CHECK(rank >= 0 && rank < kPackedGroupKeyWidth)
      << "PackGroupKey: rank " << rank << " out of packed width";
  TDAC_CHECK(source >= 0 && source < kPackedGroupKeyWidth)
      << "PackGroupKey: source " << source << " out of packed width";
  return (static_cast<uint64_t>(rank) << 32) | static_cast<uint64_t>(source);
}

std::vector<ItemConflict> GroupClaimsByItem(const DatasetLike& data) {
  // Width guard: the packed sort is only lexicographic while ranks and
  // source ids both fit their 32-bit half. Today's int32 id types cannot
  // exceed it, but the fallback keeps the invariant explicit instead of
  // baked into the type widths.
  if (SoaKernelsEnabled() &&
      GroupKeysFitPackedWidth(data.storage().value_dict().size(),
                              data.storage().num_sources())) {
    return GroupClaimsByItemSoa(data);
  }
  return GroupClaimsByItemLegacy(data);
}

size_t ArgMax(const std::vector<double>& scores) {
  TDAC_CHECK(!scores.empty()) << "ArgMax over empty scores";
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

double MeanAbsDelta(const std::vector<double>& a,
                    const std::vector<double>& b) {
  TDAC_CHECK(a.size() == b.size()) << "MeanAbsDelta: size mismatch";
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

void SanitizeResult(TruthDiscoveryResult& result) {
  bool had_non_finite = false;
  for (double& t : result.source_trust) {
    if (!std::isfinite(t)) {
      t = 0.0;
      had_non_finite = true;
    }
  }
  // lint: unordered-ok (order-independent per-entry mutation, no reduction)
  for (auto& [key, conf] : result.confidence) {
    if (!std::isfinite(conf)) {
      conf = 0.0;
      had_non_finite = true;
    }
  }
  if (had_non_finite) {
    result.stop_reason = StopReason::kNonFinite;
    result.converged = false;
  }
}

}  // namespace td_internal
}  // namespace tdac
