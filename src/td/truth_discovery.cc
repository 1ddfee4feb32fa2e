#include "td/truth_discovery.h"

#include <algorithm>
#include <cmath>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "data/dataset.h"

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

/// An empty store for `data`: the key, item-offset and supporter arrays are
/// reserved exactly (their sizes are known up front); the slot arrays grow
/// amortized as grouping appends.
ConflictStore StartStore(const DatasetLike& data) {
  ConflictStore store;
  store.keys = data.DataItems();
  store.item_offsets.reserve(store.keys.size() + 1);
  store.item_offsets.push_back(0);
  store.supporters.reserve(data.num_claims());
  store.dict = &data.storage().value_dict();
  return store;
}

/// Closes the slot offsets and counts each source's claims.
void FinishStore(ConflictStore& store, int num_sources) {
  store.slot_offsets.push_back(static_cast<uint32_t>(store.supporters.size()));
  store.claim_counts.assign(static_cast<size_t>(num_sources), 0.0);
  for (SourceId s : store.supporters) {
    store.claim_counts[static_cast<size_t>(s)] += 1.0;
  }
}

// The packed key below holds a rank and a source id in one 32-bit half
// each, so packed order is exactly (rank, source) order.
static_assert(sizeof(ValueId) == sizeof(uint32_t) &&
                  sizeof(SourceId) == sizeof(uint32_t),
              "grouping packs a value rank and a source id into one uint64");

/// Each claim of an item becomes one packed uint64, `(value rank << 32) |
/// source`, read straight from the storage columns. Ranks follow the Value
/// total order and equal Values share one dictionary id, so sorting the
/// packed keys sorts the item's claims by (value, source), and each
/// distinct rank run becomes one slot. Sources within a run come out
/// ascending for free.
ConflictStore GroupClaimsByItemSoa(const DatasetLike& data) {
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& ranks = storage.claim_value_ranks();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const ValueDict& dict = storage.value_dict();
  ConflictStore store = StartStore(data);
  // lint: hot-path-alloc-ok (one scratch buffer reused across all items)
  std::vector<uint64_t> packed;
  for (uint64_t key : store.keys) {
    const auto claim_indices =
        data.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    packed.clear();
    packed.reserve(claim_indices.size());
    for (int32_t idx : claim_indices) {
      const auto i = static_cast<size_t>(idx);
      packed.push_back(
          (static_cast<uint64_t>(static_cast<uint32_t>(ranks[i])) << 32) |
          static_cast<uint32_t>(sources[i]));
    }
    std::sort(packed.begin(), packed.end());
    int64_t prev_rank = -1;
    for (uint64_t p : packed) {
      const auto rank = static_cast<int32_t>(p >> 32);
      if (rank != prev_rank) {
        // lint: hot-path-alloc-ok (flat array: amortized, never per item)
        store.slot_offsets.push_back(
            static_cast<uint32_t>(store.supporters.size()));
        // lint: hot-path-alloc-ok (flat array: amortized, never per item)
        store.slot_ids.push_back(dict.id_at_rank(rank));
        prev_rank = rank;
      }
      // lint: hot-path-alloc-ok (reserved to the claim count in StartStore)
      store.supporters.push_back(static_cast<SourceId>(p & 0xffffffffULL));
    }
    // lint: hot-path-alloc-ok (reserved to the item count in StartStore)
    store.item_offsets.push_back(static_cast<uint32_t>(store.num_slots()));
  }
  FinishStore(store, data.num_sources());
  return store;
}

}  // namespace

// The body keeps its `Soa` name: the hot-path-alloc lint rule finds the
// columnar kernels by that suffix.
ConflictStore GroupClaimsByItem(const DatasetLike& data) {
  return GroupClaimsByItemSoa(data);
}

size_t ElectSlot(const ConflictStore& store, size_t item,
                 const std::vector<double>& scores) {
  size_t best = store.first_slot(item);
  for (size_t v = best + 1; v < store.end_slot(item); ++v) {
    if (scores[v] > scores[best]) best = v;
  }
  return best;
}

double ScoreShare(const ConflictStore& store, size_t item, size_t slot,
                  const std::vector<double>& scores) {
  double total = 0.0;
  for (size_t v = store.first_slot(item); v < store.end_slot(item); ++v) {
    total += scores[v];
  }
  return total > 0.0 ? scores[slot] / total : 0.0;
}

void RecordPrediction(const ConflictStore& store, size_t item, size_t slot,
                      double confidence, TruthDiscoveryResult& result) {
  const uint64_t key = store.keys[item];
  result.predicted.Set(ObjectFromKey(key), AttributeFromKey(key),
                       store.ValueOf(slot));
  result.confidence[key] = confidence;
}

PairTable BuildPairTable(
    const ConflictStore& store, bool symmetric,
    const std::function<double(const Value&, const Value&)>& entry) {
  PairTable table;
  table.offsets.reserve(store.num_items() + 1);
  table.offsets.push_back(0);
  for (size_t it = 0; it < store.num_items(); ++it) {
    const size_t n = store.end_slot(it) - store.first_slot(it);
    table.offsets.push_back(table.offsets.back() + n * n);
  }
  table.entries.assign(table.offsets.back(), 0.0);
  std::vector<Value> values;
  for (size_t it = 0; it < store.num_items(); ++it) {
    values.clear();
    for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
      values.push_back(store.ValueOf(v));
    }
    const size_t n = values.size();
    double* block = table.entries.data() + table.offsets[it];
    for (size_t w = 0; w < n; ++w) {
      for (size_t v = symmetric ? w + 1 : 0; v < n; ++v) {
        if (v == w) continue;
        block[w * n + v] = entry(values[w], values[v]);
        if (symmetric) block[v * n + w] = block[w * n + v];
      }
    }
  }
  return table;
}

void SlotSums(const ConflictStore& store, const std::vector<double>& per_source,
              std::vector<double>& per_slot) {
  for (size_t v = 0; v < store.num_slots(); ++v) {
    double sum = 0.0;
    for (SourceId s : store.SupportersOf(v)) {
      sum += per_source[static_cast<size_t>(s)];
    }
    per_slot[v] = sum;
  }
}

void SourceSums(const ConflictStore& store, const std::vector<double>& per_slot,
                std::vector<double>& per_source) {
  std::fill(per_source.begin(), per_source.end(), 0.0);
  for (size_t v = 0; v < store.num_slots(); ++v) {
    for (SourceId s : store.SupportersOf(v)) {
      per_source[static_cast<size_t>(s)] += per_slot[v];
    }
  }
}

void MaxNormalize(std::vector<double>& values) {
  double mx = 0.0;
  for (double x : values) mx = std::max(mx, x);
  if (mx <= 0.0) return;
  for (double& x : values) x /= mx;
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
