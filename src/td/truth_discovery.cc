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

std::string SerializeTruthDiscoveryResult(const TruthDiscoveryResult& result,
                                          const DatasetLike& data) {
  const ValueDict& dict = data.storage().value_dict();
  const Predictions& predicted = result.predicted;
  PayloadWriter out;
  (out << "R" << result.iterations << result.converged
       << static_cast<int>(result.stop_reason))
      .End();
  out << "T" << result.source_trust.size();
  for (double trust : result.source_trust) out << trust;
  out.End();
  (out << "I" << predicted.size()).End();
  for (size_t i = 0; i < predicted.size(); ++i) {
    const ValueId id = predicted.value_ids[i];
    (out << predicted.keys[i] << static_cast<int>(dict.kind(id))
         << dict.ValueAt(id).ToString())
        .End();
  }
  (out << "C" << predicted.size()).End();
  for (size_t i = 0; i < predicted.size(); ++i) {
    (out << predicted.keys[i] << predicted.confidences[i]).End();
  }
  return out.Take();
}

Result<TruthDiscoveryResult> DeserializeTruthDiscoveryResult(
    std::string_view payload, const DatasetLike& data) {
  const auto malformed = [](const std::string& what) {
    return Status::InvalidArgument("malformed result payload: " + what);
  };
  const ValueDict& dict = data.storage().value_dict();
  const std::vector<int32_t>& claim_values = data.storage().claim_value_ids();
  const std::vector<uint64_t>& items = data.DataItems();
  PayloadReader in(payload);
  TruthDiscoveryResult result;
  Predictions& predicted = result.predicted;
  std::string tags[4];
  int stop = 0;
  in >> tags[0] >> result.iterations >> result.converged >> stop >> tags[1];
  result.source_trust.resize(in.Count());
  for (double& trust : result.source_trust) in >> trust;
  if (in.ok() && !result.source_trust.empty() &&
      result.source_trust.size() != static_cast<size_t>(data.num_sources())) {
    return Status::InvalidArgument("trust vector does not fit the dataset");
  }
  in >> tags[2];
  // Keys ascend in both runs, so one cursor walks `items` alongside.
  size_t row = 0;
  for (size_t i = in.Count(); i > 0 && in.ok(); --i) {
    uint64_t key = 0;
    int kind = 0;
    std::string text;
    in >> key >> kind >> text;
    if (!in.ok()) break;
    if (kind < static_cast<int>(Value::Kind::kString) ||
        kind > static_cast<int>(Value::Kind::kDouble)) {
      return malformed("unknown value kind " + std::to_string(kind));
    }
    TDAC_ASSIGN_OR_RETURN(
        Value value,
        Value::FromTextChecked(static_cast<Value::Kind>(kind), text));
    if (!predicted.empty() && key <= predicted.keys.back()) {
      return malformed("predicted items out of order");
    }
    while (row < items.size() && items[row] < key) ++row;
    if (row == items.size() || items[row] != key) {
      return Status::InvalidArgument(
          "result predicts an item the dataset does not hold");
    }
    // An elected value is one the item's claims carry.
    const ValueId id = dict.Find(value);
    const std::span<const int32_t> claims = data.ClaimsAt(row);
    if (id == kInvalidId ||
        std::none_of(claims.begin(), claims.end(), [&](int32_t claim) {
          return claim_values[static_cast<size_t>(claim)] == id;
        })) {
      return Status::InvalidArgument("result predicts a value (" +
                                     value.ToString() +
                                     ") no claim on its item carries");
    }
    predicted.Add(key, id, 0.0);
  }
  in >> tags[3];
  const size_t confidences = in.Count();
  if (in.ok() && confidences != predicted.size()) {
    return Status::InvalidArgument(
        "result confidences do not match its predictions");
  }
  for (size_t i = 0; i < confidences && in.ok(); ++i) {
    uint64_t key = 0;
    in >> key >> predicted.confidences[i];
    if (in.ok() && key != predicted.keys[i]) {
      return Status::InvalidArgument(
          "result confidences do not match its predictions");
    }
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

TruthDiscoveryResult MergeGroupRuns(std::span<const GroupRunPart> parts,
                                    size_t num_sources) {
  TruthDiscoveryResult merged;
  std::vector<const Predictions*> predictions;
  predictions.reserve(parts.size());
  std::vector<double> trust_weighted(num_sources, 0.0);
  std::vector<double> trust_claims(num_sources, 0.0);
  for (const GroupRunPart& part : parts) {
    predictions.push_back(part.predicted);
    if (part.trust->empty()) continue;
    for (size_t s = 0; s < num_sources; ++s) {
      const auto claims = static_cast<double>((*part.claims)[s]);
      trust_weighted[s] += (*part.trust)[s] * claims;
      trust_claims[s] += claims;
    }
  }
  merged.predicted = MergePredictions(predictions);
  merged.source_trust.assign(num_sources, 0.0);
  for (size_t s = 0; s < num_sources; ++s) {
    if (trust_claims[s] > 0) {
      merged.source_trust[s] = trust_weighted[s] / trust_claims[s];
    }
  }
  return merged;
}

std::vector<size_t> ClaimsPerSource(const DatasetLike& data) {
  std::vector<size_t> claims(static_cast<size_t>(data.num_sources()), 0);
  const std::vector<int32_t>& sources = data.storage().claim_sources();
  for (int32_t id : data.claim_ids()) {
    ++claims[static_cast<size_t>(sources[static_cast<size_t>(id)])];
  }
  return claims;
}

namespace td_internal {
namespace {

// The packed key below holds a rank and a source id in one 32-bit half
// each, so packed order is exactly (rank, source) order.
static_assert(sizeof(ValueId) == sizeof(uint32_t) &&
                  sizeof(SourceId) == sizeof(uint32_t),
              "grouping packs a value rank and a source id into one uint64");

/// Every item's claims, in store order, and the claims before each item
/// block (then the total).
struct ItemClaims {
  std::vector<std::span<const int32_t>> spans;
  std::vector<uint32_t> block_starts;
};

/// Reads every item's claims (`store.keys` is DataItems(), so item i is
/// row i) and cuts the items into ConflictStore::item_blocks: one block
/// below the grain or at run width 1, else about one per kItemBlockClaims
/// claims, a block ending before the first item whose preceding claims
/// reach its share of the total.
ItemClaims CutItemBlocks(const DatasetLike& data, ConflictStore& store) {
  const size_t num_items = store.num_items();
  const size_t claims = data.num_claims();
  const size_t wanted =
      CurrentRunWidth() > 1 ? std::max<size_t>(1, claims / kItemBlockClaims)
                            : 1;
  ItemClaims out;
  out.spans.resize(num_items);
  for (size_t it = 0; it < num_items; ++it) out.spans[it] = data.ClaimsAt(it);
  store.item_blocks.assign(1, 0);
  out.block_starts.assign(1, 0);
  size_t before = 0;
  size_t share = 1;
  for (size_t it = 0; it < num_items; ++it) {
    if (share < wanted && before >= share * claims / wanted &&
        it > store.item_blocks.back()) {
      store.item_blocks.push_back(static_cast<uint32_t>(it));
      out.block_starts.push_back(static_cast<uint32_t>(before));
      while (share < wanted && before >= share * claims / wanted) ++share;
    }
    before += out.spans[it].size();
  }
  store.item_blocks.push_back(static_cast<uint32_t>(num_items));
  out.block_starts.push_back(static_cast<uint32_t>(before));
  return out;
}

/// One item block's share of the store while it is grouped: its slots'
/// dictionary ids and first supporters, and its claims per source (then
/// where its slots start in each source's run of `source_slots`).
struct BlockSlots {
  std::vector<ValueId> ids;
  std::vector<uint32_t> starts;
  std::vector<uint32_t> per_source;
};

/// Each claim of an item becomes one packed uint64, `(value rank << 32) |
/// source`, read straight from the storage columns. Ranks follow the Value
/// total order and equal Values share one dictionary id, so sorting the
/// packed keys sorts the item's claims by (value, source), and each
/// distinct rank run becomes one slot. Sources within a run come out
/// ascending for free.
///
/// Blocks group concurrently. A block writes its supporters in place (its
/// first claim is known from the cut) and its slots into block-local
/// arrays, which a second pass copies to their place once every block's
/// slot count is known. The same pass fills the source-major index: a
/// source's slots from block 0, then block 1, …, each block's ascending.
ConflictStore GroupClaimsByItemSoa(const DatasetLike& data) {
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& ranks = storage.claim_value_ranks();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const ValueDict& dict = storage.value_dict();
  const auto num_sources = static_cast<size_t>(data.num_sources());
  ConflictStore store;
  store.keys = data.DataItems();
  store.dict = &dict;
  const ItemClaims item_claims = CutItemBlocks(data, store);
  const std::vector<uint32_t>& claim_starts = item_claims.block_starts;
  const size_t blocks = store.num_blocks();
  const size_t claims = claim_starts.back();
  store.item_offsets.assign(store.num_items() + 1, 0);
  store.supporters.resize(claims);

  // lint: hot-path-alloc-ok (one entry per item block, not per item)
  std::vector<BlockSlots> parts(blocks);
  ForEachItemBlock(store, [&](size_t b) {
    BlockSlots& part = parts[b];
    const size_t block_claims = claim_starts[b + 1] - claim_starts[b];
    part.ids.reserve(block_claims);
    part.starts.reserve(block_claims);
    part.per_source.assign(num_sources, 0);
    // lint: hot-path-alloc-ok (one scratch buffer reused across the block)
    std::vector<uint64_t> packed;
    uint32_t next = claim_starts[b];
    for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
         ++it) {
      const std::span<const int32_t> claim_indices = item_claims.spans[it];
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
          part.starts.push_back(next);
          part.ids.push_back(dict.id_at_rank(rank));
          prev_rank = rank;
        }
        const auto source = static_cast<SourceId>(p & 0xffffffffULL);
        store.supporters[next++] = source;
        ++part.per_source[static_cast<size_t>(source)];
      }
      // Block-local for now; shifted by the block's first slot below.
      store.item_offsets[it + 1] = static_cast<uint32_t>(part.ids.size());
    }
  });

  // lint: hot-path-alloc-ok (one entry per item block, not per item)
  std::vector<uint32_t> first_slot(blocks + 1, 0);
  for (size_t b = 0; b < blocks; ++b) {
    first_slot[b + 1] =
        first_slot[b] + static_cast<uint32_t>(parts[b].ids.size());
  }
  store.slot_ids.resize(first_slot[blocks]);
  store.slot_offsets.resize(first_slot[blocks] + 1);
  store.slot_offsets.back() = static_cast<uint32_t>(claims);
  // Each source's run of the index holds its claims, block by block:
  // per_source becomes where block b's slots of the source start.
  store.claim_counts.assign(num_sources, 0.0);
  store.source_offsets.assign(num_sources + 1, 0);
  uint32_t offset = 0;
  for (size_t s = 0; s < num_sources; ++s) {
    store.source_offsets[s] = offset;
    for (BlockSlots& part : parts) {
      const uint32_t count = part.per_source[s];
      part.per_source[s] = offset;
      offset += count;
    }
    store.claim_counts[s] =
        static_cast<double>(offset - store.source_offsets[s]);
  }
  store.source_offsets[num_sources] = offset;
  store.source_slots.resize(claims);

  ForEachItemBlock(store, [&](size_t b) {
    BlockSlots& part = parts[b];
    const uint32_t base = first_slot[b];
    std::copy(part.ids.begin(), part.ids.end(),
              store.slot_ids.begin() + base);
    std::copy(part.starts.begin(), part.starts.end(),
              store.slot_offsets.begin() + base);
    for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
         ++it) {
      store.item_offsets[it + 1] += base;
    }
    // The block's own slot starts bound its supporters: the next block's
    // first slot offset is written concurrently.
    for (size_t j = 0; j < part.starts.size(); ++j) {
      const uint32_t end = j + 1 < part.starts.size() ? part.starts[j + 1]
                                                      : claim_starts[b + 1];
      for (uint32_t k = part.starts[j]; k < end; ++k) {
        const auto s = static_cast<size_t>(store.supporters[k]);
        store.source_slots[part.per_source[s]++] =
            base + static_cast<uint32_t>(j);
      }
    }
    part = BlockSlots();
  });
  return store;
}

}  // namespace

// The body keeps its `Soa` name: the hot-path-alloc lint rule finds the
// columnar kernels by that suffix.
ConflictStore GroupClaimsByItem(const DatasetLike& data) {
  return GroupClaimsByItemSoa(data);
}

ParallelForOptions StoreLoopOptions(const ConflictStore& store) {
  ParallelForOptions options;
  if (store.num_blocks() < 2) options.max_parallelism = 1;
  return options;
}

void ForEachItemBlock(const ConflictStore& store,
                      const std::function<void(size_t block)>& body) {
  ParallelFor(store.num_blocks(), body, StoreLoopOptions(store));
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

void StartPredictions(const ConflictStore& store,
                      TruthDiscoveryResult& result) {
  result.predicted.keys = store.keys;
  result.predicted.value_ids.assign(store.num_items(), kInvalidId);
  result.predicted.confidences.assign(store.num_items(), 0.0);
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
  ForEachItemBlock(store, [&](size_t b) {
    std::vector<Value> values;
    for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
         ++it) {
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
  });
  return table;
}

void SlotSums(const ConflictStore& store, const std::vector<double>& per_source,
              std::vector<double>& per_slot) {
  ForEachItemBlock(store, [&](size_t b) {
    const size_t end = store.first_slot(store.item_blocks[b + 1]);
    for (size_t v = store.first_slot(store.item_blocks[b]); v < end; ++v) {
      double sum = 0.0;
      for (SourceId s : store.SupportersOf(v)) {
        sum += per_source[static_cast<size_t>(s)];
      }
      per_slot[v] = sum;
    }
  });
}

void SourceSums(const ConflictStore& store, const std::vector<double>& per_slot,
                std::vector<double>& per_source) {
  ParallelFor(
      per_source.size(),
      [&](size_t s) {
        double sum = 0.0;
        for (uint32_t v : store.SlotsOf(s)) sum += per_slot[v];
        per_source[s] = sum;
      },
      StoreLoopOptions(store));
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
  for (double& conf : result.predicted.confidences) {
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
