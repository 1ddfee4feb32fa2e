#ifndef TDAC_TD_TRUTH_DISCOVERY_H_
#define TDAC_TD_TRUTH_DISCOVERY_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/run_guard.h"
#include "common/status.h"
#include "data/dataset_like.h"
#include "data/predictions.h"
#include "data/value_dict.h"

namespace tdac {

/// \brief Options shared by every truth-discovery algorithm.
struct TruthDiscoveryOptions {
  /// Upper bound on outer iterations for iterative algorithms.
  int max_iterations = 20;

  /// Convergence test: the iteration stops when the L1 change of the source
  /// trust/accuracy vector divided by the number of sources drops below this.
  double convergence_threshold = 1e-4;

  /// Initial source trust / accuracy.
  double initial_trust = 0.8;
};

/// \brief Output of a truth-discovery run.
struct TruthDiscoveryResult {
  /// The elected value of every data item that has at least one claim, in
  /// DataItems() order, with its confidence (algorithm-specific scale;
  /// probabilities for the Bayesian family, logistic confidences for
  /// TruthFinder, vote fractions for MajorityVote). Value ids index the
  /// dictionary of the storage the run read.
  Predictions predicted;

  /// Final per-source trust/accuracy estimate, indexed by SourceId.
  std::vector<double> source_trust;

  /// Number of outer iterations executed (the paper's #Iteration column).
  int iterations = 0;

  /// Whether the convergence test fired before max_iterations.
  bool converged = false;

  /// Why the run stopped. kConverged/kMaxIterations are clean outcomes;
  /// kDeadline/kCancelled/kNonFinite label a best-so-far degraded result
  /// (see docs/robustness.md).
  StopReason stop_reason = StopReason::kConverged;

  /// True when a guard or the numeric rails cut the run short.
  bool degraded() const { return IsDegraded(stop_reason); }
};

/// Serializes a result of a run on `data` (or on a view of its storage)
/// into a checkpoint payload: predictions in sorted key order, their values
/// read through `data`'s dictionary and token-escaped, and every double as
/// its IEEE-754 bits, so Serialize → Deserialize is a bit-exact round trip.
std::string SerializeTruthDiscoveryResult(const TruthDiscoveryResult& result,
                                          const DatasetLike& data);

/// Inverse of SerializeTruthDiscoveryResult against `data`: each value is
/// resolved through `data`'s dictionary. Fails with InvalidArgument on any
/// malformed field (a checkpoint payload that passed its CRC but was
/// written by something else entirely), and on one that does not fit
/// `data`: a non-empty trust vector not sized to its sources, a predicted
/// item it does not hold, a value no claim on the item carries, or
/// confidences keyed otherwise than the predictions.
[[nodiscard]] Result<TruthDiscoveryResult> DeserializeTruthDiscoveryResult(
    std::string_view payload, const DatasetLike& data);

/// A base run on one group of a partition, as MergeGroupRuns reads it.
struct GroupRunPart {
  const Predictions* predicted = nullptr;
  /// Per-source trust; an empty vector leaves the group out of the trust
  /// average.
  const std::vector<double>* trust = nullptr;
  /// The group's claims per source (ClaimsPerSource of its restriction).
  const std::vector<size_t>* claims = nullptr;
};

/// Merges base runs on disjoint groups of items (TD-AC's clusters, a
/// searched partition's groups): every group's predictions, keys ascending
/// (MergePredictions), and each source's trust averaged over the groups in
/// group order, weighted by the source's claims in each; 0 for a source
/// without claims. Iterations, convergence and the stop reason are left
/// for the caller to label.
TruthDiscoveryResult MergeGroupRuns(std::span<const GroupRunPart> parts,
                                    size_t num_sources);

/// Claims per SourceId in `data`.
std::vector<size_t> ClaimsPerSource(const DatasetLike& data);

/// \brief Abstract interface implemented by every algorithm (the paper's
/// "base truth discovery algorithm" F).
class TruthDiscovery {
 public:
  virtual ~TruthDiscovery() = default;

  /// Stable algorithm name ("MajorityVote", "TruthFinder", ...).
  virtual std::string_view name() const = 0;

  /// Runs the algorithm over all claims in `data` — an owning `Dataset` or
  /// a zero-copy `DatasetView` restriction. Fails on an empty dataset;
  /// items whose conflict set is empty are simply absent from the result.
  [[nodiscard]] Result<TruthDiscoveryResult> Discover(
      const DatasetLike& data) const;

  /// Guarded entry point: the run cooperatively checks `guard` at every
  /// outer iteration and stops early with a best-so-far result labeled by
  /// `stop_reason` when a deadline/budget/cancellation trips. Both entry
  /// points apply the numeric rails: a result can never carry non-finite
  /// trust or confidence (offending values are zeroed and the result is
  /// marked kNonFinite).
  [[nodiscard]] Result<TruthDiscoveryResult> Discover(
      const DatasetLike& data, const RunGuard& guard) const;

 protected:
  /// Algorithm body. Iterative implementations run through
  /// td_internal::Iterate, which checks `guard.OnIteration()` at the top of
  /// every outer iteration after the first (so even a tripped guard yields
  /// one usable iterate) and stops with the returned StopReason.
  [[nodiscard]] virtual Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const = 0;
};

namespace td_internal {

/// \brief One base run's conflict sets, stored once as flat arrays (CSR:
/// compressed sparse rows, each level addressed through an offset array).
///
///   item i -> value slots [item_offsets[i], item_offsets[i + 1]), ascending
///             by value, so the lowest slot is the smallest value;
///   slot v -> supporters [slot_offsets[v], slot_offsets[v + 1]), ascending
///             by SourceId.
///
/// Slots are numbered across the whole run, so an algorithm keeps its
/// per-value state in one flat array indexed by slot. Walking `supporters`
/// front to back visits items in DataItems() order, slots in value order and
/// sources ascending: the order every floating-point sum of the base
/// algorithms is taken in.
///
/// Two more arrays serve the parallel phases of a run:
///
///   source s -> slots [source_offsets[s], source_offsets[s + 1]) of
///               `source_slots`, ascending: the source-major transpose, so a
///               per-source sum runs over one source's slots in the order
///               a front-to-back scatter would add them;
///   block b  -> items [item_blocks[b], item_blocks[b + 1]): runs of whole
///               items with about equal claim counts, cut once when the
///               store is grouped. A store under kItemBlockClaims claims,
///               or grouped at run width 1, is one block.
///
/// An item touches only its own slots and supporters, so blocks run
/// concurrently and each writes disjoint state; no floating-point sum
/// crosses a block boundary, which keeps results bit-identical at every
/// width.
struct ConflictStore {
  /// Data item keys, in DataItems() order.
  std::vector<uint64_t> keys;
  /// num_items() + 1 offsets into the slot arrays.
  std::vector<uint32_t> item_offsets;
  /// Storage-dictionary id of each slot's value.
  std::vector<ValueId> slot_ids;
  /// num_slots() + 1 offsets into `supporters`.
  std::vector<uint32_t> slot_offsets;
  /// The supporting sources of every slot, back to back.
  std::vector<SourceId> supporters;
  /// Claims per SourceId (exact integer counts held as doubles).
  std::vector<double> claim_counts;
  /// num_sources + 1 offsets into `source_slots`.
  std::vector<uint32_t> source_offsets;
  /// The slots every source supports, source by source, each ascending.
  std::vector<uint32_t> source_slots;
  /// num_blocks() + 1 item indices, from 0 to num_items(), increasing.
  std::vector<uint32_t> item_blocks;
  /// The storage dictionary `slot_ids` index; it outlives the store.
  const ValueDict* dict = nullptr;

  size_t num_items() const { return keys.size(); }
  size_t num_slots() const { return slot_ids.size(); }
  size_t num_blocks() const { return item_blocks.size() - 1; }
  size_t first_slot(size_t item) const { return item_offsets[item]; }
  size_t end_slot(size_t item) const { return item_offsets[item + 1]; }
  std::span<const SourceId> SupportersOf(size_t slot) const {
    return {supporters.data() + slot_offsets[slot],
            supporters.data() + slot_offsets[slot + 1]};
  }
  /// The slots `source` supports, ascending.
  std::span<const uint32_t> SlotsOf(size_t source) const {
    return {source_slots.data() + source_offsets[source],
            source_slots.data() + source_offsets[source + 1]};
  }
  /// The slot's value, materialized from the dictionary.
  Value ValueOf(size_t slot) const { return dict->ValueAt(slot_ids[slot]); }
};

/// Claims per item block, about: the grain below which a run's phases stay
/// serial because fanning out would cost more than it saves.
inline constexpr size_t kItemBlockClaims = size_t{1} << 15;

/// Groups the dataset's claims by data item into one ConflictStore, with
/// values sorted (total order on Value) so that downstream tie-breaking is
/// deterministic. Cuts the item blocks at the run width (CurrentRunWidth)
/// and groups them concurrently into block-local slot arrays, which are
/// then concatenated in block order; the result is the same at every
/// width but for `item_blocks`.
///
/// The sort reads the storage columns only: each claim becomes one uint64,
/// `(value rank << 32) | source`, and there are no Value copies or string
/// comparisons. It matches a (Value, SourceId) sort through the ValueDict
/// contract: distinct values have distinct ranks in Value order, and equal
/// values share one dictionary id.
ConflictStore GroupClaimsByItem(const DatasetLike& data);

/// Runs `body(b)` for every item block b of `store`: in parallel at the run
/// width when there is more than one block, inline otherwise.
void ForEachItemBlock(const ConflictStore& store,
                      const std::function<void(size_t block)>& body);

/// ParallelFor options for a loop over `store`'s sources or blocks: the
/// run width for a store of several blocks, else serial.
ParallelForOptions StoreLoopOptions(const ConflictStore& store);

/// The slot of `item` with the highest score in `scores` (indexed by slot);
/// a tie goes to the lowest slot, i.e. the smallest value.
size_t ElectSlot(const ConflictStore& store, size_t item,
                 const std::vector<double>& scores);

/// `scores[slot]` over the total score of `item`'s slots, summed in slot
/// order; 0 when that total is not positive.
double ScoreShare(const ConflictStore& store, size_t item, size_t slot,
                  const std::vector<double>& scores);

/// Records `slot`'s value as `item`'s prediction, with `confidence`: writes
/// the item's slot of the arrays StartPredictions sized.
inline void RecordPrediction(const ConflictStore& store, size_t item,
                             size_t slot, double confidence,
                             TruthDiscoveryResult& result) {
  result.predicted.value_ids[item] = store.slot_ids[slot];
  result.predicted.confidences[item] = confidence;
}

/// Sizes the result's predictions to the items of `store`, keys set; every
/// item must then be recorded (RecordPrediction).
void StartPredictions(const ConflictStore& store,
                      TruthDiscoveryResult& result);

/// Elects every item's highest-scoring slot (ElectSlot) and records it with
/// `confidence(item, slot)`, items in store order.
template <typename Confidence>
void RecordElection(const ConflictStore& store,
                    const std::vector<double>& scores,
                    TruthDiscoveryResult& result, Confidence confidence) {
  StartPredictions(store, result);
  for (size_t item = 0; item < store.num_items(); ++item) {
    const size_t slot = ElectSlot(store, item, scores);
    RecordPrediction(store, item, slot, confidence(item, slot), result);
  }
}

/// Per-item n x n tables over value pairs, n being the item's value count,
/// stored flat: entry (w, v) of item i (w, v local to the item, 0-based) is
/// `Block(i)[w * n + v]`. Diagonal entries are 0. TruthFinder keeps its
/// implications here and AccuSim its similarities.
struct PairTable {
  std::vector<size_t> offsets;
  std::vector<double> entries;

  const double* Block(size_t item) const {
    return entries.data() + offsets[item];
  }
};

/// Builds a PairTable with entry (w, v) = `entry(value w, value v)` for
/// every w != v, materializing each item's values once. With `symmetric`,
/// `entry` is called for w < v only and mirrored into (v, w). Item blocks
/// fill concurrently, so `entry` must be safe to call from several
/// threads at once.
PairTable BuildPairTable(
    const ConflictStore& store, bool symmetric,
    const std::function<double(const Value&, const Value&)>& entry);

/// What one iteration of a fixpoint algorithm reports to Iterate.
enum class Step {
  /// Keep iterating.
  kContinue,
  /// The algorithm's convergence test passed.
  kSettled,
  /// The step went non-finite; it left the last finite state in place.
  kNonFinite,
};

/// kSettled when `settled`, else kContinue.
inline Step SettledIf(bool settled) {
  return settled ? Step::kSettled : Step::kContinue;
}

/// The outer loop of every iterative base algorithm. Runs `step()` (which
/// returns a Step) up to max(1, options.max_iterations) times, counting
/// `result.iterations` and labeling `result.stop_reason`:
///   - iteration 0 always runs;
///   - from iteration 1 on, `guard.OnIteration()` is checked first and a
///     trip stops the run with the guard's reason;
///   - a kNonFinite step stops the run as kNonFinite;
///   - kSettled counts as convergence only after iteration 0;
///   - running out of iterations leaves kMaxIterations.
template <typename StepFn>
void Iterate(const TruthDiscoveryOptions& options, const RunGuard& guard,
             TruthDiscoveryResult& result, StepFn step) {
  result.stop_reason = StopReason::kMaxIterations;
  const int max_iterations = std::max(1, options.max_iterations);
  for (int iter = 0; iter < max_iterations; ++iter) {
    if (iter > 0) {
      if (auto stop = guard.OnIteration()) {
        result.stop_reason = *stop;
        return;
      }
    }
    ++result.iterations;
    const Step outcome = step();
    if (outcome == Step::kNonFinite) {
      result.stop_reason = StopReason::kNonFinite;
      return;
    }
    if (outcome == Step::kSettled && iter > 0) {
      result.converged = true;
      result.stop_reason = StopReason::kConverged;
      return;
    }
  }
}

/// per_slot[v] = the sum of per_source[s] over slot v's supporters, added
/// from 0.0 in ascending source order. `per_slot` has num_slots() entries.
/// Item blocks run in parallel.
void SlotSums(const ConflictStore& store, const std::vector<double>& per_source,
              std::vector<double>& per_slot);

/// per_source[s] = the sum of per_slot[v] over the slots s supports, added
/// from 0.0 in ascending slot order (store order); 0.0 for a source with no
/// claims. Reads the source-major index, so sources run in parallel.
void SourceSums(const ConflictStore& store, const std::vector<double>& per_slot,
                std::vector<double>& per_source);

/// Divides every entry by the largest one; a no-op when that is not
/// positive.
void MaxNormalize(std::vector<double>& values);

/// Mean absolute change per coordinate between two equal-length vectors.
double MeanAbsDelta(const std::vector<double>& a, const std::vector<double>& b);

/// Final numeric rail applied by TruthDiscovery::Discover to every result:
/// replaces non-finite source-trust / confidence entries with 0.0 and, if
/// any were found, demotes the result to kNonFinite (converged = false).
/// A no-op on finite results.
void SanitizeResult(TruthDiscoveryResult& result);

}  // namespace td_internal

}  // namespace tdac

#endif  // TDAC_TD_TRUTH_DISCOVERY_H_
