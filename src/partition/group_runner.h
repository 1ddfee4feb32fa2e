#ifndef TDAC_PARTITION_GROUP_RUNNER_H_
#define TDAC_PARTITION_GROUP_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset_view.h"
#include "data/ground_truth.h"
#include "partition/attribute_partition.h"
#include "partition/weighting.h"
#include "td/truth_discovery.h"

namespace tdac {

/// \brief Runs a base truth-discovery algorithm on attribute groups with
/// memoization, and scores/aggregates whole partitions.
///
/// Partition-search algorithms (the exhaustive AccuGenPartition and the
/// greedy variant) evaluate many partitions that share groups; the base
/// algorithm only ever runs once per distinct group.
///
/// Thread safety: `Run`, `Score`, and `Aggregate` may be called
/// concurrently. The memo is guarded by a mutex for map structure and a
/// per-entry once-latch for computation, so a group requested from many
/// threads at once is still evaluated exactly once — later requesters
/// block until the first computation finishes and then share its result.
/// `Score` and `Aggregate` additionally fan the per-group runs of one
/// partition out over the thread pool (see `set_threads`); their returned
/// scores and aggregates are bit-identical at every thread count because
/// the reduction over groups is always done serially in partition order.
class GroupRunner {
 public:
  /// Outcome of the base algorithm on one group's restriction.
  struct GroupRun {
    Predictions predicted;
    std::vector<double> trust;         // per source
    std::vector<size_t> claim_counts;  // per source, claims inside the group
    StopReason stop_reason = StopReason::kConverged;
    bool converged = true;
  };

  /// Neither pointer is owned; both must outlive the runner. `data` may be
  /// an owning `Dataset` or a `DatasetView`. `threads` caps the
  /// per-partition fan-out of Score/Aggregate: 0 means the process default
  /// (TDAC_THREADS env, else hardware concurrency), 1 forces the serial
  /// path. `guard`, when given (not owned), is threaded through every
  /// memoized base run; Aggregate's result carries the worst stop reason of
  /// its groups. Note a memoized run keeps the stop reason of whichever
  /// call computed it first.
  GroupRunner(const TruthDiscovery* base, const DatasetLike* data,
              int threads = 0, const RunGuard* guard = nullptr);

  /// Memoized run of the base algorithm on `group` (sorted attribute ids).
  /// The returned pointer stays valid for the runner's lifetime.
  [[nodiscard]]
  Result<const GroupRun*> Run(const std::vector<AttributeId>& group);

  /// Scores a partition: kMax/kAvg collapse each source's per-group
  /// accuracy vector and average over covering sources; kOracle evaluates
  /// the aggregated prediction against `oracle` (required then).
  [[nodiscard]] Result<double> Score(const AttributePartition& partition,
                                     WeightingFunction weighting,
                                     const GroundTruth* oracle);

  /// Merges the per-group results of `partition` into one result
  /// (predictions, confidences, claim-weighted source trust).
  [[nodiscard]]
  Result<TruthDiscoveryResult> Aggregate(const AttributePartition& partition);

  /// Distinct groups the base algorithm actually ran on (successfully
  /// evaluated memo entries; concurrent duplicate requests count once).
  size_t groups_evaluated() const {
    return evaluated_.load(std::memory_order_acquire);
  }

  int threads() const { return threads_; }

 private:
  /// Memo keys are the sorted attribute-id lists themselves (canonical
  /// AttributePartition form), hashed id-wise — exact by construction, so
  /// two distinct groups can never collide the way a flattened string or
  /// bitmask key could.
  struct GroupKeyHash {
    size_t operator()(const std::vector<AttributeId>& group) const;
  };

  /// One memo slot. Entries are created under `mutex_` but computed
  /// outside it (under the entry's own once-latch), so a slow group never
  /// serializes lookups of other groups. Entries are heap-allocated so
  /// rehashing the map cannot move them while another thread waits.
  struct Entry {
    std::once_flag once;
    Status status;
    GroupRun run;
  };

  /// Looks up or creates the entry, computing at most once.
  Entry* EntryFor(const std::vector<AttributeId>& group);

  const TruthDiscovery* base_;
  const DatasetLike* data_;
  const int threads_;
  const RunGuard* guard_;  // never null; defaults to RunGuard::None()

  /// Zero-copy restriction views, shared across Run/Score/Aggregate; the
  /// run memo keys match the cache keys, so a group's view is built at
  /// most once (the runner uses the cache's default unbounded capacity —
  /// a run touches a bounded set of groups and the cache dies with it).
  RestrictionCache restrictions_;

  std::mutex mutex_;  // guards memo_'s structure only
  std::unordered_map<std::vector<AttributeId>, std::unique_ptr<Entry>,
                     GroupKeyHash>
      memo_;
  std::atomic<size_t> evaluated_{0};
};

}  // namespace tdac

#endif  // TDAC_PARTITION_GROUP_RUNNER_H_
