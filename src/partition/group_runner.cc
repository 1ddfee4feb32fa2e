#include "partition/group_runner.h"

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "eval/metrics.h"

namespace tdac {

GroupRunner::GroupRunner(const TruthDiscovery* base, const DatasetLike* data,
                         int threads, const RunGuard* guard)
    : base_(base),
      data_(data),
      threads_(EffectiveThreadCount(threads)),
      guard_(guard != nullptr ? guard : &RunGuard::None()),
      restrictions_(data) {
  TDAC_CHECK(base_ != nullptr) << "GroupRunner requires a base algorithm";
  TDAC_CHECK(data_ != nullptr) << "GroupRunner requires a dataset";
}

size_t GroupRunner::GroupKeyHash::operator()(
    const std::vector<AttributeId>& group) const {
  // splitmix64 over the id sequence, length-seeded; equality on the vector
  // itself makes the memo exact regardless of hash quality.
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ group.size();
  uint64_t h = 0;
  for (AttributeId a : group) {
    state ^= static_cast<uint64_t>(a) + 0x2545f4914f6cdd1dULL;
    h = h * 31 + SplitMix64(&state);
  }
  return static_cast<size_t>(h);
}

GroupRunner::Entry* GroupRunner::EntryFor(
    const std::vector<AttributeId>& group) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = memo_.try_emplace(group);
  if (inserted) it->second = std::make_unique<Entry>();
  return it->second.get();
}

Result<const GroupRunner::GroupRun*> GroupRunner::Run(
    const std::vector<AttributeId>& group) {
  Entry* entry = EntryFor(group);
  // Concurrent requesters of the same group block here until the first
  // one finishes; the computation itself runs outside the map mutex so
  // distinct groups evaluate in parallel.
  std::call_once(entry->once, [&]() {
    const std::shared_ptr<const DatasetView> view =
        restrictions_.Attributes(group);
    const DatasetView& restricted = *view;
    GroupRun& run = entry->run;
    run.claim_counts = ClaimsPerSource(restricted);
    if (restricted.num_claims() > 0) {
      Result<TruthDiscoveryResult> r = base_->Discover(restricted, *guard_);
      if (!r.ok()) {
        entry->status = r.status();
        return;
      }
      TruthDiscoveryResult& result = r.value();
      run.predicted = std::move(result.predicted);
      run.trust = std::move(result.source_trust);
      run.stop_reason = result.stop_reason;
      run.converged = result.converged;
    } else {
      run.trust.assign(static_cast<size_t>(data_->num_sources()), 0.0);
    }
    evaluated_.fetch_add(1, std::memory_order_acq_rel);
  });
  if (!entry->status.ok()) return entry->status;
  return &entry->run;
}

Result<double> GroupRunner::Score(const AttributePartition& partition,
                                  WeightingFunction weighting,
                                  const GroundTruth* oracle) {
  const auto& groups = partition.groups();
  std::vector<Result<const GroupRun*>> fetched(groups.size(),
                                               Result<const GroupRun*>(nullptr));
  ParallelForOptions popts;
  popts.max_parallelism = threads_;
  ParallelFor(
      groups.size(), [&](size_t g) { fetched[g] = Run(groups[g]); }, popts);

  std::vector<const GroupRun*> runs;
  runs.reserve(groups.size());
  for (Result<const GroupRun*>& r : fetched) {
    TDAC_RETURN_NOT_OK(r.status());
    runs.push_back(r.value());
  }

  if (weighting == WeightingFunction::kOracle) {
    if (oracle == nullptr) {
      return Status::InvalidArgument(
          "GroupRunner::Score: Oracle weighting requires a gold truth");
    }
    std::vector<const Predictions*> predictions;
    for (const GroupRun* run : runs) predictions.push_back(&run->predicted);
    return Evaluate(*data_, MergePredictions(predictions), *oracle).accuracy;
  }

  // Mean over sources of the collapsed per-group accuracy vector.
  double total = 0.0;
  size_t counted = 0;
  const size_t num_sources = static_cast<size_t>(data_->num_sources());
  for (size_t s = 0; s < num_sources; ++s) {
    std::vector<double> accuracies(runs.size());
    std::vector<size_t> claims(runs.size());
    bool covers = false;
    for (size_t g = 0; g < runs.size(); ++g) {
      accuracies[g] = s < runs[g]->trust.size() ? runs[g]->trust[s] : 0.0;
      claims[g] = runs[g]->claim_counts[s];
      covers = covers || claims[g] > 0;
    }
    if (!covers) continue;
    total += CollapseSourceAccuracies(weighting, accuracies, claims);
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

Result<TruthDiscoveryResult> GroupRunner::Aggregate(
    const AttributePartition& partition) {
  const auto& groups = partition.groups();
  std::vector<Result<const GroupRun*>> fetched(groups.size(),
                                               Result<const GroupRun*>(nullptr));
  ParallelForOptions popts;
  popts.max_parallelism = threads_;
  ParallelFor(
      groups.size(), [&](size_t g) { fetched[g] = Run(groups[g]); }, popts);

  // The merge reduces serially in partition order, which keeps the result
  // bit-identical at every thread count.
  std::vector<GroupRunPart> parts;
  parts.reserve(groups.size());
  StopReason stop_reason = StopReason::kConverged;
  for (size_t g = 0; g < groups.size(); ++g) {
    TDAC_RETURN_NOT_OK(fetched[g].status());
    const GroupRun* run = fetched[g].value();
    parts.push_back({&run->predicted, &run->trust, &run->claim_counts});
    stop_reason = CombineStopReasons(stop_reason, run->stop_reason);
  }
  TruthDiscoveryResult result =
      MergeGroupRuns(parts, static_cast<size_t>(data_->num_sources()));
  result.iterations = -1;  // search-based algorithms render "-"
  result.stop_reason = stop_reason;
  result.converged = !result.degraded();
  return result;
}

}  // namespace tdac
