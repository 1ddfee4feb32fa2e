#include "partition/greedy_partition.h"

#include <sstream>
#include <utility>
#include <vector>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "partition/group_runner.h"

namespace tdac {

namespace {

/// Serialized wave frontier: the current partition, its score, the
/// explored counter, and whether the search had already converged (so a
/// resume after the final wave does not re-run — and re-count — it). Each
/// greedy wave is a pure function of the current partition, so this is all
/// a resume needs.
std::string SerializeGreedySearch(const AttributePartition& current,
                                  double score, size_t explored, bool done) {
  PayloadWriter out;
  (out << current.ToString() << score << explored << done).End();
  return out.Take();
}

/// Inverse of SerializeGreedySearch; the restored partition must cover
/// exactly `attributes`.
Status ParseGreedySearch(std::string_view payload,
                         const std::vector<AttributeId>& attributes,
                         AttributePartition* current, double* score,
                         size_t* explored, bool* done) {
  PayloadReader in(payload);
  std::string text;
  in >> text >> *score >> *explored >> *done;
  TDAC_RETURN_NOT_OK(in.Finish());
  TDAC_ASSIGN_OR_RETURN(*current, AttributePartition::Parse(text));
  if (current->Attributes() != attributes) {
    return Status::InvalidArgument("partition not over this dataset");
  }
  return Status::OK();
}

}  // namespace

GreedyPartitionAlgorithm::GreedyPartitionAlgorithm(GenPartitionOptions options)
    : options_(options) {
  TDAC_CHECK(options_.base != nullptr)
      << "GreedyPartitionAlgorithm requires a base algorithm";
  name_ = std::string(options_.base->name()) + "GreedyPartition(" +
          std::string(WeightingFunctionName(options_.weighting)) + ")";
}

Result<TruthDiscoveryResult> GreedyPartitionAlgorithm::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(GenPartitionReport report,
                        DiscoverWithReport(data, guard));
  return std::move(report.result);
}

Result<GenPartitionReport> GreedyPartitionAlgorithm::DiscoverWithReport(
    const DatasetLike& data) const {
  return DiscoverWithReport(data, RunGuard::None());
}

Result<GenPartitionReport> GreedyPartitionAlgorithm::DiscoverWithReport(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("GreedyPartition: empty dataset");
  }
  if (options_.weighting == WeightingFunction::kOracle &&
      options_.oracle_truth == nullptr) {
    return Status::InvalidArgument(
        "GreedyPartition: Oracle weighting requires oracle_truth");
  }
  const std::vector<AttributeId> attributes = data.ActiveAttributes();
  const int n = static_cast<int>(attributes.size());
  if (n < 1) return Status::InvalidArgument("GreedyPartition: no attributes");

  GroupRunner runner(options_.base, &data, options_.threads, &guard);
  GenPartitionReport report;
  ParallelForOptions par;
  par.max_parallelism = runner.threads();

  Checkpointer* ckpt = options_.checkpointer;
  const bool ckpt_on = ckpt != nullptr && ckpt->enabled();
  const std::string slot = (options_.checkpoint_prefix.empty()
                                ? std::string("greedy")
                                : options_.checkpoint_prefix) +
                           ".search";
  std::string ctx;
  if (ckpt_on) {
    std::ostringstream ctx_out;
    ctx_out << name_ << " fp=" << std::hex << DatasetFingerprint(data)
            << std::dec << " n=" << n;
    ctx = ctx_out.str();
  }

  // Start from all singletons — or from the checkpointed wave frontier.
  // Resuming one wave further than strictly reached only re-runs a wave
  // that finds no improvement, so the outcome is unchanged.
  AttributePartition current;
  double current_score = 0.0;
  bool restored = false;
  bool search_done = false;
  if (ckpt_on) {
    TDAC_ASSIGN_OR_RETURN(std::optional<std::string> stored,
                          ckpt->LoadForResume(slot, ctx));
    if (stored) {
      const Status parsed =
          ParseGreedySearch(*stored, attributes, &current, &current_score,
                            &report.partitions_explored, &search_done);
      restored = parsed.ok();
      if (!restored) {
        TDAC_LOG_WARNING << name_ << ": search checkpoint payload unusable ("
                         << parsed.message() << "); restarting the search";
        report.partitions_explored = 0;
        search_done = false;
      }
    }
  }
  if (!restored) {
    std::vector<std::vector<AttributeId>> groups;
    groups.reserve(static_cast<size_t>(n));
    for (AttributeId a : attributes) groups.push_back({a});
    TDAC_ASSIGN_OR_RETURN(current, AttributePartition::FromGroups(groups));
    TDAC_ASSIGN_OR_RETURN(
        current_score,
        runner.Score(current, options_.weighting, options_.oracle_truth));
    ++report.partitions_explored;
    if (ckpt_on && !guard.ShouldStop()) {
      TDAC_RETURN_NOT_OK(ckpt->MaybeStore(slot, ctx, [&] {
        return SerializeGreedySearch(current, current_score,
                                     report.partitions_explored, false);
      }));
    }
  }

  // Merge the best-improving pair until no merge improves. Each wave's
  // candidates (one per unordered pair of current groups) are independent
  // — the merged pair is a brand-new group, so scoring them concurrently
  // drives distinct base runs through the shared memo — and the argmax is
  // taken serially in (i, j) order, which is exactly the serial loop's
  // tie-breaking (first-enumerated candidate wins a tied score).
  //
  // The wave frontier as of the last boundary the guard was still clean at
  // — a wave whose candidate scores may have been cut short mid-run is
  // never checkpointed, so a resume re-runs it cleanly.
  std::string last_clean_state;
  if (ckpt_on) {
    last_clean_state = SerializeGreedySearch(
        current, current_score, report.partitions_explored, search_done);
  }
  bool improved = !search_done;
  std::optional<StopReason> trip;
  while (improved && current.num_groups() > 1) {
    trip = guard.ShouldStop();
    if (trip) break;  // the current partition is the best-so-far
    improved = false;
    const auto& cur_groups = current.groups();

    std::vector<AttributePartition> candidates;
    candidates.reserve(cur_groups.size() * (cur_groups.size() - 1) / 2);
    for (size_t i = 0; i < cur_groups.size(); ++i) {
      for (size_t j = i + 1; j < cur_groups.size(); ++j) {
        std::vector<std::vector<AttributeId>> merged;
        merged.reserve(cur_groups.size() - 1);
        for (size_t g = 0; g < cur_groups.size(); ++g) {
          if (g == j) continue;
          merged.push_back(cur_groups[g]);
          if (g == i) {
            merged.back().insert(merged.back().end(), cur_groups[j].begin(),
                                 cur_groups[j].end());
          }
        }
        TDAC_ASSIGN_OR_RETURN(AttributePartition candidate,
                              AttributePartition::FromGroups(std::move(merged)));
        candidates.push_back(std::move(candidate));
      }
    }

    std::vector<Result<double>> scores(candidates.size(), Result<double>(0.0));
    ParallelFor(
        candidates.size(),
        [&](size_t c) {
          scores[c] = runner.Score(candidates[c], options_.weighting,
                                   options_.oracle_truth);
        },
        par);

    AttributePartition best_candidate;
    double best_score = current_score;
    for (size_t c = 0; c < candidates.size(); ++c) {
      TDAC_RETURN_NOT_OK(scores[c].status());
      ++report.partitions_explored;
      const double score = scores[c].value();
      if (score > best_score) {
        best_score = score;
        best_candidate = std::move(candidates[c]);
        improved = true;
      }
    }
    if (improved) {
      current = std::move(best_candidate);
      current_score = best_score;
    }
    if (ckpt_on && !guard.ShouldStop()) {
      last_clean_state =
          SerializeGreedySearch(current, current_score,
                                report.partitions_explored, !improved);
      if (improved) {
        TDAC_RETURN_NOT_OK(
            ckpt->MaybeStore(slot, ctx, [&] { return last_clean_state; }));
      } else {
        // The search just converged: store unconditionally so a crash
        // during the final aggregation resumes without re-running (and
        // re-counting) the last wave.
        TDAC_RETURN_NOT_OK(ckpt->StoreNow(slot, ctx, last_clean_state));
      }
    }
  }
  if (ckpt_on && trip) {
    // Final checkpoint on a Deadline/Cancelled stop.
    TDAC_RETURN_NOT_OK(ckpt->StoreNow(slot, ctx, last_clean_state));
  }

  report.best_partition = current;
  report.best_score = current_score;
  report.groups_evaluated = runner.groups_evaluated();
  TDAC_ASSIGN_OR_RETURN(report.result, runner.Aggregate(current));
  if (trip) {
    report.result.stop_reason =
        CombineStopReasons(report.result.stop_reason, *trip);
    report.result.converged = false;
  }
  if (ckpt_on && !report.result.degraded()) {
    TDAC_RETURN_NOT_OK(ckpt->Remove(slot));
  }
  return report;
}

}  // namespace tdac
