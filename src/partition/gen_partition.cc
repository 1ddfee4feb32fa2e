#include "partition/gen_partition.h"

#include <sstream>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "partition/group_runner.h"
#include "partition/set_partition_enumerator.h"

namespace tdac {

namespace {

/// Serialized search frontier: how many partitions the enumerator has
/// yielded, plus the best-so-far (score + partition). The enumerator is
/// deterministic, so the consumed count alone replays its position.
std::string SerializeGenSearch(size_t explored, bool have_best,
                               double best_score,
                               const AttributePartition& best) {
  PayloadWriter out;
  (out << explored << have_best << best_score << best.ToString()).End();
  return out.Take();
}

/// Inverse of SerializeGenSearch; a restored best partition must cover
/// exactly `attributes`.
Status ParseGenSearch(std::string_view payload,
                      const std::vector<AttributeId>& attributes,
                      size_t* explored, bool* have_best, double* best_score,
                      AttributePartition* best) {
  PayloadReader in(payload);
  std::string text;
  in >> *explored >> *have_best >> *best_score >> text;
  TDAC_RETURN_NOT_OK(in.Finish());
  if (*have_best) {
    TDAC_ASSIGN_OR_RETURN(*best, AttributePartition::Parse(text));
    if (best->Attributes() != attributes) {
      return Status::InvalidArgument("partition not over this dataset");
    }
  }
  return Status::OK();
}

}  // namespace

GenPartitionAlgorithm::GenPartitionAlgorithm(GenPartitionOptions options)
    : options_(options) {
  TDAC_CHECK(options_.base != nullptr)
      << "GenPartitionAlgorithm requires a base algorithm";
  name_ = std::string(options_.base->name()) + "GenPartition(" +
          std::string(WeightingFunctionName(options_.weighting)) + ")";
}

Result<TruthDiscoveryResult> GenPartitionAlgorithm::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(GenPartitionReport report,
                        DiscoverWithReport(data, guard));
  return std::move(report.result);
}

Result<GenPartitionReport> GenPartitionAlgorithm::DiscoverWithReport(
    const DatasetLike& data) const {
  return DiscoverWithReport(data, RunGuard::None());
}

Result<GenPartitionReport> GenPartitionAlgorithm::DiscoverWithReport(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("GenPartition: empty dataset");
  }
  if (options_.weighting == WeightingFunction::kOracle &&
      options_.oracle_truth == nullptr) {
    return Status::InvalidArgument(
        "GenPartition: Oracle weighting requires oracle_truth");
  }
  const std::vector<AttributeId> attributes = data.ActiveAttributes();
  const int n = static_cast<int>(attributes.size());
  if (n < 1) return Status::InvalidArgument("GenPartition: no attributes");
  if (n > options_.max_attributes) {
    return Status::InvalidArgument(
        "GenPartition: refusing to enumerate partitions of " +
        std::to_string(n) + " attributes (cap " +
        std::to_string(options_.max_attributes) +
        "); raise max_attributes explicitly if you really mean it");
  }

  GroupRunner runner(options_.base, &data, options_.threads, &guard);
  GenPartitionReport report;
  bool have_best = false;
  std::optional<StopReason> trip;

  // Candidate partitions are pulled from the (stateful, serial) enumerator
  // in batches; each batch is scored in parallel — concurrent Score calls
  // share the runner's memo, so every distinct group still runs the base
  // algorithm exactly once — and reduced in enumeration order, preserving
  // the serial loop's tie-breaking exactly.
  const size_t batch_size =
      runner.threads() > 1 ? 16 * static_cast<size_t>(runner.threads()) : 1;
  ParallelForOptions par;
  par.max_parallelism = runner.threads();

  // Search-frontier checkpoint: the enumerator is deterministic, so the
  // number of partitions consumed fully encodes its position; resume
  // fast-forwards past them and re-scores nothing already reduced.
  Checkpointer* ckpt = options_.checkpointer;
  const bool ckpt_on = ckpt != nullptr && ckpt->enabled();
  const std::string slot = (options_.checkpoint_prefix.empty()
                                ? std::string("gen")
                                : options_.checkpoint_prefix) +
                           ".search";
  std::string ctx;
  if (ckpt_on) {
    std::ostringstream ctx_out;
    ctx_out << name_ << " fp=" << std::hex << DatasetFingerprint(data)
            << std::dec << " n=" << n;
    ctx = ctx_out.str();
  }

  SetPartitionEnumerator enumerator(n);
  if (ckpt_on) {
    TDAC_ASSIGN_OR_RETURN(std::optional<std::string> stored,
                          ckpt->LoadForResume(slot, ctx));
    if (stored) {
      size_t explored = 0;
      const Status parsed =
          ParseGenSearch(*stored, attributes, &explored, &have_best,
                         &report.best_score, &report.best_partition);
      if (parsed.ok()) {
        for (size_t i = 0; i < explored; ++i) {
          if (!enumerator.Next()) break;
          ++report.partitions_explored;
        }
      } else {
        TDAC_LOG_WARNING << name_ << ": search checkpoint payload unusable ("
                         << parsed.message() << "); restarting the search";
        have_best = false;
        report.best_score = 0.0;
        report.best_partition = AttributePartition();
      }
    }
  }

  // Only state computed with the guard untripped may be persisted: a batch
  // scored while the deadline was expiring holds degraded (early-stopped)
  // base runs, and resuming from it would replay their scores as truth.
  std::string last_clean;
  bool have_last_clean = false;

  bool exhausted = false;
  while (!exhausted) {
    trip = guard.ShouldStop();
    if (trip) break;  // best-so-far exits below
    std::vector<AttributePartition> batch;
    batch.reserve(batch_size);
    while (batch.size() < batch_size) {
      if (!enumerator.Next()) {
        exhausted = true;
        break;
      }
      TDAC_ASSIGN_OR_RETURN(AttributePartition partition,
                            enumerator.Current(attributes));
      batch.push_back(std::move(partition));
    }
    std::vector<Result<double>> scores(batch.size(), Result<double>(0.0));
    ParallelFor(
        batch.size(),
        [&](size_t i) {
          scores[i] =
              runner.Score(batch[i], options_.weighting, options_.oracle_truth);
        },
        par);
    for (size_t i = 0; i < batch.size(); ++i) {
      ++report.partitions_explored;
      TDAC_RETURN_NOT_OK(scores[i].status());
      const double score = scores[i].value();

      // Strictly better score wins; on a tie prefer the finer partition
      // (degenerate ties — e.g. a base algorithm that is perfect on every
      // grouping — otherwise collapse to the first-enumerated all-in-one).
      if (!have_best || score > report.best_score ||
          (score == report.best_score &&
           batch[i].num_groups() > report.best_partition.num_groups())) {
        have_best = true;
        report.best_score = score;
        report.best_partition = std::move(batch[i]);
      }
    }
    if (ckpt_on) {
      // A trip during this batch's scoring means some of the scores just
      // reduced are degraded: keep them for this run's best-so-far output,
      // but never let them reach a checkpoint.
      trip = guard.ShouldStop();
      if (trip) break;
      last_clean = SerializeGenSearch(report.partitions_explored, have_best,
                                      report.best_score,
                                      report.best_partition);
      have_last_clean = true;
      TDAC_RETURN_NOT_OK(
          ckpt->MaybeStore(slot, ctx, [&] { return last_clean; }));
    }
  }
  if (ckpt_on && trip && have_last_clean) {
    // Final checkpoint on a Deadline/Cancelled stop: the frontier as of the
    // last batch scored entirely under an untripped guard. (With no new
    // clean state the file on disk already holds the right frontier.)
    TDAC_RETURN_NOT_OK(ckpt->StoreNow(slot, ctx, last_clean));
  }
  if (!have_best) {
    // Tripped before any batch was scored: the single all-attributes group
    // (one base run on the full dataset) is the degenerate best-so-far.
    report.best_partition = AttributePartition::Single(attributes);
  }
  report.groups_evaluated = runner.groups_evaluated();
  TDAC_ASSIGN_OR_RETURN(report.result,
                        runner.Aggregate(report.best_partition));
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
