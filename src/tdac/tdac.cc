#include "tdac/tdac.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace tdac {

namespace {

/// Compacts a k-means assignment so labels are consecutive over non-empty
/// clusters; returns the effective number of clusters.
int CompactLabels(std::vector<int>* assignment, int k) {
  std::vector<int> remap(static_cast<size_t>(k), -1);
  int next = 0;
  for (int& a : *assignment) {
    if (remap[static_cast<size_t>(a)] < 0) {
      remap[static_cast<size_t>(a)] = next++;
    }
    a = remap[static_cast<size_t>(a)];
  }
  return next;
}

/// Per-k outcome slot of the sweep (filled by the parallel sweep, reduced
/// serially in ascending-k order — and round-tripped verbatim through the
/// sweep checkpoint, which is what makes a resumed sweep bit-identical).
struct SweepOutcome {
  std::vector<int> assignment;
  int effective_k = 0;
  double score = 0.0;
  bool ok = false;
  bool kmeans_converged = true;
};

}  // namespace

Tdac::Tdac(TdacOptions options)
    : Tdac(std::move(options), PartitionAxis::kAttributes) {}

Tdac::Tdac(TdacOptions options, PartitionAxis axis)
    : options_(std::move(options)), axis_(axis) {
  TDAC_CHECK(options_.base != nullptr) << "Tdac requires a base algorithm";
  name_ = (axis_ == PartitionAxis::kAttributes ? "TD-AC(F=" : "TD-OC(F=") +
          std::string(options_.base->name()) + ")";
}

Result<TruthDiscoveryResult> Tdac::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TdacReport report, DiscoverWithReport(data, guard));
  return std::move(report.result);
}

Result<TdacReport> Tdac::DiscoverWithReport(const DatasetLike& data) const {
  return DiscoverWithReport(data, RunGuard::None());
}

Result<TdacReport> Tdac::DiscoverWithReport(const DatasetLike& data,
                                            const RunGuard& guard) const {
  // One restriction cache for the whole call: refinement rounds usually
  // re-derive most groups, and each re-derived group reuses its view.
  RestrictionCache cache(&data);
  TDAC_ASSIGN_OR_RETURN(TdacReport report,
                        RunPass(data, &cache, nullptr, guard, 0));
  // Refinement extension: rebuild the truth vectors against our own merged
  // predictions and re-run, until the partition stabilizes.
  for (int round = 0; round < options_.refinement_rounds; ++round) {
    if (report.fell_back_to_base) break;
    if (report.result.degraded()) break;  // first pass already cut short
    if (auto stop = guard.ShouldStop()) {
      // The last completed round stands; label it so the caller knows the
      // refinement did not run to completion.
      report.result.stop_reason =
          CombineStopReasons(report.result.stop_reason, *stop);
      report.result.converged = false;
      break;
    }
    TDAC_ASSIGN_OR_RETURN(
        TdacReport next,
        RunPass(data, &cache, &report.result.predicted, guard, round + 1));
    if (next.result.degraded()) {
      // Keep the previous round's complete result over a partial round,
      // labeled with the reason the new round was cut short.
      report.result.stop_reason = CombineStopReasons(
          report.result.stop_reason, next.result.stop_reason);
      report.result.converged = false;
      break;
    }
    const bool stable = next.partition == report.partition;
    report = std::move(next);
    if (stable) break;
  }
  // Clean completion leaves no resume state behind; a degraded run keeps
  // its slots so --resume can finish the remaining work.
  if (options_.checkpointer != nullptr && options_.checkpointer->enabled() &&
      !report.result.degraded()) {
    for (int round = 0; round <= options_.refinement_rounds; ++round) {
      const std::string prefix =
          options_.checkpoint_prefix + ".r" + std::to_string(round);
      TDAC_RETURN_NOT_OK(options_.checkpointer->Remove(prefix + ".reference"));
      TDAC_RETURN_NOT_OK(options_.checkpointer->Remove(prefix + ".sweep"));
      TDAC_RETURN_NOT_OK(options_.checkpointer->Remove(prefix + ".groups"));
    }
  }
  return report;
}

Result<TdacReport> Tdac::RunPass(const DatasetLike& data,
                                 RestrictionCache* cache,
                                 const Predictions* reference,
                                 const RunGuard& guard, int round) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument(name_ + ": empty dataset");
  }
  // The pass's width: the reference run's blocks use it, and each group
  // run inherits the width of the groups loop.
  const RunWidthScope width(options_.threads);
  // The axis decides only what is clustered (attributes or objects), their
  // truth vectors, and how a group restricts the data; the rest of the pass
  // is the same code for TD-AC and TD-OC.
  const bool by_attribute = axis_ == PartitionAxis::kAttributes;
  TdacReport report;
  const std::vector<int32_t> items =
      by_attribute ? data.ActiveAttributes() : data.ActiveObjects();
  const int num_items = static_cast<int>(items.size());
  auto restrict_to = [&](const std::vector<int32_t>& group) {
    return by_attribute ? cache->Attributes(group) : cache->Objects(group);
  };

  // Checkpoint identity: slot names carry the refinement round; the context
  // line binds every snapshot to this exact run (algorithm + dataset
  // fingerprint + the options that shape results), so stale slots from a
  // different run are ignored rather than resumed.
  Checkpointer* ckpt = options_.checkpointer;
  const bool ckpt_on = ckpt != nullptr && ckpt->enabled();
  const std::string slot_prefix =
      options_.checkpoint_prefix + ".r" + std::to_string(round);
  std::string ctx;
  if (ckpt_on) {
    std::ostringstream ctx_out;
    ctx_out << name_ << " fp=" << std::hex << DatasetFingerprint(data)
            << std::dec << " round=" << round
            << " backend=" << static_cast<int>(options_.backend)
            << " sparse=" << (options_.sparse_aware ? 1 : 0)
            << " min_k=" << options_.min_k << " max_k=" << options_.max_k
            << " seed=" << options_.kmeans.seed;
    ctx = ctx_out.str();
  }

  // Step (ii)'s reference run on the whole dataset, once we own one.
  TruthDiscoveryResult reference_result;
  bool have_reference_result = false;
  // Degraded fallback shared below: the base result on the whole dataset
  // when we own one, else a fresh (guarded) base run. A `stop` the guard
  // tripped labels it: the reference run is then the best-so-far answer.
  auto fall_back = [&](std::optional<StopReason> stop) -> Status {
    if (have_reference_result) {
      report.result = std::move(reference_result);
      have_reference_result = false;
    } else {
      Result<TruthDiscoveryResult> run = options_.base->Discover(data, guard);
      TDAC_RETURN_NOT_OK(run.status());
      report.result = std::move(run).value();
    }
    report.partition = AttributePartition::Single(items);
    report.chosen_k = 1;
    report.fell_back_to_base = true;
    report.result.iterations = 1;
    if (stop) {
      report.result.stop_reason =
          CombineStopReasons(report.result.stop_reason, *stop);
      report.result.converged = false;
    }
    return Status::OK();
  };

  // The paper's sweep k in [2, |A| - 1] is empty for |A| < 3: degrade to
  // the base algorithm on the unpartitioned dataset.
  if (num_items < 3) {
    TDAC_RETURN_NOT_OK(fall_back(std::nullopt));
    return report;
  }

  // Step (ii): reference truth + truth vectors. When no external reference
  // is supplied, the base runs once here and its result is kept: it feeds
  // the truth vectors (exactly what BuildTruthVectors(base, data) computed
  // internally), the fallback paths, and the fill-in for groups a tripped
  // guard skipped.
  if (reference == nullptr) {
    const std::string ref_slot = slot_prefix + ".reference";
    if (ckpt_on) {
      TDAC_ASSIGN_OR_RETURN(std::optional<std::string> stored,
                            ckpt->LoadForResume(ref_slot, ctx));
      if (stored) {
        Result<TruthDiscoveryResult> parsed =
            DeserializeTruthDiscoveryResult(*stored, data);
        if (parsed.ok()) {
          reference_result = parsed.MoveValue();
          have_reference_result = true;
        } else {
          TDAC_LOG_WARNING << name_ << ": reference checkpoint payload "
                           << "unusable (" << parsed.status().message()
                           << "); recomputing";
        }
      }
    }
    if (!have_reference_result) {
      TDAC_ASSIGN_OR_RETURN(reference_result,
                            options_.base->Discover(data, guard));
      have_reference_result = true;
      // Persist clean state only: a reference cut short by the guard is
      // recomputed on resume, never resumed from.
      if (ckpt_on && !reference_result.degraded()) {
        TDAC_RETURN_NOT_OK(ckpt->StoreNow(
            ref_slot, ctx,
            SerializeTruthDiscoveryResult(reference_result, data)));
      }
    }
  }
  std::vector<FeatureVector> vectors;
  std::vector<std::vector<uint8_t>> masks;
  FillTruthVectors(data,
                   reference != nullptr ? *reference
                                        : reference_result.predicted,
                   axis_, items, &vectors, &masks);

  if (auto stop = guard.ShouldStop()) {
    // Tripped before clustering even started.
    TDAC_RETURN_NOT_OK(fall_back(stop));
    return report;
  }

  ParallelForOptions par;
  par.max_parallelism = CurrentRunWidth();
  par.guard = &guard;

  // The one distance matrix of the pass: the silhouette at every k and the
  // dendrogram read it. Each cell is the silhouette metric (or the masked
  // Hamming distance in sparse-aware mode) of a pair of truth vectors. Row
  // i owns the cells (i, j>i) and their mirrors (j, i), which are disjoint
  // across rows, so the rows parallelize without synchronization.
  const size_t n = vectors.size();
  std::vector<std::vector<double>> distances(n, std::vector<double>(n, 0.0));
  ParallelFor(
      n,
      [&](size_t i) {
        for (size_t j = i + 1; j < n; ++j) {
          const double d =
              options_.sparse_aware
                  ? MaskedHammingDistance(vectors[i], vectors[j], masks[i],
                                          masks[j])
                  : Distance(options_.silhouette_metric, vectors[i],
                             vectors[j]);
          distances[i][j] = d;
          distances[j][i] = d;
        }
      },
      par);
  if (auto stop = guard.ShouldStop()) {
    // Rows skipped by the tripped guard leave the matrix unusable.
    TDAC_RETURN_NOT_OK(fall_back(stop));
    return report;
  }
  // The silhouette at every k scores this one matrix, so it is checked
  // once here rather than at every k. A matrix that fails the check would
  // fail every k's silhouette: fall back.
  if (!CheckDistanceMatrix(distances).ok()) {
    TDAC_RETURN_NOT_OK(fall_back(std::nullopt));
    return report;
  }

  // Step (iii): sweep k with the clustering backend, keep the best
  // silhouette.
  const int lo = std::max(2, options_.min_k);
  const int hi = options_.max_k > 0 ? std::min(options_.max_k, num_items - 1)
                                    : num_items - 1;

  // The agglomerative backend builds its merge tree once for all k.
  std::unique_ptr<Dendrogram> dendrogram;
  if (options_.backend == ClusteringBackend::kAgglomerative) {
    AgglomerativeOptions aopts;
    aopts.linkage = options_.linkage;
    Result<Dendrogram> built =
        AgglomerativeClusterFromDistances(distances, aopts);
    if (built.ok()) {
      dendrogram = std::make_unique<Dendrogram>(std::move(built).value());
    }
  }

  // Sweep and groups share one batch-and-snapshot loop over tasks
  // [done, total): run(i) fills task i's slot, check(i) is its status once
  // its batch ended clean, and write/read encode and restore its record. A
  // phase's payload is its count of finished tasks and then their records,
  // so a resume restores that prefix and runs the rest. Checkpointing splits
  // the phase into batches so there are serial points to snapshot at;
  // without it the phase is one batch — exactly the pre-checkpoint
  // execution. Only batches whose guard was still clean at the batch
  // boundary are persisted; a batch the guard tripped inside is recomputed
  // on resume, so resumed and uninterrupted runs agree bit for bit.
  auto run_phase = [&](const std::string& phase, const std::string& phase_ctx,
                       size_t total, auto run, auto check, auto write,
                       auto read) -> Status {
    const std::string slot = slot_prefix + "." + phase;
    const size_t batch =
        ckpt_on ? 4 * static_cast<size_t>(std::max(1, par.max_parallelism))
                : total;
    size_t done = 0;
    if (ckpt_on) {
      TDAC_ASSIGN_OR_RETURN(std::optional<std::string> stored,
                            ckpt->LoadForResume(slot, phase_ctx));
      if (stored) {
        PayloadReader in(*stored);
        const size_t n = in.Count();
        Status parsed = n > total ? Status::InvalidArgument("too many records")
                                  : Status::OK();
        for (size_t i = 0; i < n && parsed.ok(); ++i) parsed = read(in, i);
        if (parsed.ok()) parsed = in.Finish();
        if (parsed.ok()) {
          done = n;
        } else {
          TDAC_LOG_WARNING << name_ << ": " << phase
                           << " checkpoint payload unusable ("
                           << parsed.message() << "); recomputing it";
        }
      }
    }
    const auto payload = [&] {
      PayloadWriter out;
      (out << done).End();
      for (size_t i = 0; i < done; ++i) write(out, i);
      return out.Take();
    };
    std::optional<StopReason> trip;
    while (done < total) {
      const size_t begin = done;
      const size_t count = std::min(batch, total - begin);
      ParallelFor(count, [&](size_t i) { run(begin + i); }, par);
      trip = guard.ShouldStop();
      if (trip) break;
      for (size_t i = begin; i < begin + count; ++i) {
        TDAC_RETURN_NOT_OK(check(i));
      }
      done = begin + count;
      if (ckpt_on) {
        TDAC_RETURN_NOT_OK(ckpt->MaybeStore(slot, phase_ctx, payload));
      }
    }
    if (ckpt_on && trip) {
      // Final checkpoint on a Deadline/Cancelled stop: the clean prefix of
      // the phase, so --resume picks up right here.
      TDAC_RETURN_NOT_OK(ckpt->StoreNow(slot, phase_ctx, payload()));
    }
    return Status::OK();
  };

  // Each candidate k's clustering + silhouette run is independent of every
  // other k (k-means re-seeds per call from options, the dendrogram cut is
  // read-only), so the sweep fans out over the pool. Per-k outcomes land
  // in a slot vector indexed by k and are reduced serially in ascending-k
  // order below — the exact tie-breaking of the serial loop, bit for bit.
  const size_t sweep_size =
      hi >= lo && !(options_.backend == ClusteringBackend::kAgglomerative &&
                    dendrogram == nullptr)
          ? static_cast<size_t>(hi - lo + 1)
          : 0;
  std::vector<SweepOutcome> outcomes(sweep_size);
  auto run_sweep_k = [&](size_t idx) {
    const int k = lo + static_cast<int>(idx);
    SweepOutcome& out = outcomes[idx];
    out = SweepOutcome{};
    std::vector<int> assignment;
    if (options_.backend == ClusteringBackend::kAgglomerative) {
      auto cut = dendrogram->CutToK(k);
      if (!cut.ok()) return;
      assignment = std::move(cut).value();
    } else {
      KMeansOptions kopts = options_.kmeans;
      kopts.k = k;
      auto kmeans_result = KMeans(vectors, kopts);
      if (!kmeans_result.ok()) return;
      out.kmeans_converged = kmeans_result.value().converged;
      assignment = std::move(kmeans_result.value().assignment);
    }
    int effective_k = CompactLabels(&assignment, k);
    if (effective_k < 2) return;
    Result<SilhouetteResult> sil =
        SilhouetteFromCheckedDistances(distances, assignment, effective_k);
    if (!sil.ok()) return;
    out.assignment = std::move(assignment);
    out.effective_k = effective_k;
    out.score = sil.value().partition_score;
    out.ok = true;
  };
  TDAC_RETURN_NOT_OK(run_phase(
      "sweep",
      ctx + " phase=sweep lo=" + std::to_string(lo) +
          " hi=" + std::to_string(hi),
      sweep_size, run_sweep_k, [](size_t) { return Status::OK(); },
      [&](PayloadWriter& out, size_t i) {
        const SweepOutcome& o = outcomes[i];
        out << o.ok << o.kmeans_converged << o.effective_k << o.score
            << o.assignment.size();
        for (int a : o.assignment) out << a;
        out.End();
      },
      [&](PayloadReader& in, size_t i) {
        SweepOutcome o;
        in >> o.ok >> o.kmeans_converged >> o.effective_k >> o.score;
        o.assignment.resize(in.Count());
        for (int& a : o.assignment) in >> a;
        // A restored winner must still label every item.
        if (in.ok() && o.ok && (o.assignment.size() != items.size() ||
                                std::ranges::min(o.assignment) < 0)) {
          return Status::InvalidArgument("assignment does not fit the items");
        }
        if (in.ok()) outcomes[i] = std::move(o);
        return Status::OK();
      }));

  bool have_best = false;
  std::vector<int> best_assignment;
  int best_k = 0;
  for (size_t idx = 0; idx < outcomes.size(); ++idx) {
    SweepOutcome& out = outcomes[idx];
    if (!out.kmeans_converged) ++report.sweep_kmeans_non_converged;
    if (!out.ok) continue;
    report.silhouette_by_k.emplace_back(lo + static_cast<int>(idx), out.score);
    if (!have_best || out.score > report.silhouette) {
      have_best = true;
      report.silhouette = out.score;
      best_assignment = std::move(out.assignment);
      best_k = out.effective_k;
    }
  }
  if (report.sweep_kmeans_non_converged > 0) {
    TDAC_LOG_WARNING << name_ << ": k-means hit max_iterations without "
                     << "converging for " << report.sweep_kmeans_non_converged
                     << " of " << outcomes.size()
                     << " sweep candidates (raise kmeans.max_iterations?)";
  }

  if (!have_best) {
    // Every k failed (all truth vectors identical, or the guard tripped
    // before any candidate finished): fall back.
    TDAC_RETURN_NOT_OK(fall_back(guard.ShouldStop()));
    return report;
  }

  TDAC_ASSIGN_OR_RETURN(report.partition, AttributePartition::FromAssignment(
                                              items, best_assignment));
  report.chosen_k = best_k;

  // Step (iv): run the base algorithm per group and aggregate.
  const auto& groups = report.partition.groups();
  std::vector<Result<TruthDiscoveryResult>> partials;
  partials.reserve(groups.size());

  // Each group is restricted exactly once, to a zero-copy view served by
  // the shared cache; the same view instance feeds both the base run here
  // and the trust-weighting merge below.
  std::vector<std::shared_ptr<const DatasetView>> views(groups.size());
  auto run_group = [&](size_t g) -> Result<TruthDiscoveryResult> {
    views[g] = restrict_to(groups[g]);
    const DatasetView& restricted = *views[g];
    if (restricted.num_claims() == 0) {
      return TruthDiscoveryResult{};
    }
    return options_.base->Discover(restricted, guard);
  };

  // Groups are disjoint item sets, so the base runs are independent;
  // partials are merged serially in group order below, which keeps the
  // aggregate bit-identical at every thread count.
  for (size_t g = 0; g < groups.size(); ++g) {
    partials.emplace_back(TruthDiscoveryResult{});
  }

  // The groups checkpoint is bound to the chosen partition: if a resume
  // lands on a different partition (e.g. after an option change) the slot
  // is ignored and every group recomputes. Each record is one group's
  // result as a single token.
  TDAC_RETURN_NOT_OK(run_phase(
      "groups", ctx + " phase=groups partition=" + report.partition.ToString(),
      groups.size(), [&](size_t g) { partials[g] = run_group(g); },
      [&](size_t g) { return partials[g].status(); },
      [&](PayloadWriter& out, size_t g) {
        (out << SerializeTruthDiscoveryResult(partials[g].value(), data))
            .End();
      },
      [&](PayloadReader& in, size_t g) -> Status {
        std::string result;
        if (!(in >> result).ok()) return Status::OK();  // Finish() reports it
        TDAC_ASSIGN_OR_RETURN(partials[g],
                              DeserializeTruthDiscoveryResult(result, data));
        // Restored groups still serve the trust merge below from their
        // (cached, zero-copy) views.
        views[g] = restrict_to(groups[g]);
        return Status::OK();
      }));

  // Each group's trust counts by the source's claims in the group, read
  // off the view the group ran on. A group without trust did not run (or
  // had no claims) and counts for nothing.
  std::vector<std::vector<size_t>> claims(groups.size());
  std::vector<GroupRunPart> parts(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    TDAC_RETURN_NOT_OK(partials[g].status());
    const TruthDiscoveryResult& partial = partials[g].value();
    if (!partial.source_trust.empty()) claims[g] = ClaimsPerSource(*views[g]);
    parts[g] = {&partial.predicted, &partial.source_trust, &claims[g]};
  }
  TruthDiscoveryResult& merged = report.result;
  merged = MergeGroupRuns(parts, static_cast<size_t>(data.num_sources()));
  merged.iterations = 1;  // TD-AC runs a single outer pass (paper Table 4)
  merged.converged = true;
  for (const Result<TruthDiscoveryResult>& partial : partials) {
    merged.converged = merged.converged && partial->converged;
    if (!partial->predicted.empty()) {
      merged.stop_reason =
          CombineStopReasons(merged.stop_reason, partial->stop_reason);
    }
  }

  if (auto stop = guard.ShouldStop()) {
    // Groups the tripped guard skipped contributed nothing; fill their
    // items from the reference truth so the degraded result still covers
    // the whole dataset. The merged predictions win where both predict.
    const Predictions* fill = have_reference_result
                                  ? &reference_result.predicted
                                  : reference;
    if (fill != nullptr) {
      const Predictions* layers[] = {fill, &merged.predicted};
      merged.predicted = MergePredictions(layers);
    }
    merged.stop_reason = CombineStopReasons(merged.stop_reason, *stop);
    merged.converged = false;
  }
  return report;
}

}  // namespace tdac
