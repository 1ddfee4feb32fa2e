#include "td/crh.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace tdac {

Result<TruthDiscoveryResult> Crh::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("CRH: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const std::vector<double>& claim_counts = store.claim_counts;
  const size_t num_sources = claim_counts.size();

  std::vector<double> weight(num_sources, 1.0);
  std::vector<size_t> selected(store.num_items(), 0);
  std::vector<double> votes(store.num_slots());
  std::vector<double> loss(num_sources);
  std::vector<double> prev_loss(num_sources, 1.0);

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    // Truth step: weighted vote per item.
    td_internal::SlotSums(store, weight, votes);
    td_internal::ForEachItemBlock(store, [&](size_t b) {
      for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
           ++it) {
        selected[it] = td_internal::ElectSlot(store, it, votes);
      }
    });

    // Weight step: 0/1 loss against the current election.
    std::fill(loss.begin(), loss.end(), 0.0);
    for (size_t it = 0; it < store.num_items(); ++it) {
      for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
        if (v == selected[it]) continue;
        for (SourceId s : store.SupportersOf(v)) {
          loss[static_cast<size_t>(s)] += 1.0;
        }
      }
    }
    double total_loss = 0.0;
    for (size_t s = 0; s < num_sources; ++s) {
      loss[s] = claim_counts[s] > 0.0 ? loss[s] / claim_counts[s] : 1.0;
      total_loss += loss[s];
    }
    if (total_loss <= 0.0) {
      // Every source agrees with the election (zero loss across the
      // board): the -log(loss / total) weight is undefined, and with a
      // zero loss_floor it used to blow up to -log(0). Uniform weights
      // elect the same truths (the vote is scale-invariant).
      std::fill(weight.begin(), weight.end(), 1.0);
    } else {
      for (size_t s = 0; s < num_sources; ++s) {
        double normalized =
            std::max(loss[s] / total_loss, options_.loss_floor);
        weight[s] = -std::log(normalized);
      }
    }

    // Non-finite: keep the last finite loss; the election matches it.
    if (!AllFinite(weight)) return td_internal::Step::kNonFinite;
    const double change = td_internal::MeanAbsDelta(prev_loss, loss);
    prev_loss.swap(loss);
    return td_internal::SettledIf(change <
                                  options_.base.convergence_threshold);
  });

  td_internal::ReservePredictions(store, result);
  for (size_t it = 0; it < store.num_items(); ++it) {
    td_internal::RecordPrediction(
        store, it, selected[it],
        td_internal::ScoreShare(store, it, selected[it], votes), result);
  }
  result.source_trust.assign(num_sources, 0.0);
  for (size_t s = 0; s < num_sources; ++s) {
    result.source_trust[s] = Clamp(1.0 - prev_loss[s], 0.0, 1.0);
  }
  return result;
}

}  // namespace tdac
