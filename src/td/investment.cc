#include "td/investment.h"

#include <algorithm>
#include <cmath>

namespace tdac {

void Investment::BeliefsFromInvestments(std::span<const double> collected,
                                        std::span<double> beliefs) const {
  for (size_t v = 0; v < collected.size(); ++v) {
    beliefs[v] = std::pow(collected[v], options_.exponent);
  }
}

void PooledInvestment::BeliefsFromInvestments(
    std::span<const double> collected, std::span<double> beliefs) const {
  // Grow into `beliefs`, then rescale in place so the item's total belief
  // equals its total investment.
  double total_collected = 0.0;
  double total_grown = 0.0;
  for (size_t v = 0; v < collected.size(); ++v) {
    beliefs[v] = std::pow(collected[v], options_.exponent);
    total_collected += collected[v];
    total_grown += beliefs[v];
  }
  for (double& belief : beliefs) {
    belief = total_grown > 0.0 ? total_collected * belief / total_grown : 0.0;
  }
}

Result<TruthDiscoveryResult> Investment::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("Investment: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const std::vector<double>& claim_counts = store.claim_counts;
  const size_t num_sources = claim_counts.size();

  std::vector<double> trust(num_sources, 1.0);
  std::vector<double> invest(num_sources);
  std::vector<double> new_trust(num_sources);
  std::vector<double> collected(store.num_slots());
  std::vector<double> belief(store.num_slots());

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    // Per-source investment per claim.
    for (size_t s = 0; s < num_sources; ++s) {
      invest[s] = claim_counts[s] > 0.0 ? trust[s] / claim_counts[s] : 0.0;
    }

    // Collected investment and beliefs per item.
    td_internal::SlotSums(store, invest, collected);
    td_internal::ForEachItemBlock(store, [&](size_t b) {
      for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
           ++it) {
        const size_t first = store.first_slot(it);
        const size_t n = store.end_slot(it) - first;
        BeliefsFromInvestments({collected.data() + first, n},
                               {belief.data() + first, n});
      }
    });

    // Pay back investors proportionally to their share: each source sums
    // its slots in ascending order, as a scatter over the slots would.
    ParallelFor(
        num_sources,
        [&](size_t s) {
          double paid = 0.0;
          for (uint32_t v : store.SlotsOf(s)) {
            if (collected[v] <= 0.0) continue;
            paid += belief[v] * invest[s] / collected[v];
          }
          new_trust[s] = paid;
        },
        td_internal::StoreLoopOptions(store));
    td_internal::MaxNormalize(new_trust);

    // The growth exponent can overflow pow(); keep the last finite trust.
    if (!AllFinite(new_trust) || !AllFinite(belief)) {
      return td_internal::Step::kNonFinite;
    }
    const double delta = td_internal::MeanAbsDelta(trust, new_trust);
    trust.swap(new_trust);
    return td_internal::SettledIf(delta <
                                  options_.base.convergence_threshold);
  });

  td_internal::RecordElection(
      store, belief, result, [&](size_t item, size_t slot) {
        return td_internal::ScoreShare(store, item, slot, belief);
      });
  result.source_trust = std::move(trust);
  return result;
}

}  // namespace tdac
