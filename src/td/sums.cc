#include "td/sums.h"

#include <cmath>

namespace tdac {

double AverageLog::TrustFromBeliefs(double belief_sum,
                                    double claim_count) const {
  if (claim_count == 0) return 0.0;
  return std::log(1.0 + claim_count) * belief_sum / claim_count;
}

Result<TruthDiscoveryResult> Sums::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("Sums: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const size_t num_sources = store.claim_counts.size();

  std::vector<double> trust(num_sources, 1.0);
  std::vector<double> belief(store.num_slots());
  std::vector<double> new_trust(num_sources);

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    // Belief step: B(v) = sum of supporter trust, max-normalized globally.
    td_internal::SlotSums(store, trust, belief);
    td_internal::MaxNormalize(belief);

    // Trust step.
    td_internal::SourceSums(store, belief, new_trust);
    for (size_t s = 0; s < num_sources; ++s) {
      new_trust[s] = TrustFromBeliefs(new_trust[s], store.claim_counts[s]);
    }
    td_internal::MaxNormalize(new_trust);

    // Non-finite: keep the last finite trust (belief matches it).
    if (!AllFinite(new_trust)) return td_internal::Step::kNonFinite;
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
