#include "td/majority_vote.h"

namespace tdac {

Result<TruthDiscoveryResult> MajorityVote::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& /*guard*/) const {
  // Single-pass: no loop boundary at which a guard could usefully trip.
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("MajorityVote: empty dataset");
  }
  TruthDiscoveryResult result;
  result.iterations = 1;
  result.converged = true;
  result.source_trust.assign(static_cast<size_t>(data.num_sources()), 0.0);

  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  std::vector<double> votes(store.num_slots());
  for (size_t v = 0; v < votes.size(); ++v) {
    votes[v] = static_cast<double>(store.SupportersOf(v).size());
  }
  td_internal::StartPredictions(store, result);
  for (size_t it = 0; it < store.num_items(); ++it) {
    const size_t best = td_internal::ElectSlot(store, it, votes);
    td_internal::RecordPrediction(
        store, it, best, td_internal::ScoreShare(store, it, best, votes),
        result);
    // Post-hoc source trust: agreement rate with the elected values. The
    // elected slot's supporters are exactly the claims that agree.
    for (SourceId s : store.SupportersOf(best)) {
      result.source_trust[static_cast<size_t>(s)] += 1.0;
    }
  }
  for (size_t s = 0; s < result.source_trust.size(); ++s) {
    if (store.claim_counts[s] > 0) {
      result.source_trust[s] /= store.claim_counts[s];
    }
  }
  return result;
}

}  // namespace tdac
