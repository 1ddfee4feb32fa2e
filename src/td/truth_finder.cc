#include "td/truth_finder.h"

#include <cmath>

#include "common/math_util.h"

namespace tdac {

Result<TruthDiscoveryResult> TruthFinder::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("TruthFinder: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const std::vector<double>& claim_counts = store.claim_counts;
  const size_t num_sources = claim_counts.size();

  // The implication of each value pair of an item:
  // imp(w -> v) = sim(w, v) - base_similarity.
  const bool implied = options_.implication_weight > 0.0;
  td_internal::PairTable implication;
  if (implied) {
    implication = td_internal::BuildPairTable(
        store, /*symmetric=*/true, [this](const Value& a, const Value& b) {
          return options_.similarity->Similarity(a, b) -
                 options_.base_similarity;
        });
  }

  std::vector<double> trust(num_sources, options_.initial_trust);
  std::vector<double> tau(num_sources);
  std::vector<double> new_trust(num_sources);
  // Confidence score sigma(v) and confidence s(v) of each slot's value.
  std::vector<double> sigma(store.num_slots());
  std::vector<double> conf(store.num_slots());

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    // tau(s) = -ln(1 - t(s)), with trust clamped away from 1.
    for (size_t s = 0; s < num_sources; ++s) {
      tau[s] = -std::log(Clamp(1.0 - trust[s], 1e-9, 1.0));
    }

    // Value confidence scores.
    td_internal::SlotSums(store, tau, sigma);
    td_internal::ForEachItemBlock(store, [&](size_t b) {
      for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
           ++it) {
        const size_t first = store.first_slot(it);
        const size_t n = store.end_slot(it) - first;
        for (size_t v = 0; v < n; ++v) {
          double adjusted = sigma[first + v];
          if (implied) {
            const double* imp = implication.Block(it);
            double extra = 0.0;
            for (size_t w = 0; w < n; ++w) {
              if (w == v) continue;
              extra += imp[w * n + v] * sigma[first + w];
            }
            adjusted = sigma[first + v] + options_.implication_weight * extra;
          }
          conf[first + v] = Logistic(options_.dampening * adjusted);
        }
      }
    });

    // New trust: mean confidence of the values each source claims.
    td_internal::SourceSums(store, conf, new_trust);
    for (size_t s = 0; s < num_sources; ++s) {
      new_trust[s] =
          claim_counts[s] > 0
              ? Clamp(new_trust[s] / claim_counts[s], 1e-6, 1.0 - 1e-6)
              : trust[s];
    }

    // Non-finite: keep the last finite iterate (conf still matches `trust`).
    if (!AllFinite(new_trust)) return td_internal::Step::kNonFinite;
    const double change = 1.0 - CosineSimilarity(trust, new_trust);
    trust.swap(new_trust);
    return td_internal::SettledIf(change <
                                  options_.base.convergence_threshold);
  });

  td_internal::RecordElection(store, conf, result,
                              [&](size_t, size_t slot) { return conf[slot]; });
  result.source_trust = std::move(trust);
  return result;
}

}  // namespace tdac
