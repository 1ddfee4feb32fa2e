#include "td/accu.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math_util.h"

namespace tdac {

namespace {

/// ln(n * A / (1 - A)): the vote-count weight of a source with accuracy A
/// in a domain with n false values.
double VoteWeight(double accuracy, double n_false) {
  double a = Clamp(accuracy, 1e-3, 1.0 - 1e-3);
  return std::log(n_false * a / (1.0 - a));
}

}  // namespace

Result<TruthDiscoveryResult> Accu::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("Accu: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const std::vector<double>& claim_counts = store.claim_counts;
  const size_t num_sources = claim_counts.size();
  const double n_false = std::max(1, options_.copy.n_false_values);

  std::vector<double> accuracy(
      num_sources, options_.per_source_accuracy
                       ? options_.base.initial_trust
                       : 1.0 - options_.uniform_error_rate);

  // Vote count C(v) of each slot; it starts as the supporter count for the
  // initial election, a majority vote per item.
  std::vector<double> vote(store.num_slots());
  std::vector<size_t> selected(store.num_items());
  td_internal::ForEachItemBlock(store, [&](size_t b) {
    for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
         ++it) {
      for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
        vote[v] = static_cast<double>(store.SupportersOf(v).size());
      }
      selected[it] = td_internal::ElectSlot(store, it, vote);
    }
  });

  // AccuSim: sim(w, v) for each value pair of an item.
  const bool similar = options_.similarity_weight > 0.0;
  td_internal::PairTable similarity;
  if (similar) {
    similarity = td_internal::BuildPairTable(
        store, /*symmetric=*/false, [this](const Value& w, const Value& v) {
          return options_.similarity->Similarity(w, v);
        });
  }

  // Which source pairs agree or differ on an item does not change between
  // iterations; only the split of the agreements by the election does.
  CoClaimCounts co_claims;
  if (options_.detect_copying) co_claims = CountCoClaims(store, num_sources);

  // Probability of each slot's value (filled each iteration).
  std::vector<double> probs(store.num_slots());
  // Per iteration: each source's vote weight and its rank by descending
  // accuracy (ties by id), and per item block whether an election changed.
  std::vector<double> weight(num_sources);
  std::vector<SourceId> by_accuracy(num_sources);
  std::vector<uint32_t> rank(num_sources);
  std::vector<uint8_t> block_changed(store.num_blocks());
  std::vector<double> new_accuracy(num_sources);

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    DependenceMatrix dependence(0);
    if (options_.detect_copying) {
      dependence =
          DetectCopying(store, co_claims, selected, accuracy, options_.copy);
    }

    for (size_t s = 0; s < num_sources; ++s) {
      weight[s] = VoteWeight(accuracy[s], n_false);
      by_accuracy[s] = static_cast<SourceId>(s);
    }
    std::sort(by_accuracy.begin(), by_accuracy.end(),
              [&](SourceId a, SourceId b) {
                const double aa = accuracy[static_cast<size_t>(a)];
                const double ab = accuracy[static_cast<size_t>(b)];
                if (aa != ab) return aa > ab;
                return a < b;
              });
    for (size_t r = 0; r < num_sources; ++r) {
      rank[static_cast<size_t>(by_accuracy[r])] = static_cast<uint32_t>(r);
    }

    // Items depend only on this iteration's weights, ranks and dependence
    // matrix, so blocks run concurrently. Each block allocates its own
    // scratch (one slot's supporters in rank order, one item's unadjusted
    // votes) on the thread that runs it, so blocks share no cache lines.
    td_internal::ForEachItemBlock(store, [&](size_t b) {
      std::vector<SourceId> order;
      std::vector<double> unadjusted;
      bool changed = false;
      for (size_t it = store.item_blocks[b]; it < store.item_blocks[b + 1];
           ++it) {
        const size_t first = store.first_slot(it);
        const size_t end = store.end_slot(it);
        for (size_t v = first; v < end; ++v) {
          // Count higher-accuracy sources first; each later source is
          // discounted by its probability of copying an earlier one.
          const std::span<const SourceId> supporters = store.SupportersOf(v);
          order.assign(supporters.begin(), supporters.end());
          std::sort(order.begin(), order.end(), [&](SourceId a, SourceId c) {
            return rank[static_cast<size_t>(a)] < rank[static_cast<size_t>(c)];
          });
          vote[v] = 0.0;
          for (size_t i = 0; i < order.size(); ++i) {
            double independence = 1.0;
            if (options_.detect_copying) {
              for (size_t j = 0; j < i; ++j) {
                independence *= 1.0 - options_.copy.copy_rate *
                                          dependence.prob(order[i], order[j]);
              }
            }
            vote[v] += weight[static_cast<size_t>(order[i])] * independence;
          }
        }

        const size_t n = end - first;
        if (similar && n > 1) {
          // C*(v) = C(v) + rho * sum_{w != v} sim(w, v) C(w).
          unadjusted.assign(vote.begin() + first, vote.begin() + end);
          const double* sim = similarity.Block(it);
          for (size_t v = 0; v < n; ++v) {
            double extra = 0.0;
            for (size_t w = 0; w < n; ++w) {
              if (w == v) continue;
              extra += sim[w * n + v] * unadjusted[w];
            }
            vote[first + v] =
                unadjusted[v] + options_.similarity_weight * extra;
          }
        }

        // P(v) = exp(C(v)) / (sum over observed + unclaimed candidates).
        // Stable log-sum-exp with the unclaimed candidates carrying C = 0.
        double unclaimed =
            options_.include_unclaimed_mass
                ? std::max(0.0, n_false + 1.0 - static_cast<double>(n))
                : 0.0;
        double mx =
            *std::max_element(vote.begin() + first, vote.begin() + end);
        if (unclaimed > 0.0) mx = std::max(mx, 0.0);
        double denom = unclaimed * std::exp(-mx);
        for (size_t v = first; v < end; ++v) {
          probs[v] = std::exp(vote[v] - mx);
          denom += probs[v];
        }
        for (size_t v = first; v < end; ++v) probs[v] /= denom;

        const size_t best = td_internal::ElectSlot(store, it, vote);
        if (best != selected[it]) changed = true;
        selected[it] = best;
      }
      block_changed[b] = changed ? 1 : 0;
    });
    const bool selection_changed =
        std::find(block_changed.begin(), block_changed.end(), 1) !=
        block_changed.end();

    // Non-finite: keep the accuracies; probs is re-derived from them on the
    // next run.
    if (!AllFinite(probs)) return td_internal::Step::kNonFinite;
    if (!options_.per_source_accuracy) {
      // Fixed accuracy (DEPEN): stop when the election stabilizes.
      return td_internal::SettledIf(!selection_changed);
    }
    td_internal::SourceSums(store, probs, new_accuracy);
    for (size_t s = 0; s < num_sources; ++s) {
      new_accuracy[s] =
          claim_counts[s] > 0
              ? Clamp(new_accuracy[s] / claim_counts[s], 1e-3, 1.0 - 1e-3)
              : accuracy[s];
    }
    const double delta = td_internal::MeanAbsDelta(accuracy, new_accuracy);
    accuracy.swap(new_accuracy);
    return td_internal::SettledIf(delta <
                                  options_.base.convergence_threshold);
  });

  td_internal::StartPredictions(store, result);
  for (size_t it = 0; it < store.num_items(); ++it) {
    td_internal::RecordPrediction(store, it, selected[it],
                                  probs[selected[it]], result);
  }
  result.source_trust = std::move(accuracy);
  return result;
}

}  // namespace tdac
