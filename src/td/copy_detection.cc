#include "td/copy_detection.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/parallel.h"

namespace tdac {

namespace {

/// Heap the extra per-range count matrices of one phase may take.
constexpr size_t kCountRangeBytes = size_t{64} << 20;

/// Item ranges for the phases that keep S x S integer counts: runs of
/// whole item blocks, at most two per thread of the run width and no more
/// than kCountRangeBytes of matrices, so there are few to allocate and
/// sum. Range r is items [cuts[r], cuts[r + 1]).
std::vector<uint32_t> CountRanges(const td_internal::ConflictStore& store,
                                  size_t num_sources) {
  const size_t blocks = store.num_blocks();
  const size_t matrix_bytes =
      std::max<size_t>(1, num_sources * num_sources * sizeof(int));
  const size_t ranges = std::max<size_t>(
      1, std::min({blocks, 2 * static_cast<size_t>(CurrentRunWidth()),
                   kCountRangeBytes / matrix_bytes}));
  std::vector<uint32_t> cuts(ranges + 1);
  for (size_t r = 0; r <= ranges; ++r) {
    cuts[r] = store.item_blocks[r * blocks / ranges];
  }
  return cuts;
}

/// Adds every range's counts into range 0's: integer sums, exact in any
/// order.
void SumInto(std::vector<std::vector<int>>& parts) {
  for (size_t r = 1; r < parts.size(); ++r) {
    for (size_t cell = 0; cell < parts[0].size(); ++cell) {
      parts[0][cell] += parts[r][cell];
    }
  }
}

}  // namespace

CoClaimCounts CountCoClaims(const td_internal::ConflictStore& store,
                            size_t num_sources) {
  // Every source pair on every item. The counts live in dense S*S
  // matrices: a hash map here cost a hash + probe per increment and
  // dominated whole benchmark profiles while this loop ran every Accu
  // iteration. S is bounded by the real datasets (hundreds), so the
  // matrices stay small. One flat int array per count kind
  // (structure-of-arrays): each inner loop touches exactly one kind.
  // Each item range counts into its own pair of matrices.
  const std::vector<uint32_t> cuts = CountRanges(store, num_sources);
  const size_t ranges = cuts.size() - 1;
  std::vector<std::vector<int>> same(ranges);
  std::vector<std::vector<int>> different(ranges);
  ParallelFor(ranges, [&](size_t r) {
    same[r].assign(num_sources * num_sources, 0);
    different[r].assign(num_sources * num_sources, 0);
    std::vector<int>& same_r = same[r];
    std::vector<int>& different_r = different[r];
    for (size_t it = cuts[r]; it < cuts[r + 1]; ++it) {
      const size_t end = store.end_slot(it);
      // Sources sharing a value agree; sources with different values
      // differ.
      for (size_t v = store.first_slot(it); v < end; ++v) {
        const std::span<const SourceId> sup = store.SupportersOf(v);
        // Supporters are ascending, so sup[i] < sup[j] for i < j and the
        // upper-triangle cell needs no operand swap.
        for (size_t i = 0; i < sup.size(); ++i) {
          const size_t base = static_cast<size_t>(sup[i]) * num_sources;
          for (size_t j = i + 1; j < sup.size(); ++j) {
            ++same_r[base + static_cast<size_t>(sup[j])];
          }
        }
        for (size_t w = v + 1; w < end; ++w) {
          for (SourceId si : sup) {
            for (SourceId sj : store.SupportersOf(w)) {
              const SourceId lo = si < sj ? si : sj;
              const SourceId hi = si < sj ? sj : si;
              ++different_r[static_cast<size_t>(lo) * num_sources +
                            static_cast<size_t>(hi)];
            }
          }
        }
      }
    }
  });
  SumInto(same);
  SumInto(different);
  CoClaimCounts counts;
  counts.num_sources = num_sources;
  counts.same = std::move(same[0]);
  counts.different = std::move(different[0]);
  return counts;
}

DependenceMatrix DetectCopying(const td_internal::ConflictStore& store,
                               const CoClaimCounts& co_claims,
                               const std::vector<size_t>& selected,
                               const std::vector<double>& accuracy,
                               const CopyDetectionParams& params) {
  TDAC_CHECK(store.num_items() == selected.size())
      << "DetectCopying: selected size mismatch";
  TDAC_CHECK(co_claims.num_sources == accuracy.size())
      << "DetectCopying: co-claim counts cover another source count";
  const int num_sources = static_cast<int>(accuracy.size());
  DependenceMatrix matrix(num_sources);

  // kt counts the pairs agreeing on an item's elected value; kf is the rest
  // of co_claims.same, and kd is co_claims.different. Each item range
  // counts into its own matrix.
  const size_t s_count = static_cast<size_t>(num_sources);
  const std::vector<uint32_t> cuts = CountRanges(store, s_count);
  std::vector<std::vector<int>> kt(cuts.size() - 1);
  ParallelFor(kt.size(), [&](size_t r) {
    kt[r].assign(s_count * s_count, 0);
    std::vector<int>& kt_r = kt[r];
    for (size_t it = cuts[r]; it < cuts[r + 1]; ++it) {
      // A selection outside the item's slots elects none of its values.
      if (selected[it] < store.first_slot(it) ||
          selected[it] >= store.end_slot(it)) {
        continue;
      }
      const std::span<const SourceId> sup = store.SupportersOf(selected[it]);
      for (size_t i = 0; i < sup.size(); ++i) {
        const size_t base = static_cast<size_t>(sup[i]) * s_count;
        for (size_t j = i + 1; j < sup.size(); ++j) {
          ++kt_r[base + static_cast<size_t>(sup[j])];
        }
      }
    }
  });
  SumInto(kt);
  const std::vector<int>& same_true = kt[0];

  const double n = std::max(1, params.n_false_values);
  const double c = Clamp(params.copy_rate, 1e-3, 1.0 - 1e-3);
  const double alpha = Clamp(params.alpha, 1e-6, 1.0 - 1e-6);

  struct PairCounts {
    int same_true;   // kt
    int same_false;  // kf
    int different;   // kd
  };
  for (SourceId a = 0; a < num_sources; ++a) {
    for (SourceId b = a + 1; b < num_sources; ++b) {
      const size_t cell =
          static_cast<size_t>(a) * s_count + static_cast<size_t>(b);
      const PairCounts pc{same_true[cell],
                          co_claims.same[cell] - same_true[cell],
                          co_claims.different[cell]};
      // A pair that never co-claimed an item carries no evidence (the hash
      // map never held an entry for it); leave the matrix default.
      if (pc.same_true == 0 && pc.same_false == 0 && pc.different == 0) {
        continue;
      }
      // Shared accuracy for the pair, as in the original model.
      double acc = 0.5 * (accuracy[static_cast<size_t>(a)] +
                          accuracy[static_cast<size_t>(b)]);
      acc = Clamp(acc, params.epsilon_floor, 1.0 - params.epsilon_floor);
      const double err = 1.0 - acc;
  
      // Independent model: both true = A^2; both same false = (1-A)^2 / n;
      // different = remainder.
      double pt_ind = acc * acc;
      double pf_ind = err * err / n;
      double pd_ind = std::max(1.0 - pt_ind - pf_ind, params.epsilon_floor);
  
      // Dependent model: with probability c the second source copies (hence
      // always agrees, and the shared value is true with probability A);
      // with probability 1-c it acts independently. A copied false value is
      // the *same* false value, so the copied error mass lands entirely on
      // same-false (no 1/n spreading).
      double pt_dep = acc * c + pt_ind * (1.0 - c);
      double pf_dep = err * c + pf_ind * (1.0 - c);
      double pd_dep = std::max(1.0 - pt_dep - pf_dep, params.epsilon_floor);
  
      // Evidence for dependence, in log space.
      double log_evidence = 0.0;
      if (params.count_true_agreement) {
        // Strict Dong-2009 joint likelihood over (kt, kf, kd).
        double log_ind = pc.same_true * SafeLog(pt_ind) +
                         pc.same_false * SafeLog(pf_ind) +
                         pc.different * SafeLog(pd_ind);
        double log_dep = pc.same_true * SafeLog(pt_dep) +
                         pc.same_false * SafeLog(pf_dep) +
                         pc.different * SafeLog(pd_dep);
        log_evidence = log_dep - log_ind;
      } else {
        // Robust mode: compare the false-fraction among agreements, with the
        // election noise folded into both models' expectations (an
        // independent pair shares "false" values at least whenever the
        // election mislabels the value they agree on).
        const double nu = Clamp(params.election_noise, 0.0, 0.5);
        double q_ind = Clamp((pf_ind + nu * pt_ind) / (pt_ind + pf_ind),
                             1e-6, 1.0 - 1e-6);
        double q_dep = Clamp((pf_dep + nu * pt_dep) / (pt_dep + pf_dep),
                             1e-6, 1.0 - 1e-6);
        log_evidence =
            pc.same_false * (SafeLog(q_dep) - SafeLog(q_ind)) +
            pc.same_true * (SafeLog(1.0 - q_dep) - SafeLog(1.0 - q_ind)) +
            params.disagreement_weight * pc.different *
                (SafeLog(pd_dep) - SafeLog(pd_ind));
      }
  
      double log_prior_ratio = std::log(1.0 - alpha) - std::log(alpha);
      // P(dep | data) = 1 / (1 + (1-a)/a * L_ind / L_dep).
      double log_odds_against = log_prior_ratio - log_evidence;
      double p_dep = 1.0 / (1.0 + std::exp(Clamp(log_odds_against, -50, 50)));
      matrix.set_prob(a, b, p_dep);
    }
  }
  return matrix;
}

}  // namespace tdac
