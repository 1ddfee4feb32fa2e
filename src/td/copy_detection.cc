#include "td/copy_detection.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace tdac {

DependenceMatrix DetectCopying(const td_internal::ConflictStore& store,
                               const std::vector<size_t>& selected,
                               const std::vector<double>& accuracy,
                               const CopyDetectionParams& params) {
  TDAC_CHECK(store.num_items() == selected.size())
      << "DetectCopying: selected size mismatch";
  const int num_sources = static_cast<int>(accuracy.size());
  DependenceMatrix matrix(num_sources);

  // Accumulate kt/kf/kd per unordered source pair over all items. This is
  // the hottest loop of the whole Accu family (every source pair on every
  // item, every iteration), so the counts live in dense S*S matrices — a
  // hash map here costs a hash + probe per increment and dominated whole
  // benchmark profiles. S is bounded by the real datasets (hundreds), so
  // the dense matrices stay small. One flat int array per count kind
  // (structure-of-arrays, not an array of 3-count structs): each inner
  // loop touches exactly one kind, so a 4-byte stride triples the useful
  // cache density, and hoisting the kind choice out of the agree loop
  // removes the per-pair branch.
  const size_t s_count = static_cast<size_t>(num_sources);
  std::vector<int> same_true(s_count * s_count, 0);
  std::vector<int> same_false(s_count * s_count, 0);
  std::vector<int> different(s_count * s_count, 0);

  for (size_t it = 0; it < store.num_items(); ++it) {
    const size_t end = store.end_slot(it);
    // Sources sharing a value agree; sources with different values differ.
    for (size_t v = store.first_slot(it); v < end; ++v) {
      const std::span<const SourceId> sup = store.SupportersOf(v);
      // Supporters are ascending, so sup[i] < sup[j] for i < j and the
      // upper-triangle cell needs no operand swap.
      int* same = (v == selected[it]) ? same_true.data() : same_false.data();
      for (size_t i = 0; i < sup.size(); ++i) {
        const size_t base = static_cast<size_t>(sup[i]) * s_count;
        for (size_t j = i + 1; j < sup.size(); ++j) {
          ++same[base + static_cast<size_t>(sup[j])];
        }
      }
      for (size_t w = v + 1; w < end; ++w) {
        for (SourceId si : sup) {
          for (SourceId sj : store.SupportersOf(w)) {
            const SourceId lo = si < sj ? si : sj;
            const SourceId hi = si < sj ? sj : si;
            ++different[static_cast<size_t>(lo) * s_count +
                        static_cast<size_t>(hi)];
          }
        }
      }
    }
  }

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
      const PairCounts pc{same_true[cell], same_false[cell], different[cell]};
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
