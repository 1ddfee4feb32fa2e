#ifndef TDAC_TD_COPY_DETECTION_H_
#define TDAC_TD_COPY_DETECTION_H_

#include <vector>

#include "td/truth_discovery.h"

namespace tdac {

/// \brief Parameters of the Bayesian source-dependence model of Dong,
/// Berti-Equille & Srivastava (VLDB 2009).
struct CopyDetectionParams {
  /// A-priori probability that two sources are dependent.
  double alpha = 0.2;

  /// Copy rate: probability that a copier copies a particular value rather
  /// than providing it independently.
  double copy_rate = 0.8;

  /// Number of false values per data item in the underlying domain
  /// (the model's n).
  int n_false_values = 100;

  /// Floor/ceiling applied to error rates inside the likelihoods.
  double epsilon_floor = 1e-3;

  /// When true, the strict Dong-2009 joint likelihood over (kt, kf, kd) is
  /// used verbatim. It has two well-known pathologies under iteration:
  /// (a) two highly reliable sources agreeing on thousands of items
  /// accumulate kt * log-factor evidence and end up branded copiers, and
  /// (b) when the current election is partially wrong, honest sources
  /// "share false values" at the election's error rate and likewise get
  /// branded, which discounts the truth vote and locks the errors in.
  ///
  /// When false (default), a robust variant is used: the decisive statistic
  /// is the *fraction of agreements that fall on false values*, compared
  /// between the two models with an `election_noise` floor folded into the
  /// independent model (an independent pair shares "false" values at least
  /// whenever the election itself is wrong). Disagreements remain weakly
  /// exculpatory via `disagreement_weight`.
  bool count_true_agreement = false;

  /// Assumed probability that the current election mislabels an agreed
  /// value (robust mode only). Acts as a floor on the independent model's
  /// expected false-agreement rate.
  double election_noise = 0.05;

  /// Weight of the disagreement (kd) evidence in robust mode. Kept small:
  /// loose copiers (copy rate well below 1) disagree often, and full
  /// weighting would exculpate them entirely.
  double disagreement_weight = 0.1;
};

/// \brief Symmetric pairwise dependence probabilities between sources.
///
/// `prob(s1, s2)` is P(s1 ~ s2 | observations) under the current truth
/// estimate. Stored as a flat upper-triangular matrix.
class DependenceMatrix {
 public:
  explicit DependenceMatrix(int num_sources)
      : num_sources_(num_sources),
        probs_(static_cast<size_t>(num_sources) *
                   static_cast<size_t>(num_sources),
               0.0) {}

  double prob(SourceId a, SourceId b) const {
    return probs_[Index(a, b)];
  }
  void set_prob(SourceId a, SourceId b, double p) {
    probs_[Index(a, b)] = p;
    probs_[Index(b, a)] = p;
  }
  int num_sources() const { return num_sources_; }

 private:
  size_t Index(SourceId a, SourceId b) const {
    return static_cast<size_t>(a) * static_cast<size_t>(num_sources_) +
           static_cast<size_t>(b);
  }

  int num_sources_;
  std::vector<double> probs_;
};

/// \brief Computes pairwise dependence probabilities.
///
/// For every pair of sources with common data items, the observations are
/// summarized (relative to the current `selected` truth per item) as
/// kt = #common items where both give the same *true* value,
/// kf = #common items where both give the same *false* value,
/// kd = #common items where they differ; a Bayes factor between the
/// independent and dependent generative models yields P(dependent).
///
/// \param store conflict sets from GroupClaimsByItem.
/// \param selected per item, the slot of its currently elected true value.
/// \param accuracy current per-source accuracy estimates.
DependenceMatrix DetectCopying(const td_internal::ConflictStore& store,
                               const std::vector<size_t>& selected,
                               const std::vector<double>& accuracy,
                               const CopyDetectionParams& params);

/// \brief Per unordered source pair (a < b, cell a * S + b of an S x S
/// array), over every item of a store: on how many items the two claim the
/// same value, and on how many they claim different values.
///
/// Neither count depends on the elected truths, so a caller that runs
/// DetectCopying every iteration counts them once; each iteration then only
/// splits `same` into kt and kf by walking the elected slots.
struct CoClaimCounts {
  size_t num_sources = 0;
  std::vector<int> same;
  std::vector<int> different;
};

/// Counts the co-claims of `store` for sources [0, num_sources).
CoClaimCounts CountCoClaims(const td_internal::ConflictStore& store,
                            size_t num_sources);

/// DetectCopying over pre-counted co-claims of the same store; the result
/// equals the four-argument form's. `co_claims.num_sources` must equal
/// `accuracy.size()`.
DependenceMatrix DetectCopying(const td_internal::ConflictStore& store,
                               const CoClaimCounts& co_claims,
                               const std::vector<size_t>& selected,
                               const std::vector<double>& accuracy,
                               const CopyDetectionParams& params);

}  // namespace tdac

#endif  // TDAC_TD_COPY_DETECTION_H_
