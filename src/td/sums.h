#ifndef TDAC_TD_SUMS_H_
#define TDAC_TD_SUMS_H_

#include "td/truth_discovery.h"

namespace tdac {

/// \brief Options for the Sums / AverageLog family (Pasternack & Roth,
/// COLING 2010) — the web-of-trust baselines evaluated by the survey the
/// paper takes its hyper-parameters from (Waguih & Berti-Equille, 2014).
struct SumsOptions {
  TruthDiscoveryOptions base;
};

/// \brief Sums: Hubs-and-Authorities-style mutual reinforcement.
///
/// Belief in a value is the sum of its supporters' trust; a source's trust
/// is the sum of its claims' beliefs. Both vectors are max-normalized each
/// iteration to keep the fixpoint bounded. Truth per item is the
/// highest-belief value.
class Sums : public TruthDiscovery {
 public:
  explicit Sums(SumsOptions options = {}) : options_(options) {}

  std::string_view name() const override { return "Sums"; }

 protected:
  [[nodiscard]]
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override;

  /// Hook distinguishing Sums from AverageLog: how a source's new trust is
  /// derived from the total belief of its claims.
  virtual double TrustFromBeliefs(double belief_sum, double claim_count) const {
    (void)claim_count;
    return belief_sum;
  }

  SumsOptions options_;
};

/// \brief AverageLog: like Sums but a source's trust is the *average*
/// belief of its claims scaled by log(1 + #claims), damping sources that
/// only assert a handful of values.
class AverageLog : public Sums {
 public:
  explicit AverageLog(SumsOptions options = {}) : Sums(options) {}

  std::string_view name() const override { return "AverageLog"; }

 protected:
  double TrustFromBeliefs(double belief_sum, double claim_count) const override;
};

}  // namespace tdac

#endif  // TDAC_TD_SUMS_H_
