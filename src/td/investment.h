#ifndef TDAC_TD_INVESTMENT_H_
#define TDAC_TD_INVESTMENT_H_

#include <span>

#include "td/truth_discovery.h"

namespace tdac {

/// \brief Options for Investment / PooledInvestment (Pasternack & Roth,
/// COLING 2010).
struct InvestmentOptions {
  TruthDiscoveryOptions base;

  /// Belief growth exponent g (the published defaults: 1.2 for Investment,
  /// 1.4 for PooledInvestment).
  double exponent = 1.2;
};

/// \brief Investment: sources split their trust evenly across their claims
/// ("invest" in them); a value's belief is its collected investment raised
/// to the growth exponent, and each investor is paid back in proportion to
/// its share of the investment.
class Investment : public TruthDiscovery {
 public:
  explicit Investment(InvestmentOptions options = {}) : options_(options) {}

  std::string_view name() const override { return "Investment"; }

 protected:
  [[nodiscard]]
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override;

  /// Hook distinguishing PooledInvestment: maps one item's collected
  /// investments H(v) to its beliefs B(v) (equal-length spans).
  virtual void BeliefsFromInvestments(std::span<const double> collected,
                                      std::span<double> beliefs) const;

  InvestmentOptions options_;
};

/// \brief PooledInvestment: like Investment but beliefs are linearly scaled
/// within each data item so that the item's total belief equals its total
/// investment — preventing items with many claims from dominating.
class PooledInvestment : public Investment {
 public:
  explicit PooledInvestment(InvestmentOptions options = DefaultOptions())
      : Investment(options) {}

  std::string_view name() const override { return "PooledInvestment"; }

  static InvestmentOptions DefaultOptions() {
    InvestmentOptions o;
    o.exponent = 1.4;
    return o;
  }

 protected:
  void BeliefsFromInvestments(std::span<const double> collected,
                              std::span<double> beliefs) const override;
};

}  // namespace tdac

#endif  // TDAC_TD_INVESTMENT_H_
