#include "eval/trust_eval.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tdac {

namespace {

/// Average ranks (1-based), ties receive the mean of their rank range.
std::vector<double> AverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    double mean_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
                       1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

std::vector<double> EmpiricalSourceAccuracy(const Dataset& data,
                                            const GroundTruth& gold) {
  std::vector<double> correct(static_cast<size_t>(data.num_sources()), 0.0);
  std::vector<double> total(static_cast<size_t>(data.num_sources()), 0.0);
  const std::vector<int32_t>& sources = data.claim_sources();
  const std::vector<int32_t>& value_ids = data.claim_value_ids();
  const std::vector<uint64_t>& items = data.DataItems();
  for (size_t row = 0; row < items.size(); ++row) {
    const Value* g =
        gold.Get(ObjectFromKey(items[row]), AttributeFromKey(items[row]));
    if (g == nullptr) continue;
    // One dictionary lookup per item; id equality is Value equality.
    const ValueId truth = data.value_dict().Find(*g);
    for (int32_t idx : data.ClaimsAt(row)) {
      const auto s = static_cast<size_t>(sources[static_cast<size_t>(idx)]);
      total[s] += 1.0;
      if (value_ids[static_cast<size_t>(idx)] == truth) correct[s] += 1.0;
    }
  }
  std::vector<double> accuracy(static_cast<size_t>(data.num_sources()), -1.0);
  for (size_t s = 0; s < accuracy.size(); ++s) {
    if (total[s] > 0.0) accuracy[s] = correct[s] / total[s];
  }
  return accuracy;
}

Result<TrustEvaluation> EvaluateTrust(
    const Dataset& data, const std::vector<double>& estimated_trust,
    const GroundTruth& gold) {
  if (estimated_trust.size() != static_cast<size_t>(data.num_sources())) {
    return Status::InvalidArgument(
        "EvaluateTrust: trust vector size must equal #sources");
  }
  std::vector<double> empirical = EmpiricalSourceAccuracy(data, gold);
  std::vector<double> est;
  std::vector<double> emp;
  for (size_t s = 0; s < empirical.size(); ++s) {
    if (empirical[s] < 0.0) continue;
    est.push_back(estimated_trust[s]);
    emp.push_back(empirical[s]);
  }
  if (est.size() < 2) {
    return Status::FailedPrecondition(
        "EvaluateTrust: need at least 2 evaluable sources");
  }
  TrustEvaluation out;
  out.sources_evaluated = est.size();
  out.pearson = Pearson(est, emp);
  out.spearman = Pearson(AverageRanks(est), AverageRanks(emp));
  double abs_err = 0.0;
  for (size_t i = 0; i < est.size(); ++i) {
    abs_err += std::fabs(est[i] - emp[i]);
  }
  out.mean_abs_error = abs_err / static_cast<double>(est.size());
  return out;
}

}  // namespace tdac
