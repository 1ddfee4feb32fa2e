#include "tdac/tdoc.h"

#include <utility>

#include "common/logging.h"

namespace tdac {

namespace {

/// The TD-AC options TD-OC's pass reads; the rest keep their defaults
/// (k-means backend, Hamming silhouette, dense distances, no refinement).
TdacOptions PassOptions(const TdocOptions& options) {
  TDAC_CHECK(options.base != nullptr) << "Tdoc requires a base algorithm";
  TdacOptions pass;
  pass.base = options.base;
  pass.kmeans = options.kmeans;
  pass.min_k = options.min_k;
  pass.max_k = options.max_k;
  pass.threads = options.threads;
  pass.checkpointer = options.checkpointer;
  pass.checkpoint_prefix = options.checkpoint_prefix;
  return pass;
}

}  // namespace

Tdoc::Tdoc(TdocOptions options)
    : options_(std::move(options)),
      pass_(PassOptions(options_), PartitionAxis::kObjects) {}

Result<TruthDiscoveryResult> Tdoc::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TdocReport report, DiscoverWithReport(data, guard));
  return std::move(report.result);
}

Result<TdocReport> Tdoc::DiscoverWithReport(const DatasetLike& data) const {
  return DiscoverWithReport(data, RunGuard::None());
}

Result<TdocReport> Tdoc::DiscoverWithReport(const DatasetLike& data,
                                            const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TdacReport pass,
                        pass_.DiscoverWithReport(data, guard));
  TdocReport report;
  report.groups = pass.partition.groups();
  report.chosen_k = pass.chosen_k;
  report.silhouette = pass.silhouette;
  report.silhouette_by_k = std::move(pass.silhouette_by_k);
  report.fell_back_to_base = pass.fell_back_to_base;
  report.result = std::move(pass.result);
  return report;
}

}  // namespace tdac
