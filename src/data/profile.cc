#include "data/profile.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/table_printer.h"

namespace tdac {

namespace {
constexpr size_t kHistogramBuckets = 11;  // 1..10 distinct values, then 10+
}  // namespace

DatasetProfile ProfileDataset(const Dataset& data) {
  DatasetProfile p;
  p.num_sources = data.num_sources();
  p.num_objects = data.num_objects();
  p.num_attributes = static_cast<int>(data.ActiveAttributes().size());
  p.num_claims = data.num_claims();
  p.dcr = data.DataCoverageRate();
  p.num_items = data.DataItems().size();
  p.distinct_value_histogram.assign(kHistogramBuckets, 0);

  size_t conflicted = 0;
  size_t decisive = 0;
  size_t claims_total = 0;
  size_t distinct_total = 0;
  const std::vector<int32_t>& value_ids = data.claim_value_ids();
  std::vector<int32_t> item_values;  // one item's value ids, sorted
  for (uint64_t key : data.DataItems()) {
    const auto& claim_indices =
        data.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    claims_total += claim_indices.size();
    p.max_claims_per_item = std::max(p.max_claims_per_item,
                                     claim_indices.size());
    // Equal ids are equal Values, so each run of one id is one distinct
    // value and its length is that value's claim count.
    item_values.clear();
    for (int32_t idx : claim_indices) {
      item_values.push_back(value_ids[static_cast<size_t>(idx)]);
    }
    std::sort(item_values.begin(), item_values.end());
    size_t distinct = 0;
    size_t top = 0;
    for (size_t i = 0, j = 0; i < item_values.size(); i = j) {
      while (j < item_values.size() && item_values[j] == item_values[i]) ++j;
      ++distinct;
      top = std::max(top, j - i);
    }
    distinct_total += distinct;
    p.max_distinct_values_per_item =
        std::max(p.max_distinct_values_per_item, distinct);
    size_t bucket = std::min(distinct, kHistogramBuckets - 1);
    ++p.distinct_value_histogram[bucket];
    if (distinct >= 2) {
      ++conflicted;
      if (2 * top > claim_indices.size()) ++decisive;
    }
  }
  if (p.num_items > 0) {
    p.mean_claims_per_item =
        static_cast<double>(claims_total) / static_cast<double>(p.num_items);
    p.mean_distinct_values_per_item =
        static_cast<double>(distinct_total) / static_cast<double>(p.num_items);
    p.conflict_rate =
        static_cast<double>(conflicted) / static_cast<double>(p.num_items);
  }
  if (conflicted > 0) {
    p.majority_decisive_rate =
        static_cast<double>(decisive) / static_cast<double>(conflicted);
  }

  std::vector<size_t> per_source(static_cast<size_t>(data.num_sources()), 0);
  for (int32_t s : data.claim_sources()) ++per_source[static_cast<size_t>(s)];
  if (data.num_sources() > 0) {
    p.mean_claims_per_source = static_cast<double>(p.num_claims) /
                               static_cast<double>(data.num_sources());
    p.min_claims_per_source = std::ranges::min(per_source);
    p.max_claims_per_source = std::ranges::max(per_source);
  }
  return p;
}

void PrintProfile(const DatasetProfile& p, std::ostream& os) {
  TablePrinter table({"Statistic", "Value"});
  auto add = [&](const std::string& k, const std::string& v) {
    table.AddRow({k, v});
  };
  add("sources", std::to_string(p.num_sources));
  add("objects", std::to_string(p.num_objects));
  add("attributes (active)", std::to_string(p.num_attributes));
  add("observations", std::to_string(p.num_claims));
  add("data items", std::to_string(p.num_items));
  add("data coverage rate", FormatDouble(p.dcr, 1) + "%");
  add("claims per item (mean/max)",
      FormatDouble(p.mean_claims_per_item, 2) + " / " +
          std::to_string(p.max_claims_per_item));
  add("distinct values per item (mean/max)",
      FormatDouble(p.mean_distinct_values_per_item, 2) + " / " +
          std::to_string(p.max_distinct_values_per_item));
  add("conflicted items", FormatDouble(p.conflict_rate * 100, 1) + "%");
  add("strict majority among conflicted",
      FormatDouble(p.majority_decisive_rate * 100, 1) + "%");
  add("claims per source (mean/min/max)",
      FormatDouble(p.mean_claims_per_source, 1) + " / " +
          std::to_string(p.min_claims_per_source) + " / " +
          std::to_string(p.max_claims_per_source));
  table.Print(os);

  os << "distinct-value histogram (items):";
  for (size_t d = 1; d < p.distinct_value_histogram.size(); ++d) {
    if (p.distinct_value_histogram[d] == 0) continue;
    os << " " << d
       << (d + 1 == p.distinct_value_histogram.size() ? "+:" : ":")
       << p.distinct_value_histogram[d];
  }
  os << "\n";
}

}  // namespace tdac
