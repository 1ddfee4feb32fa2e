// Quickstart: build a small conflicting dataset (the paper's Table 1
// running example), run a base truth-discovery algorithm, then run TD-AC
// and compare what each elects.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdint>
#include <iostream>
#include <optional>

#include "data/dataset_builder.h"
#include "td/truth_finder.h"
#include "tdac/tdac.h"

int main() {
  using tdac::Value;

  // Claims from Table 1 of the paper: three sources answer three questions
  // on two topics (football and computer science). Source 1 is good on the
  // FB Q1/Q3-style facts, Source 2 on the Q2-style facts.
  tdac::DatasetBuilder builder;
  auto add = [&](const char* src, const char* topic, const char* q,
                 Value v) {
    tdac::Status s = builder.AddClaim(src, topic, q, std::move(v));
    if (!s.ok()) {
      std::cerr << "AddClaim failed: " << s << "\n";
      std::exit(1);
    }
  };
  add("Source1", "FB", "Q1", Value("Algeria"));
  add("Source1", "FB", "Q2", Value(int64_t{2000}));
  add("Source1", "FB", "Q3", Value(int64_t{11}));
  add("Source2", "FB", "Q1", Value("Senegal"));
  add("Source2", "FB", "Q2", Value(int64_t{2019}));
  add("Source2", "FB", "Q3", Value(int64_t{12}));
  add("Source3", "FB", "Q1", Value("Algeria"));
  add("Source3", "FB", "Q2", Value(int64_t{1994}));
  add("Source3", "FB", "Q3", Value(int64_t{11}));
  add("Source1", "CS", "Q1", Value("Linus Torvalds"));
  add("Source1", "CS", "Q2", Value(int64_t{1830}));
  add("Source1", "CS", "Q3", Value(int64_t{7}));
  add("Source2", "CS", "Q1", Value("Bill Gates"));
  add("Source2", "CS", "Q2", Value(int64_t{1991}));
  add("Source2", "CS", "Q3", Value(int64_t{8}));
  add("Source3", "CS", "Q1", Value("Linus Torvalds"));
  add("Source3", "CS", "Q2", Value(int64_t{1991}));
  add("Source3", "CS", "Q3", Value(int64_t{8}));

  auto dataset = builder.Build();
  if (!dataset.ok()) {
    std::cerr << "Build failed: " << dataset.status() << "\n";
    return 1;
  }
  std::cout << "Dataset: " << dataset->Summary() << "\n\n";

  // 1. A standard algorithm on the whole dataset.
  tdac::TruthFinder truth_finder;
  auto base_result = truth_finder.Discover(*dataset);
  if (!base_result.ok()) {
    std::cerr << "TruthFinder failed: " << base_result.status() << "\n";
    return 1;
  }

  // 2. TD-AC with TruthFinder as the base algorithm F.
  tdac::TdacOptions options;
  options.base = &truth_finder;
  tdac::Tdac tdac_algo(options);
  auto report = tdac_algo.DiscoverWithReport(*dataset);
  if (!report.ok()) {
    std::cerr << "TD-AC failed: " << report.status() << "\n";
    return 1;
  }

  std::cout << "TD-AC chose partition " << report->partition.ToString()
            << " (k=" << report->chosen_k
            << ", silhouette=" << report->silhouette << ")\n\n";

  std::cout << "Elected truths (TruthFinder vs TD-AC+TruthFinder):\n";
  for (uint64_t key : dataset->DataItems()) {
    tdac::ObjectId o = tdac::ObjectFromKey(key);
    tdac::AttributeId a = tdac::AttributeFromKey(key);
    const std::optional<tdac::Value> base_v =
        base_result->predicted.Get(o, a, *dataset);
    const std::optional<tdac::Value> tdac_v =
        report->result.predicted.Get(o, a, *dataset);
    std::cout << "  " << dataset->object_name(o) << "/"
              << dataset->attribute_name(a) << ": "
              << (base_v ? base_v->ToString() : "?") << "  |  "
              << (tdac_v ? tdac_v->ToString() : "?") << "\n";
  }
  return 0;
}
