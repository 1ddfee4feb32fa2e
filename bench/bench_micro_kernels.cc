// google-benchmark microbenchmarks of the library's kernels: k-means,
// silhouette, truth-vector construction, and each truth-discovery algorithm
// per claim volume. These are throughput sanity checks (the table benches
// report end-to-end times).

#include <malloc.h>

#include <benchmark/benchmark.h>

#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "common/parallel.h"
#include "common/random.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "td/copy_detection.h"
#include "td/majority_vote.h"
#include "td/truth_discovery.h"
#include "td/truth_finder.h"
#include "tdac/truth_vectors.h"

namespace {

std::vector<tdac::FeatureVector> RandomPoints(int n, int dim, uint64_t seed) {
  tdac::Rng rng(seed);
  std::vector<tdac::FeatureVector> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    tdac::FeatureVector p(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      p[static_cast<size_t>(d)] = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    }
    points.push_back(std::move(p));
  }
  return points;
}

tdac::GeneratedData SyntheticData(int objects, uint64_t seed) {
  tdac::SyntheticConfig config;
  config.num_objects = objects;
  config.num_sources = 10;
  config.planted_groups = {{0, 1}, {2, 3}, {4, 5}};
  config.reliability_levels = {1.0, 0.2, 0.8};
  config.seed = seed;
  auto data = tdac::GenerateSynthetic(config);
  if (!data.ok()) std::abort();
  return data.MoveValue();
}

void BM_KMeans(benchmark::State& state) {
  auto points = RandomPoints(static_cast<int>(state.range(0)), 256, 1);
  tdac::KMeansOptions opts;
  opts.k = 4;
  opts.num_restarts = 2;
  for (auto _ : state) {
    auto r = tdac::KMeans(points, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeans)->Arg(16)->Arg(64)->Arg(128);

// The float Lloyd: BM_KMeans's shape with real-valued coordinates.
void BM_KMeansReal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  tdac::Rng rng(1);
  std::vector<tdac::FeatureVector> points(static_cast<size_t>(n),
                                          tdac::FeatureVector(256));
  for (auto& p : points) {
    for (double& x : p) x = rng.NextDouble();
  }
  tdac::KMeansOptions opts;
  opts.k = 4;
  opts.num_restarts = 2;
  for (auto _ : state) {
    auto r = tdac::KMeans(points, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeansReal)->Arg(16)->Arg(64)->Arg(128);

// One call of TD-AC's k sweep on exam124's shape (124 attribute truth
// vectors of 248 coordinates), default options, at several k: the pairwise
// evaluator.
void BM_KMeansExamSweep(benchmark::State& state) {
  auto points = RandomPoints(124, 248, 3);
  tdac::KMeansOptions opts;
  opts.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = tdac::KMeans(points, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeansExamSweep)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(123)
    ->Unit(benchmark::kMillisecond);

// TD-OC's object axis: 5,000 object truth vectors of 60 coordinates, k = 8,
// default options: the count evaluator.
void BM_KMeansObjectAxis(benchmark::State& state) {
  auto points = RandomPoints(5000, 60, 4);
  tdac::KMeansOptions opts;
  opts.k = 8;
  for (auto _ : state) {
    auto r = tdac::KMeans(points, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeansObjectAxis)->Unit(benchmark::kMillisecond);

void BM_Silhouette(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto points = RandomPoints(n, 256, 2);
  std::vector<int> assignment;
  for (int i = 0; i < n; ++i) assignment.push_back(i % 4);
  for (auto _ : state) {
    auto r = tdac::Silhouette(points, assignment, 4);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Silhouette)->Arg(16)->Arg(64)->Arg(128);

void BM_TruthVectors(benchmark::State& state) {
  auto data = SyntheticData(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    auto m = tdac::BuildTruthVectors(data.dataset, data.truth);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TruthVectors)->Arg(100)->Arg(400);

void BM_MajorityVote(benchmark::State& state) {
  auto data = SyntheticData(static_cast<int>(state.range(0)), 4);
  tdac::MajorityVote algo;
  for (auto _ : state) {
    auto r = algo.Discover(data.dataset);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MajorityVote)->Arg(100)->Arg(400);

void BM_TruthFinder(benchmark::State& state) {
  auto data = SyntheticData(static_cast<int>(state.range(0)), 5);
  tdac::TruthFinder algo;
  for (auto _ : state) {
    auto r = algo.Discover(data.dataset);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TruthFinder)->Arg(100)->Arg(200);

void BM_Accu(benchmark::State& state) {
  auto data = SyntheticData(static_cast<int>(state.range(0)), 6);
  tdac::Accu algo;
  for (auto _ : state) {
    auto r = algo.Discover(data.dataset);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Accu)->Arg(100)->Arg(200);

// --- Attribute restriction: copying path vs. zero-copy view -------------
//
// The workload is the Table 5 synthetic generator (DS1 shape) and the
// subset is its first planted group — exactly the restriction TD-AC and
// the partition searches perform per candidate group.

tdac::GeneratedData Table5Data(int objects) {
  auto config = tdac::PaperSyntheticConfig(1, 42);
  if (!config.ok()) std::abort();
  config->num_objects = objects;
  auto data = tdac::GenerateSynthetic(*config);
  if (!data.ok()) std::abort();
  return data.MoveValue();
}

std::vector<tdac::AttributeId> Table5Group() {
  auto config = tdac::PaperSyntheticConfig(1, 42);
  if (!config.ok()) std::abort();
  return config->planted_groups.front();
}

void BM_RestrictCopy(benchmark::State& state) {
  auto data = Table5Data(static_cast<int>(state.range(0)));
  auto group = Table5Group();
  for (auto _ : state) {
    tdac::Dataset restricted = data.dataset.RestrictToAttributes(group);
    benchmark::DoNotOptimize(restricted.num_claims());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
}
BENCHMARK(BM_RestrictCopy)->Arg(400)->Arg(2000);

void BM_RestrictView(benchmark::State& state) {
  auto data = Table5Data(static_cast<int>(state.range(0)));
  auto group = Table5Group();
  for (auto _ : state) {
    tdac::DatasetView view(data.dataset, group);
    benchmark::DoNotOptimize(view.num_claims());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
}
BENCHMARK(BM_RestrictView)->Arg(400)->Arg(2000);

void BM_RestrictViewCached(benchmark::State& state) {
  // Steady-state cost when the restriction is served by a warm
  // RestrictionCache (the common case inside partition search).
  auto data = Table5Data(static_cast<int>(state.range(0)));
  auto group = Table5Group();
  tdac::RestrictionCache cache(&data.dataset);
  cache.Attributes(group);
  for (auto _ : state) {
    const std::shared_ptr<const tdac::DatasetView> view =
        cache.Attributes(group);
    benchmark::DoNotOptimize(view->num_claims());
  }
}
BENCHMARK(BM_RestrictViewCached)->Arg(400)->Arg(2000);

// --- Columnar (SoA) kernels ---------------------------------------------
//
// The columnar kernels every base run goes through, at the scales the
// layout work targets: ~1.2M claims tall (20k objects x 6 attributes x 10
// sources), ~1.2M claims wide (10^4 sources), and a 100-source shape for
// the S x S copy-detection tally (pair matrices grow quadratically in S,
// so the wide shape stays off this one).
//
// CI runs `--benchmark_filter=BM_Soa` and publishes the JSON, one row per
// kernel and shape, as the soa-kernels artifact.

const tdac::GeneratedData& TallMillion() {
  static const tdac::GeneratedData data = SyntheticData(20000, 7);
  return data;
}

const tdac::GeneratedData& WideTenThousandSources() {
  static const tdac::GeneratedData data = [] {
    tdac::SyntheticConfig config;
    config.num_objects = 20;
    config.num_sources = 10000;
    config.planted_groups = {{0, 1}, {2, 3}, {4, 5}};
    config.reliability_levels = {1.0, 0.2, 0.8};
    config.seed = 8;
    auto d = tdac::GenerateSynthetic(config);
    if (!d.ok()) std::abort();
    return d.MoveValue();
  }();
  return data;
}

const tdac::GeneratedData& HundredSources() {
  static const tdac::GeneratedData data = [] {
    tdac::SyntheticConfig config;
    config.num_objects = 2000;
    config.num_sources = 100;
    config.planted_groups = {{0, 1}, {2, 3}, {4, 5}};
    config.reliability_levels = {1.0, 0.2, 0.8};
    config.seed = 9;
    auto d = tdac::GenerateSynthetic(config);
    if (!d.ok()) std::abort();
    return d.MoveValue();
  }();
  return data;
}

// Glibc heap in use: mallinfo2 uordblks (arena) + hblkhd (mmapped blocks).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Besides throughput, reports the heap bytes per claim the grouped conflict
// store keeps: glibc heap in use with the store alive, minus before the
// grouping (the measurement BM_DatasetFromCsv takes of the claim store).
void BM_SoaGroupClaims(benchmark::State& state,
                       const tdac::GeneratedData& data) {
  double heap_bytes = 0.0;
  for (auto _ : state) {
    const size_t before = HeapInUse();
    {
      auto store = tdac::td_internal::GroupClaimsByItem(data.dataset);
      benchmark::DoNotOptimize(store);
      state.PauseTiming();
      heap_bytes = static_cast<double>(HeapInUse() - before);
    }  // the store is released untimed
    state.ResumeTiming();
  }
  const auto claims = static_cast<double>(data.dataset.num_claims());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
  state.counters["heap_bytes_per_claim"] = heap_bytes / claims;
}
void BM_SoaGroupClaimsTall(benchmark::State& state) {
  BM_SoaGroupClaims(state, TallMillion());
}
void BM_SoaGroupClaimsWide(benchmark::State& state) {
  BM_SoaGroupClaims(state, WideTenThousandSources());
}
BENCHMARK(BM_SoaGroupClaimsTall);
BENCHMARK(BM_SoaGroupClaimsWide);

// The attribute truth-vector fill as TD-AC runs it: against the reference
// run's predictions (Accu's, taken once, untimed).
void BM_SoaTruthVectorsTall(benchmark::State& state) {
  const tdac::GeneratedData& data = TallMillion();
  static const tdac::TruthDiscoveryResult reference = [&] {
    auto run = tdac::Accu().Discover(data.dataset);
    if (!run.ok()) std::abort();
    return run.MoveValue();
  }();
  for (auto _ : state) {
    auto m = tdac::BuildTruthVectors(data.dataset, reference.predicted);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
}
BENCHMARK(BM_SoaTruthVectorsTall);

void BM_SoaMajorityVote(benchmark::State& state,
                        const tdac::GeneratedData& data) {
  tdac::MajorityVote algo;
  for (auto _ : state) {
    auto r = algo.Discover(data.dataset);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
}
void BM_SoaMajorityVoteTall(benchmark::State& state) {
  BM_SoaMajorityVote(state, TallMillion());
}
void BM_SoaMajorityVoteWide(benchmark::State& state) {
  BM_SoaMajorityVote(state, WideTenThousandSources());
}
BENCHMARK(BM_SoaMajorityVoteTall);
BENCHMARK(BM_SoaMajorityVoteWide);

// One Accu iteration's copy detection: the co-claim counts are taken once
// per run (untimed here), and each iteration splits them by the elected
// slots and scores every source pair.
void BM_SoaDetectCopying(benchmark::State& state) {
  const tdac::GeneratedData& data = HundredSources();
  const auto store = tdac::td_internal::GroupClaimsByItem(data.dataset);
  // Elect each item's first slot.
  std::vector<size_t> selected(store.num_items());
  for (size_t it = 0; it < store.num_items(); ++it) {
    selected[it] = store.first_slot(it);
  }
  std::vector<double> accuracy(
      static_cast<size_t>(data.dataset.num_sources()), 0.8);
  const tdac::CoClaimCounts co_claims =
      tdac::CountCoClaims(store, accuracy.size());
  tdac::CopyDetectionParams params;
  for (auto _ : state) {
    auto m = tdac::DetectCopying(store, co_claims, selected, accuracy, params);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_claims()));
}
BENCHMARK(BM_SoaDetectCopying);

// --- Ingest -------------------------------------------------------------
//
// DatasetFromCsv over DS2 at 20k objects (1.2M claims), rendered to CSV
// text once, outside the timing, at the thread count in the argument: 1
// (one chunk, the serial load) and 4 (four chunks on the pool). Two
// counters: claims parsed and built per second, and the heap bytes each
// built claim keeps — glibc heap in use (mallinfo2 uordblks + hblkhd) with
// the built store alive, minus before the load. The second, at 1 thread
// (how tdac_serve loads by default), is the measurement the serve engine's
// kBytesPerClaim cites. CI runs `--benchmark_filter=BM_DatasetFromCsv` and
// publishes the JSON, both rows, as the ingest artifact.

tdac::GeneratedData GenerateDs2TwentyThousand() {
  auto config = tdac::PaperSyntheticConfig(2, 42);
  if (!config.ok()) std::abort();
  config->num_objects = 20000;
  auto data = tdac::GenerateSynthetic(*config);
  if (!data.ok()) std::abort();
  return data.MoveValue();
}

// The generated store is dropped once rendered, so the load's timing and
// heap counters see no other 1.2M-claim store alive.
const std::string& Ds2TwentyThousandCsv() {
  static const std::string csv =
      tdac::DatasetToCsv(GenerateDs2TwentyThousand().dataset);
  return csv;
}

void BM_DatasetFromCsv(benchmark::State& state) {
  const std::string& csv = Ds2TwentyThousandCsv();
  size_t claims = 0;
  double heap_bytes = 0.0;
  for (auto _ : state) {
    const size_t before = HeapInUse();
    {
      auto data = tdac::DatasetFromCsv(csv, static_cast<int>(state.range(0)));
      benchmark::DoNotOptimize(data);
      state.PauseTiming();
      if (!data.ok()) {
        state.SkipWithError(data.status().ToString().c_str());
        break;
      }
      claims = data->num_claims();
      heap_bytes = static_cast<double>(HeapInUse() - before);
    }  // the store is released untimed
    state.ResumeTiming();
  }
  state.counters["claims_per_s"] = benchmark::Counter(
      static_cast<double>(claims) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["heap_bytes_per_claim"] =
      claims == 0 ? 0.0 : heap_bytes / static_cast<double>(claims);
}
BENCHMARK(BM_DatasetFromCsv)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- Base runs at the run width ----------------------------------------
//
// One Accu run over the same DS2 at 20k objects (20k objects x 6
// attributes x 10 sources, 1.2M claims), generated once outside the
// timing, at the run width in the argument: 1 (one item block, the serial
// path) and 4 (item blocks of about 2^15 claims on the pool). The ratio of
// the two rows is the parallel speedup of a base run. CI's "Columnar
// kernels" step runs it with the other BM_Soa rows.
void BM_SoaAccuTall(benchmark::State& state) {
  static const tdac::GeneratedData generated = GenerateDs2TwentyThousand();
  const tdac::Dataset& data = generated.dataset;
  const tdac::RunWidthScope width(static_cast<int>(state.range(0)));
  const tdac::Accu accu;
  for (auto _ : state) {
    auto r = accu.Discover(data);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.num_claims()));
}
BENCHMARK(BM_SoaAccuTall)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
