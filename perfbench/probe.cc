// tdac_probe — the benchmark's traced, in-process view of one workload.
//
//   tdac_probe fingerprint --claims=FILE
//       Prints the DatasetFingerprint and shape of a claims CSV as JSON.
//   tdac_probe evaluate --claims=FILE --truth=FILE --predicted=FILE
//       Claim-level F1 (Evaluate) of a predictions CSV against a gold truth.
//   tdac_probe trace --workload=NAME --claims=FILE --truth=FILE --work=DIR
//       Runs the CLI's pipeline in process (load, TD-AC over Accu, evaluate,
//       write), once untraced and once with spans around each public call,
//       then replays TD-AC's internals through the public functions of each
//       module (reference run, truth vectors, k-means and silhouette per k,
//       restriction views, per-group runs) and times the serving layer on
//       an idle in-process engine. Writes DIR/trace.json (Chrome trace-event
//       format) and prints one JSON object of per-layer metrics.
//
// Every span is recorded here, around calls into the library; the library
// itself is not instrumented. The pipeline runs TD-AC serially so that the
// replayed children add up to the parent span, and the difference
// (tdac.unattributed_s) shows how much of TD-AC the replay does not explain.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "eval/metrics.h"
#include "partition/attribute_partition.h"
#include "serve/engine.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "td/registry.h"
#include "tdac/tdac.h"
#include "tdac/truth_vectors.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One recorded span. `lane` separates the pipeline as the CLI runs it
/// from the replayed internals and the serving probes, which run after it
/// and so cannot nest inside it in time.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  int lane = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double seconds() const { return end_s - start_s; }
  std::string module() const { return name.substr(0, name.find('.')); }
};

/// In-memory span store, written out once at exit. Single-threaded: every
/// span is opened and closed on the probe's main thread.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  int Begin(const std::string& name, int parent, int lane) {
    Span span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.lane = lane;
    span.start_s = SecondsSince(origin_);
    spans_.push_back(span);
    return span.id;
  }

  double End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_s = SecondsSince(origin_);
    return span.seconds();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus its children's. Children never overlap each
  /// other (one thread), so this is the time no child accounts for; a
  /// replayed child sits in another lane but still counts against its
  /// parent.
  double SelfSeconds(const Span& span) const {
    double self = span.seconds();
    for (const Span& child : spans_) {
      if (child.parent == span.id) self -= child.seconds();
    }
    return self;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char* lanes[] = {"pipeline", "replayed internals", "serve probes"};
    for (int lane = 0; lane < 3; ++lane) {
      out << (lane ? "," : "")
          << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << lane
          << ",\"args\":{\"name\":\"" << lanes[lane] << "\"}}";
    }
    out << std::fixed << std::setprecision(3);
    for (const Span& span : spans_) {
      out << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.lane << ",\"name\":\""
          << span.name << "\",\"cat\":\"" << span.module()
          << "\",\"ts\":" << span.start_s * 1e6 << ",\"dur\":"
          << span.seconds() * 1e6 << ",\"args\":{\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"workload\":\"" << workload_
          << "\"}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "tdac_probe: " << what << "\n";
  std::exit(1);
}

template <typename T>
T Check(tdac::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return result.MoveValue();
}

void Check(const tdac::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("unexpected argument " + arg);
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string Require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) Die("missing --" + key);
  return it->second;
}

/// Prints `metrics` as one JSON object on stdout.
void PrintJson(const std::vector<std::pair<std::string, double>>& metrics) {
  std::cout << "{" << std::setprecision(12);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].first
              << "\": " << metrics[i].second;
  }
  std::cout << "}\n";
}

int CmdFingerprint(const std::map<std::string, std::string>& flags) {
  const tdac::Dataset data =
      Check(tdac::LoadDataset(Require(flags, "claims")), "load claims");
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0')
      << tdac::DatasetFingerprint(data);
  std::cout << "{\"fingerprint\": \"" << hex.str()
            << "\", \"claims\": " << data.num_claims()
            << ", \"objects\": " << data.num_objects()
            << ", \"attributes\": " << data.num_attributes()
            << ", \"sources\": " << data.num_sources() << "}\n";
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  const tdac::Dataset data =
      Check(tdac::LoadDataset(Require(flags, "claims")), "load claims");
  const tdac::GroundTruth gold =
      Check(tdac::LoadGroundTruth(Require(flags, "truth"), data), "load truth");
  const tdac::GroundTruth predicted = Check(
      tdac::LoadGroundTruth(Require(flags, "predicted"), data), "load --out");
  const tdac::PerformanceMetrics metrics =
      tdac::Evaluate(data, predicted, gold);
  PrintJson({{"f1", metrics.f1},
             {"items", static_cast<double>(predicted.size())}});
  return 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// What one in-process run of the CLI's pipeline produced.
struct PipelineOutput {
  double wall_s = 0.0;
  tdac::TdacReport report;
  double f1 = 0.0;
};

/// The CLI's `run --truth --algorithm=Accu --tdac --serial --out` pipeline
/// as public calls, traced when `tracer` is non-null.
PipelineOutput RunPipeline(const std::string& claims, const std::string& truth,
                           const std::string& out_path,
                           const tdac::TruthDiscovery& base, Tracer* tracer) {
  auto begin = [&](const char* name, int parent) {
    return tracer != nullptr ? tracer->Begin(name, parent, 0) : -1;
  };
  auto end = [&](int id) {
    if (tracer != nullptr) tracer->End(id);
  };
  PipelineOutput output;
  const Clock::time_point start = Clock::now();
  const int root = begin("bench.pipeline", -1);

  int span = begin("data.ingest", root);
  const tdac::Dataset data = Check(tdac::LoadDataset(claims), "load claims");
  end(span);

  span = begin("data.truth_load", root);
  const tdac::GroundTruth gold =
      Check(tdac::LoadGroundTruth(truth, data), "load truth");
  end(span);

  tdac::TdacOptions options;
  options.base = &base;
  options.threads = 1;
  const tdac::Tdac tdac_algo(options);
  span = begin("tdac.discover", root);
  output.report = Check(tdac_algo.DiscoverWithReport(data), "TD-AC");
  end(span);

  span = begin("eval.evaluate", root);
  output.f1 = tdac::Evaluate(data, output.report.result.predicted, gold).f1;
  end(span);

  span = begin("data.write_out", root);
  Check(tdac::SaveGroundTruth(output.report.result.predicted, data, out_path),
        "write predictions");
  end(span);

  end(root);
  output.wall_s = SecondsSince(start);
  return output;
}

/// Same relabelling TD-AC applies to a k-means assignment: consecutive
/// labels over non-empty clusters.
int CompactLabels(std::vector<int>* assignment, int k) {
  std::vector<int> remap(static_cast<size_t>(k), -1);
  int next = 0;
  for (int& a : *assignment) {
    int& slot = remap[static_cast<size_t>(a)];
    if (slot < 0) slot = next++;
    a = slot;
  }
  return next;
}

int CmdTrace(const std::map<std::string, std::string>& flags) {
  const std::string workload = Require(flags, "workload");
  const std::string claims = Require(flags, "claims");
  const std::string truth = Require(flags, "truth");
  const std::string work = Require(flags, "work");
  std::vector<std::pair<std::string, double>> metrics;
  auto put = [&](const std::string& name, double value) {
    metrics.emplace_back(name, value);
  };

  const std::unique_ptr<tdac::TruthDiscovery> base =
      Check(tdac::MakeAlgorithm("Accu"), "Accu");

  // Untraced and traced pipelines, alternating, twice each: the difference
  // of their mean walls is what the spans cost. The last traced run's spans
  // are the ones reported.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  PipelineOutput untraced;
  PipelineOutput traced;
  Tracer tracer(workload);
  for (int round = 0; round < 2; ++round) {
    untraced = RunPipeline(claims, truth, work + "/probe_untraced.csv", *base,
                           nullptr);
    untraced_s += untraced.wall_s / 2;
    tracer = Tracer(workload);
    traced = RunPipeline(claims, truth, work + "/probe_traced.csv", *base,
                         &tracer);
    traced_s += traced.wall_s / 2;
  }
  if (traced.report.partition != untraced.report.partition ||
      traced.f1 != untraced.f1) {
    Die("traced and untraced pipelines disagree");
  }
  const tdac::TdacReport& report = traced.report;

  // Replay TD-AC's first pass through the public functions it is built
  // from, with the options TdacOptions defaults to.
  const tdac::Dataset data = Check(tdac::LoadDataset(claims), "load claims");
  int replay = -1;
  for (const Span& s : tracer.spans()) {
    if (s.name == "tdac.discover") replay = s.id;
  }
  int span = tracer.Begin("td.reference", replay, 1);
  const tdac::TruthDiscoveryResult reference =
      Check(base->Discover(data), "reference run");
  const double reference_s = tracer.End(span);

  span = tracer.Begin("tdac.vectors", replay, 1);
  const tdac::TruthVectorMatrix matrix =
      Check(tdac::BuildTruthVectors(data, reference.predicted), "vectors");
  const double vectors_s = tracer.End(span);

  const tdac::TdacOptions defaults;
  const int num_attrs = static_cast<int>(matrix.vectors.size());
  double kmeans_s = 0.0, silhouette_s = 0.0, max_k_s = 0.0;
  double kmeans_iterations = 0.0;
  int sweep_ks = 0;
  bool have_best = false;
  double best_score = 0.0;
  int best_k = 0;
  std::vector<int> best_assignment;
  for (int k = 2; k <= num_attrs - 1; ++k) {
    tdac::KMeansOptions kopts = defaults.kmeans;
    kopts.k = k;
    span = tracer.Begin("clustering.kmeans", replay, 1);
    tdac::Result<tdac::KMeansResult> clustered =
        tdac::KMeans(matrix.vectors, kopts);
    const double one_kmeans = tracer.End(span);
    kmeans_s += one_kmeans;
    ++sweep_ks;
    if (!clustered.ok()) continue;
    kmeans_iterations += clustered->iterations;
    std::vector<int> assignment = clustered->assignment;
    const int effective_k = CompactLabels(&assignment, k);
    double one_silhouette = 0.0;
    if (effective_k >= 2) {
      span = tracer.Begin("clustering.silhouette", replay, 1);
      tdac::Result<tdac::SilhouetteResult> sil = tdac::Silhouette(
          matrix.vectors, assignment, effective_k, defaults.silhouette_metric);
      one_silhouette = tracer.End(span);
      if (sil.ok() && (!have_best || sil->partition_score > best_score)) {
        have_best = true;
        best_score = sil->partition_score;
        best_k = effective_k;
        best_assignment = assignment;
      }
    }
    silhouette_s += one_silhouette;
    max_k_s = std::max(max_k_s, one_kmeans + one_silhouette);
  }

  double restrict_s = 0.0, groups_s = 0.0, groups_max_s = 0.0;
  tdac::AttributePartition partition;
  if (have_best) {
    partition = Check(tdac::AttributePartition::FromAssignment(
                          matrix.attributes, best_assignment),
                      "partition");
    tdac::RestrictionCache cache(&data);
    for (const std::vector<tdac::AttributeId>& group : partition.groups()) {
      span = tracer.Begin("partition.restrict", replay, 1);
      const std::shared_ptr<const tdac::DatasetView> view =
          cache.Attributes(group);
      restrict_s += tracer.End(span);
      span = tracer.Begin("tdac.group", replay, 1);
      if (view->num_claims() > 0) Check(base->Discover(*view), "group run");
      const double one_group = tracer.End(span);
      groups_s += one_group;
      groups_max_s = std::max(groups_max_s, one_group);
    }
  }

  double discover_s = 0.0, ingest_s = 0.0, truth_s = 0.0, write_s = 0.0,
         evaluate_s = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.lane != 0) continue;
    if (s.name == "tdac.discover") discover_s = s.seconds();
    if (s.name == "data.ingest") ingest_s = s.seconds();
    if (s.name == "data.truth_load") truth_s = s.seconds();
    if (s.name == "data.write_out") write_s = s.seconds();
    if (s.name == "eval.evaluate") evaluate_s = s.seconds();
  }
  put("data.ingest_s", ingest_s);
  put("data.truth_load_s", truth_s);
  put("data.write_out_s", write_s);
  put("data.claims", static_cast<double>(data.num_claims()));
  put("td.reference_s", reference_s);
  put("td.reference_iterations", reference.iterations);
  put("tdac.discover_s", discover_s);
  put("tdac.vectors_s", vectors_s);
  put("tdac.groups_s", groups_s);
  put("tdac.groups_max_s", groups_max_s);
  put("tdac.chosen_k", report.chosen_k);
  put("tdac.unattributed_s",
      discover_s - (reference_s + vectors_s + kmeans_s + silhouette_s +
                    restrict_s + groups_s));
  put("tdac.probe_agrees",
      have_best && best_k == report.chosen_k && partition == report.partition
          ? 1.0
          : 0.0);
  put("clustering.kmeans_s", kmeans_s);
  put("clustering.silhouette_s", silhouette_s);
  put("clustering.sweep_max_k_s", max_k_s);
  put("clustering.sweep_ks", sweep_ks);
  put("clustering.kmeans_iterations", kmeans_iterations);
  // Computed, not counted: Silhouette() fills the n x n Hamming matrix's
  // upper triangle once per call.
  const double n = num_attrs;
  put("clustering.distance_evals", sweep_ks * n * (n - 1) / 2);
  put("partition.restrict_s", restrict_s);
  put("eval.evaluate_s", evaluate_s);
  put("eval.f1", traced.f1);

  // Serving layer, in process and idle: one engine, requests one at a time.
  const int serve_lane_root = tracer.Begin("serve.probe", -1, 2);
  {
    tdac::ServeOptions options;
    tdac::ServeEngine engine(options);
    auto execute = [&](tdac::ServeMode mode, int reps) {
      std::vector<double> ms;
      for (int r = 0; r < reps; ++r) {
        tdac::ServeRequest request;
        request.id = "p" + std::to_string(r);
        request.claims_path = claims;
        request.mode = mode;
        request.no_cache = true;
        const int s = tracer.Begin(mode == tdac::ServeMode::kTdac
                                       ? "serve.exec_tdac"
                                       : "serve.exec_base",
                                   serve_lane_root, 2);
        const tdac::ServeResponse response =
            engine.ExecuteBlocking(std::move(request));
        ms.push_back(tracer.End(s) * 1e3);
        if (response.outcome != tdac::ServeResponse::Outcome::kOk ||
            response.degraded()) {
          Die("in-process serve request failed");
        }
      }
      return Median(ms);
    };
    execute(tdac::ServeMode::kBase, 1);  // loads the dataset into the cache
    put("serve.exec_ms_base", execute(tdac::ServeMode::kBase, 3));
    put("serve.exec_ms_tdac", execute(tdac::ServeMode::kTdac, 1));
  }

  tdac::ServeRequest request;
  request.id = "r1";
  request.claims_path = claims;
  request.attributes = {0, 1};
  tdac::ServeResponse response;
  response.id = "r1";
  response.items = 1203;
  response.iterations = 7;
  response.latency_ms = 41.3;
  {
    const std::string journal_path = work + "/probe_journal.log";
    std::remove(journal_path.c_str());
    tdac::JournalReplay replay_state;
    std::unique_ptr<tdac::RequestJournal> journal =
        Check(tdac::RequestJournal::Open(journal_path, &replay_state),
              "open journal");
    std::vector<double> us;
    for (int r = 0; r < 20; ++r) {
      const int s = tracer.Begin("serve.journal", serve_lane_root, 2);
      const uint64_t seq = Check(journal->Admit(request), "journal admit");
      Check(journal->Complete(seq, response), "journal complete");
      us.push_back(tracer.End(s) * 1e6);
      journal->Emitted(seq);
    }
    put("serve.journal_admit_us", Median(us));
  }
  {
    const std::string line = tdac::FormatRunLine(request);
    constexpr int kReps = 20000;
    size_t sink = 0;
    const int s = tracer.Begin("serve.protocol", serve_lane_root, 2);
    for (int r = 0; r < kReps; ++r) {
      const tdac::ServeCommand command =
          Check(tdac::ParseCommandLine(line), "parse request");
      sink += command.run.attributes.size() +
              tdac::FormatResponseLine(response).size();
    }
    put("serve.protocol_us", tracer.End(s) * 1e6 / kReps);
    if (sink == 0) Die("protocol probe produced nothing");
  }
  tracer.End(serve_lane_root);

  std::map<std::string, double> self_by_module;
  for (const Span& s : tracer.spans()) {
    if (s.module() != "bench") {
      self_by_module[s.module()] += tracer.SelfSeconds(s);
    }
  }
  for (const auto& [module, seconds] : self_by_module) {
    put(module + ".self_s", seconds);
  }
  put("trace.overhead_s", traced_s - untraced_s);
  put("trace.spans", static_cast<double>(tracer.spans().size()));
  if (!tracer.WriteChromeTrace(work + "/trace.json")) Die("cannot write trace");
  PrintJson(metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (command == "fingerprint") return CmdFingerprint(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "trace") return CmdTrace(flags);
  std::cerr << "usage: tdac_probe fingerprint --claims=FILE\n"
               "       tdac_probe evaluate --claims=FILE --truth=FILE "
               "--predicted=FILE\n"
               "       tdac_probe trace --workload=NAME --claims=FILE "
               "--truth=FILE --work=DIR\n";
  return 2;
}
