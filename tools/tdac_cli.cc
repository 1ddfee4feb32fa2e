// tdac_cli — command-line front end for the library.
//
//   tdac_cli algorithms
//       List the registered truth-discovery algorithms.
//   tdac_cli generate --dataset=ds1 --out-claims=c.csv --out-truth=t.csv
//       Generate one of the paper's datasets (ds1 ds2 ds3 exam32 exam62
//       exam124 stocks flights) to CSV. [--objects=N --seed=S
//       --fill-missing --range=R]
//   tdac_cli stats --claims=c.csv [--threads=N --serial]
//       Print dataset statistics (Table 8 columns).
//   tdac_cli run --claims=c.csv --algorithm=Accu [--tdac] [--truth=t.csv]
//       Resolve truths; with --truth also print the paper's metric columns.
//       [--sparse --threads=N --serial --agglomerative --out=resolved.csv]
//       [--deadline-ms=N --iteration-budget=N]
//       [--checkpoint-dir=DIR --checkpoint-interval-ms=N --resume]
//
// --threads=N and --serial (= --threads=1) set one thread count for the
// claim load and the run, the base algorithm's own phases included. Each
// command, and each run mode, reads a fixed set of flags; any other flag
// is a usage error that names it.
//
// Exit codes: 0 clean run, 1 error, 2 usage, 3 degraded (the run hit the
// deadline / iteration budget or was stopped by SIGINT/SIGTERM; outputs
// hold the best result found so far, labeled with the stop reason). A
// degraded run with --checkpoint-dir leaves a final checkpoint behind, so
// rerunning the same command with --resume continues from where it
// stopped.

#include <algorithm>
#include <csignal>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/io.h"
#include "common/parallel.h"
#include "common/run_guard.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/dataset_io.h"
#include "data/profile.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "gen/exam.h"
#include "gen/flights.h"
#include "gen/stocks.h"
#include "gen/synthetic.h"
#include "partition/gen_partition.h"
#include "partition/greedy_partition.h"
#include "td/registry.h"
#include "tdac/tdac.h"
#include "tdac/tdoc.h"

namespace {

using tdac::Status;

// Flipped by Ctrl-C or SIGTERM (a supervisor's polite stop is honored the
// same way as an interactive interrupt). CancellationToken::Cancel() is a
// single lock-free atomic store, so calling it from the signal handler is
// safe; every iterative loop notices the token at its next guard check and
// unwinds with its best-so-far result — and, with --checkpoint-dir, a
// final checkpoint for --resume.
tdac::CancellationToken g_interrupt;

extern "C" void HandleStopSignal(int /*signum*/) { g_interrupt.Cancel(); }

struct Flags {
  std::string command;
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }

  /// The numeric flag `key`, or `fallback` when it is absent. The whole
  /// value must parse: "abc", "4x" or an out-of-range number is a usage
  /// error (exit 2) that names the flag.
  template <typename T>
  T Number(const std::string& key, T fallback) const {
    auto it = values.find(key);
    if (it != values.end()) tdac::ParseNumberFlag(key, it->second, &fallback);
    return fallback;
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  if (argc > 1) flags.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << arg << "\n";
      std::exit(2);
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "true";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

/// Exits with a usage error (2) naming the first flag `flags` carries that
/// is not in `reads`, the flags `what` (a command and its mode) reads.
void RejectUnread(const Flags& flags, const std::string& what,
                  const std::vector<std::string>& reads) {
  for (const auto& [key, value] : flags.values) {
    if (std::find(reads.begin(), reads.end(), key) == reads.end()) {
      std::cerr << "unknown flag --" << key << " for tdac_cli " << what
                << "\n";
      std::exit(2);
    }
  }
}

/// The thread count for the load and the run: --serial forces the exact
/// single-thread path, --threads=N caps the fan-out, and the default (0)
/// is the TDAC_THREADS env override, else the hardware width.
int ThreadCount(const Flags& flags) {
  const int threads = flags.Number("threads", 0);
  return flags.Has("serial") ? 1 : threads;
}

[[noreturn]] void Die(const Status& status) {
  std::cerr << "error: " << status << "\n";
  std::exit(1);
}

[[noreturn]] void Usage() {
  std::cerr
      << "usage:\n"
         "  tdac_cli algorithms\n"
         "  tdac_cli generate --dataset=<ds1|ds2|ds3|exam32|exam62|exam124|"
         "stocks|flights>\n"
         "           --out-claims=FILE --out-truth=FILE\n"
         "           [--objects=N] [--seed=S] [--fill-missing] [--range=R]\n"
         "  tdac_cli stats --claims=FILE [--threads=N] [--serial]\n"
         "  tdac_cli run --claims=FILE --algorithm=NAME "
         "[--tdac|--tdoc|--greedy|--gen-partition]\n"
         "           [--truth=FILE] [--out=FILE] [--sparse] [--threads=N] [--serial]\n"
         "           [--agglomerative] [--max-k=K] [--refine=N] [--trust-out=FILE]\n"
         "           [--deadline-ms=N] [--iteration-budget=N]\n"
         "           [--checkpoint-dir=DIR] [--checkpoint-interval-ms=N] "
         "[--resume]\n"
         "exit codes: 0 ok, 1 error, 2 usage, 3 degraded "
         "(deadline/budget/SIGINT/SIGTERM;\n"
         "            outputs hold the labeled best-so-far result, and with\n"
         "            --checkpoint-dir a final checkpoint for --resume)\n";
  std::exit(2);
}

int CmdAlgorithms(const Flags& flags) {
  RejectUnread(flags, "algorithms", {});
  for (const std::string& name : tdac::RegisteredAlgorithms()) {
    std::cout << name << "\n";
  }
  std::cout << "(any of these can also run inside TD-AC via --tdac)\n";
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string which = flags.Get("dataset");
  const auto seed = flags.Number<uint64_t>("seed", 42);
  const std::string out_claims = flags.Get("out-claims");
  const std::string out_truth = flags.Get("out-truth");
  if (which.empty() || out_claims.empty() || out_truth.empty()) Usage();
  const bool synthetic = which == "ds1" || which == "ds2" || which == "ds3";
  const bool exam =
      which == "exam32" || which == "exam62" || which == "exam124";
  if (!synthetic && !exam && which != "stocks" && which != "flights") Usage();
  std::vector<std::string> reads = {"dataset", "seed", "out-claims",
                                    "out-truth"};
  if (synthetic) reads.push_back("objects");
  if (exam) reads.insert(reads.end(), {"fill-missing", "range"});
  RejectUnread(flags, "generate --dataset=" + which, reads);

  tdac::Dataset dataset;
  tdac::GroundTruth truth;
  if (synthetic) {
    auto config = tdac::PaperSyntheticConfig(which[2] - '0', seed);
    if (!config.ok()) Die(config.status());
    config->num_objects = flags.Number("objects", config->num_objects);
    auto data = tdac::GenerateSynthetic(*config);
    if (!data.ok()) Die(data.status());
    std::cout << "planted partition: " << data->planted.ToString() << "\n";
    dataset = std::move(data->dataset);
    truth = std::move(data->truth);
  } else if (exam) {
    tdac::ExamConfig config;
    config.num_questions = std::stoi(which.substr(4));
    config.seed = seed;
    config.fill_missing = flags.Has("fill-missing");
    config.false_range = flags.Number("range", config.false_range);
    auto data = tdac::GenerateExam(config);
    if (!data.ok()) Die(data.status());
    dataset = std::move(data->dataset);
    truth = std::move(data->truth);
  } else {
    auto data = which == "stocks" ? tdac::GenerateStocks(seed)
                                  : tdac::GenerateFlights(seed);
    if (!data.ok()) Die(data.status());
    dataset = std::move(data->dataset);
    truth = std::move(data->truth);
  }

  Status s = tdac::SaveDataset(dataset, out_claims);
  if (!s.ok()) Die(s);
  s = tdac::SaveGroundTruth(truth, dataset, out_truth);
  if (!s.ok()) Die(s);
  std::cout << "generated: " << dataset.Summary() << "\n"
            << "claims -> " << out_claims << "\ntruth  -> " << out_truth
            << "\n";
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string path = flags.Get("claims");
  if (path.empty()) Usage();
  RejectUnread(flags, "stats", {"claims", "threads", "serial"});
  auto dataset = tdac::LoadDataset(path, ThreadCount(flags));
  if (!dataset.ok()) Die(dataset.status());
  tdac::PrintProfile(tdac::ProfileDataset(*dataset), std::cout);
  return 0;
}

int CmdRun(const Flags& flags) {
  const std::string claims_path = flags.Get("claims");
  const std::string algorithm_name = flags.Get("algorithm", "Accu");
  if (claims_path.empty()) Usage();
  if (flags.Has("resume") && !flags.Has("checkpoint-dir")) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    return 2;
  }
  // The mode is the first of --tdac, --tdoc, --greedy, --gen-partition
  // given; a run without one is the base algorithm alone.
  std::string mode;
  for (const char* candidate : {"tdac", "tdoc", "greedy", "gen-partition"}) {
    if (flags.Has(candidate)) {
      mode = candidate;
      break;
    }
  }
  std::vector<std::string> reads = {"claims", "algorithm", "truth", "out",
                                    "trust-out", "threads", "serial",
                                    "deadline-ms", "iteration-budget",
                                    "checkpoint-dir"};
  if (flags.Has("checkpoint-dir")) {
    reads.insert(reads.end(), {"checkpoint-interval-ms", "resume"});
  }
  if (mode == "tdac") {
    reads.insert(reads.end(),
                 {"tdac", "sparse", "agglomerative", "max-k", "refine"});
  } else if (mode == "tdoc") {
    reads.insert(reads.end(), {"tdoc", "max-k"});
  } else if (!mode.empty()) {
    reads.push_back(mode);
  }
  RejectUnread(flags, mode.empty() ? "run" : "run --" + mode, reads);
  const int threads = ThreadCount(flags);
  // Every loop of the run, down to the base algorithm's blocks, runs at
  // this width (TD-AC and the partition searches also get it explicitly).
  const tdac::RunWidthScope width(threads);

  auto dataset = tdac::LoadDataset(claims_path, threads);
  if (!dataset.ok()) Die(dataset.status());

  auto base = tdac::MakeAlgorithm(algorithm_name);
  if (!base.ok()) Die(base.status());

  // Durable checkpoint/resume (docs/checkpointing.md): snapshots land in
  // --checkpoint-dir, and --resume continues a run that was killed or hit
  // its deadline. The Checkpointer outlives the algorithm objects below.
  std::unique_ptr<tdac::Checkpointer> checkpointer;
  if (flags.Has("checkpoint-dir")) {
    tdac::CheckpointOptions ckpt_options;
    ckpt_options.dir = flags.Get("checkpoint-dir");
    ckpt_options.interval_ms =
        flags.Number("checkpoint-interval-ms", ckpt_options.interval_ms);
    ckpt_options.resume = flags.Has("resume");
    Status s = tdac::EnsureDirectory(ckpt_options.dir);
    if (!s.ok()) Die(s);
    checkpointer = std::make_unique<tdac::Checkpointer>(ckpt_options);
  }

  std::unique_ptr<tdac::Tdac> tdac_algo;
  std::unique_ptr<tdac::Tdoc> tdoc_algo;
  std::unique_ptr<tdac::GenPartitionAlgorithm> gen_algo;
  std::unique_ptr<tdac::GreedyPartitionAlgorithm> greedy_algo;
  const tdac::TruthDiscovery* algorithm = base->get();
  if (mode == "tdac") {
    tdac::TdacOptions options;
    options.base = base->get();
    options.sparse_aware = flags.Has("sparse");
    options.threads = threads;
    if (flags.Has("agglomerative")) {
      options.backend = tdac::ClusteringBackend::kAgglomerative;
    }
    options.max_k = flags.Number("max-k", options.max_k);
    options.refinement_rounds =
        flags.Number("refine", options.refinement_rounds);
    options.checkpointer = checkpointer.get();
    tdac_algo = std::make_unique<tdac::Tdac>(options);
    algorithm = tdac_algo.get();
  } else if (mode == "tdoc") {
    tdac::TdocOptions options;
    options.base = base->get();
    options.max_k = flags.Number("max-k", options.max_k);
    options.threads = threads;
    options.checkpointer = checkpointer.get();
    tdoc_algo = std::make_unique<tdac::Tdoc>(options);
    algorithm = tdoc_algo.get();
  } else if (mode == "greedy" || mode == "gen-partition") {
    tdac::GenPartitionOptions options;
    options.base = base->get();
    options.threads = threads;
    options.checkpointer = checkpointer.get();
    if (mode == "greedy") {
      greedy_algo = std::make_unique<tdac::GreedyPartitionAlgorithm>(options);
      algorithm = greedy_algo.get();
    } else {
      gen_algo = std::make_unique<tdac::GenPartitionAlgorithm>(options);
      algorithm = gen_algo.get();
    }
  }

  // One guard spans the whole command: the deadline is wall-clock from
  // here, and Ctrl-C cancels whichever phase is running.
  tdac::RunBudget budget;
  budget.deadline_ms = flags.Number("deadline-ms", budget.deadline_ms);
  budget.max_total_iterations =
      flags.Number("iteration-budget", budget.max_total_iterations);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const tdac::RunGuard guard(budget, &g_interrupt);

  std::optional<tdac::GroundTruth> truth;
  if (flags.Has("truth")) {
    auto loaded = tdac::LoadGroundTruth(flags.Get("truth"), *dataset);
    if (!loaded.ok()) Die(loaded.status());
    truth = std::move(loaded).value();
  }

  // One run feeds the metrics table and every output file, so the deadline
  // and the iteration budget are spent on it alone.
  tdac::WallTimer timer;
  auto result = algorithm->Discover(*dataset, guard);
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) Die(result.status());
  if (truth) {
    tdac::PrintPerformanceTable(
        dataset->Summary(),
        {tdac::MakeExperimentRow(*algorithm, *result, seconds, *dataset,
                                 *truth)},
        std::cout);
  }
  if (flags.Has("trust-out")) {
    Status s = tdac::SaveSourceTrust(result->source_trust, *dataset,
                                     flags.Get("trust-out"));
    if (!s.ok()) Die(s);
    std::cout << "source trust -> " << flags.Get("trust-out") << "\n";
  }
  if (flags.Has("out")) {
    Status s =
        tdac::SaveGroundTruth(result->predicted, *dataset, flags.Get("out"));
    if (!s.ok()) Die(s);
    std::cout << "resolved " << result->predicted.size() << " data items -> "
              << flags.Get("out") << "\n";
  } else if (!truth) {
    std::cout << "resolved " << result->predicted.size()
              << " data items (use --out=FILE to write them)\n";
  }
  if (result->degraded()) {
    std::cerr << "run degraded: stopped early ("
              << tdac::StopReasonToString(result->stop_reason)
              << "); outputs hold the best result found so far\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.command == "algorithms") return CmdAlgorithms(flags);
  if (flags.command == "generate") return CmdGenerate(flags);
  if (flags.command == "stats") return CmdStats(flags);
  if (flags.command == "run") return CmdRun(flags);
  Usage();
}
