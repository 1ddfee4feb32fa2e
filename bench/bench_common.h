#ifndef TDAC_BENCH_BENCH_COMMON_H_
#define TDAC_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table-reproduction benches: a tiny flag parser
// (--objects=N --seed=S --full), construction of the paper's five standard
// algorithms, and experiment-table printing.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint.h"
#include "common/io.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "data/dataset_like.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "td/accu.h"
#include "td/accu_sim.h"
#include "td/depen.h"
#include "td/majority_vote.h"
#include "td/truth_finder.h"

namespace tdac_bench {

struct BenchArgs {
  /// Scale override for synthetic benches (0 = bench default).
  int objects = 0;

  uint64_t seed = 42;

  /// Thread count for the parallel execution layer: 0 defers to the
  /// process default (`TDAC_THREADS` env override, else hardware
  /// concurrency); 1 forces the exact serial path.
  int threads = 0;

  /// Run at full paper scale / full sweep ranges (slower).
  bool full = false;

  /// Print 0.000 in every Time(s) column. Wall-clock time is the one
  /// nondeterministic field in the reproduction tables; zeroing it makes
  /// the whole bench output byte-comparable, which is what the golden-file
  /// regression test (tests/bench_golden_test.cc) keys on.
  bool zero_time = false;

  /// The thread count actually in effect for this run (resolves the 0
  /// default); recorded in every bench table/JSON that times parallel
  /// code so perf numbers are attributable to a configuration.
  int EffectiveThreads() const { return tdac::EffectiveThreadCount(threads); }

  /// When non-empty, benches that back a paper figure also write the
  /// figure's data series as CSV + gnuplot script into this directory.
  std::string export_dir;

  /// Durable checkpoint/resume of completed row sets
  /// (docs/checkpointing.md): with --checkpoint-dir a bench snapshots each
  /// finished table, and --resume replays snapshotted tables instead of
  /// recomputing them. Empty dir disables (the exact pre-checkpoint path).
  std::string checkpoint_dir;
  double checkpoint_interval_ms = 0.0;  // row sets are stored as completed
  bool resume = false;
};

/// Process-wide mirror of BenchArgs::zero_time, so the printing helpers
/// below honour the flag without every call site threading args through.
inline bool& ZeroTimeFlag() {
  static bool flag = false;
  return flag;
}

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value_of = [&](const std::string& prefix) -> std::string {
      return a.substr(prefix.size());
    };
    if (a.rfind("--objects=", 0) == 0) {
      tdac::ParseNumberFlag("objects", value_of("--objects="), &args.objects);
    } else if (a.rfind("--seed=", 0) == 0) {
      tdac::ParseNumberFlag("seed", value_of("--seed="), &args.seed);
    } else if (a == "--full") {
      args.full = true;
    } else if (a == "--zero-time") {
      args.zero_time = true;
    } else if (a.rfind("--threads=", 0) == 0) {
      tdac::ParseNumberFlag("threads", value_of("--threads="), &args.threads);
    } else if (a.rfind("--export-dir=", 0) == 0) {
      args.export_dir = value_of("--export-dir=");
    } else if (a.rfind("--checkpoint-dir=", 0) == 0) {
      args.checkpoint_dir = value_of("--checkpoint-dir=");
    } else if (a.rfind("--checkpoint-interval-ms=", 0) == 0) {
      tdac::ParseNumberFlag("checkpoint-interval-ms",
                            value_of("--checkpoint-interval-ms="),
                            &args.checkpoint_interval_ms);
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "flags: [--objects=N] [--seed=S] [--threads=N] [--full] "
                   "[--zero-time] [--export-dir=DIR] [--checkpoint-dir=DIR] "
                   "[--checkpoint-interval-ms=N] [--resume]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << a << " (try --help)\n";
      std::exit(2);
    }
  }
  ZeroTimeFlag() = args.zero_time;
  return args;
}

/// Applies --zero-time: blanks the nondeterministic wall-clock field so
/// printed tables are byte-stable run to run.
inline void MaybeZeroTimes(std::vector<tdac::ExperimentRow>* rows) {
  if (!ZeroTimeFlag()) return;
  for (auto& r : *rows) r.seconds = 0.0;
}

/// \brief A flat JSON object with insertion-ordered fields, for
/// machine-readable bench output (one record per measured point).
///
/// Strings are escaped minimally (quote/backslash/control chars); numbers
/// are emitted via ostringstream so they round-trip doubles.
class JsonRecord {
 public:
  JsonRecord& Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonRecord& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonRecord& Set(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(17);
    os << value;
    fields_.emplace_back(key, os.str());
    return *this;
  }
  JsonRecord& Set(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  JsonRecord& Set(const std::string& key, size_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& Set(const std::string& key, unsigned long long value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes `records` as a JSON array, one record per line.
inline void WriteJsonArray(std::ostream& os,
                           const std::vector<JsonRecord>& records) {
  os << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    os << "  " << records[i].ToString() << (i + 1 < records.size() ? "," : "")
       << "\n";
  }
  os << "]\n";
}

/// Writes the records to `<export_dir>/<filename>` when an export dir was
/// given (atomically — a crash mid-export never leaves a torn JSON file),
/// and always echoes them to stdout (so the JSON is in the bench log
/// either way). Exits on IO failure.
inline void ExportJson(const BenchArgs& args, const std::string& filename,
                       const std::vector<JsonRecord>& records) {
  if (!args.export_dir.empty()) {
    const std::string path = args.export_dir + "/" + filename;
    std::ostringstream buffer;
    WriteJsonArray(buffer, records);
    if (tdac::Status s = tdac::AtomicWriteFile(path, buffer.str()); !s.ok()) {
      std::cerr << "cannot write " << path << ": " << s << "\n";
      std::exit(1);
    }
    std::cout << "json -> " << path << "\n";
  }
  WriteJsonArray(std::cout, records);
}

/// The five standard algorithms of the paper's Section 4.1, with their
/// published default hyper-parameters.
struct StandardAlgorithms {
  tdac::MajorityVote majority_vote;
  tdac::TruthFinder truth_finder;
  tdac::Depen depen;
  tdac::Accu accu;
  tdac::AccuSim accu_sim;

  std::vector<const tdac::TruthDiscovery*> all() const {
    return {&majority_vote, &truth_finder, &depen, &accu, &accu_sim};
  }
};

/// Runs `algorithms` on (data, truth) and prints a paper-style table;
/// exits non-zero on failure. Returns the rows for further shape checks.
inline std::vector<tdac::ExperimentRow> RunAndPrint(
    const std::string& title,
    const std::vector<const tdac::TruthDiscovery*>& algorithms,
    const tdac::Dataset& data, const tdac::GroundTruth& truth) {
  auto rows = tdac::RunExperiments(algorithms, data, truth);
  if (!rows.ok()) {
    std::cerr << "bench failed: " << rows.status() << "\n";
    std::exit(1);
  }
  MaybeZeroTimes(&rows.value());
  tdac::PrintPerformanceTable(title, *rows, std::cout);
  return std::move(rows).value();
}

/// One checkpoint payload record per row, after the row count:
/// `<algo> <5 metric hexes> <6 counts> <seconds hex> <iters> <stop>`.
/// Doubles are IEEE-754 hex so a replayed table is bit-identical to the
/// run that stored it (including its — nondeterministic — Time column).
inline std::string SerializeRows(const std::vector<tdac::ExperimentRow>& rows) {
  tdac::PayloadWriter out;
  (out << rows.size()).End();
  for (const auto& r : rows) {
    const auto& m = r.metrics;
    (out << r.algorithm << m.precision << m.recall << m.accuracy << m.f1
         << m.item_accuracy << m.counts.tp << m.counts.fp << m.counts.tn
         << m.counts.fn << m.counts.skipped_claims << m.items_evaluated
         << r.seconds << r.iterations << static_cast<int>(r.stop_reason))
        .End();
  }
  return out.Take();
}

/// Inverse of SerializeRows; false (leaving `*rows` alone) if malformed.
inline bool ParseRows(std::string_view payload,
                      std::vector<tdac::ExperimentRow>* rows) {
  tdac::PayloadReader in(payload);
  std::vector<tdac::ExperimentRow> parsed(in.Count());
  for (tdac::ExperimentRow& r : parsed) {
    auto& m = r.metrics;
    int stop = 0;
    in >> r.algorithm >> m.precision >> m.recall >> m.accuracy >> m.f1 >>
        m.item_accuracy >> m.counts.tp >> m.counts.fp >> m.counts.tn >>
        m.counts.fn >> m.counts.skipped_claims >> m.items_evaluated >>
        r.seconds >> r.iterations >> stop;
    if (stop < static_cast<int>(tdac::StopReason::kConverged) ||
        stop > static_cast<int>(tdac::StopReason::kOverloaded)) {
      return false;
    }
    r.stop_reason = static_cast<tdac::StopReason>(stop);
  }
  if (!in.Finish().ok()) return false;
  *rows = std::move(parsed);
  return true;
}

/// \brief Per-bench checkpoint/resume of completed table row sets.
///
/// Each finished table is stored under its own slot; resuming replays the
/// stored rows (printing the table exactly as the original run did, timing
/// column included) instead of recomputing them, so a bench killed between
/// tables picks up where it stopped. `Finish()` removes every slot this run
/// touched — a bench that ran to completion leaves no resume state behind.
class BenchCheckpoint {
 public:
  static BenchCheckpoint FromArgs(const BenchArgs& args) {
    BenchCheckpoint bc;
    if (args.checkpoint_dir.empty()) return bc;
    tdac::CheckpointOptions options;
    options.dir = args.checkpoint_dir;
    options.interval_ms = args.checkpoint_interval_ms;
    options.resume = args.resume;
    if (tdac::Status s = tdac::EnsureDirectory(options.dir); !s.ok()) {
      std::cerr << "cannot create checkpoint dir: " << s << "\n";
      std::exit(1);
    }
    bc.ckpt_ = std::make_unique<tdac::Checkpointer>(options);
    return bc;
  }

  bool enabled() const { return ckpt_ != nullptr; }

  /// RunAndPrint with resume: a stored row set whose context (title +
  /// dataset fingerprint + algorithm list) matches is replayed instead of
  /// recomputed; otherwise the table runs and its rows are snapshotted.
  std::vector<tdac::ExperimentRow> RunAndPrintResumable(
      const std::string& slot, const std::string& title,
      const std::vector<const tdac::TruthDiscovery*>& algorithms,
      const tdac::Dataset& data, const tdac::GroundTruth& truth) {
    if (!enabled()) return RunAndPrint(title, algorithms, data, truth);
    std::ostringstream ctx_out;
    ctx_out << title << " fp=" << std::hex << tdac::DatasetFingerprint(data);
    for (const auto* algo : algorithms) ctx_out << ' ' << algo->name();
    const std::string ctx = ctx_out.str();
    slots_.push_back(slot);

    auto stored = ckpt_->LoadForResume(slot, ctx);
    if (!stored.ok()) {
      std::cerr << "checkpoint load failed: " << stored.status() << "\n";
      std::exit(1);
    }
    std::vector<tdac::ExperimentRow> rows;
    if (stored.value() && ParseRows(**stored, &rows)) {
      MaybeZeroTimes(&rows);
      tdac::PrintPerformanceTable(title, rows, std::cout);
      return rows;
    }
    rows = RunAndPrint(title, algorithms, data, truth);
    if (tdac::Status s = ckpt_->StoreNow(slot, ctx, SerializeRows(rows));
        !s.ok()) {
      std::cerr << "checkpoint store failed: " << s << "\n";
      std::exit(1);
    }
    return rows;
  }

  /// Clean completion: drop every slot used this run.
  void Finish() {
    if (!enabled()) return;
    for (const std::string& slot : slots_) {
      if (tdac::Status s = ckpt_->Remove(slot); !s.ok()) {
        std::cerr << "checkpoint cleanup failed: " << s << "\n";
        std::exit(1);
      }
    }
    slots_.clear();
  }

 private:
  std::unique_ptr<tdac::Checkpointer> ckpt_;
  std::vector<std::string> slots_;
};

inline const tdac::ExperimentRow& RowOf(
    const std::vector<tdac::ExperimentRow>& rows, const std::string& name) {
  for (const auto& r : rows) {
    if (r.algorithm == name) return r;
  }
  std::cerr << "missing row " << name << "\n";
  std::exit(1);
}

}  // namespace tdac_bench

#endif  // TDAC_BENCH_BENCH_COMMON_H_
