// tdac_serve — long-lived serving daemon for the library.
//
// Speaks the line-delimited protocol of src/serve/protocol.h over
// stdin/stdout (one request per line, one tagged response line per
// request, responses possibly out of order), so it can sit behind a pipe,
// a socket wrapper, or the bench_serve_load generator unchanged:
//
//   tdac_serve [--workers=N] [--queue-capacity=N]
//              [--result-cache-bytes=N] [--dataset-cache-bytes=N]
//              [--restriction-cache=N] [--default-deadline-ms=N]
//              [--execution-delay-ms=N] [--max-line-bytes=N]
//              [--journal=PATH] [--checkpoint-dir=DIR]
//
// Requests are admitted against a bounded queue (workers + queue-capacity
// in flight); everything past that is rejected immediately with
// `reject ... reason=Overloaded` instead of queueing unboundedly, so an
// overloaded daemon stays responsive and recovers the moment load drops.
// Per-request deadlines (deadline-ms=) are measured from admission and
// produce labeled best-so-far results when they expire (docs/serving.md).
//
// Crash tolerance (--journal=): every run request is durably journaled
// before execution and marked complete before its response line is
// written, so a restarted daemon (tdac_supervise restarts crashed
// workers) replays what its predecessor owed — recorded-but-unacked
// responses are re-emitted verbatim and never re-executed; admitted-but-
// unfinished requests are re-executed (resuming mid-run checkpoints when
// --checkpoint-dir is set). Replayed responses carry `replayed=1` so
// clients can dedup by id (src/serve/journal.h).
//
// Exit codes mirror tdac_cli: 0 clean (stdin EOF or `shutdown`, all
// outstanding work completed), 3 terminated by SIGINT/SIGTERM (in-flight
// runs were cancelled and answered with best-so-far results before exit).

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "serve/engine.h"
#include "serve/journal.h"
#include "serve/protocol.h"

namespace {

// Signal plumbing: the handler only does async-signal-safe work — set the
// flag and flip the engine's cancellation token (one lock-free atomic
// store each). The main loop notices on its next getline return; in-flight
// runs notice at their next guard check and unwind with best-so-far
// results. Installed via sigaction *without* SA_RESTART so a blocking
// stdin read returns EINTR instead of resuming.
volatile std::sig_atomic_t g_signalled = 0;
tdac::ServeEngine* g_engine = nullptr;

extern "C" void HandleStopSignal(int /*signum*/) {
  g_signalled = 1;
  if (g_engine != nullptr) g_engine->cancellation()->Cancel();
}

void InstallStopHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: wake the blocked stdin read
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

// Reads one request line straight off fd 0 instead of through std::cin:
// iostreams fold a signal-interrupted read into eofbit, but the loop below
// must tell "the pipe closed" (clean exit 0) apart from "a signal woke the
// read" (cancel + exit 3), and only errno can make that call. kOverlong
// means the line exceeded the cap: the rest of the line was consumed and
// discarded so the stream stays in sync, and the caller answers with an
// error instead of buffering unboundedly against a hostile writer.
enum class ReadStatus { kLine, kEof, kInterrupted, kOverlong };

ReadStatus ReadLineFromStdin(std::string* line, size_t max_bytes) {
  line->clear();
  bool overlong = false;
  for (;;) {
    char ch = 0;
    const ssize_t n = read(STDIN_FILENO, &ch, 1);
    if (n == 1) {
      if (ch == '\n') {
        return overlong ? ReadStatus::kOverlong : ReadStatus::kLine;
      }
      if (overlong) continue;  // discarding the rest of the huge line
      line->push_back(ch);
      if (line->size() > max_bytes) {
        overlong = true;
        line->clear();
      }
    } else if (n == 0) {
      // Pipe closed; a final unterminated line still gets served.
      if (overlong) return ReadStatus::kOverlong;
      return line->empty() ? ReadStatus::kEof : ReadStatus::kLine;
    } else if (errno == EINTR) {
      return ReadStatus::kInterrupted;
    } else {
      return ReadStatus::kEof;
    }
  }
}

// All response lines (emitted from engine worker threads) and control
// replies (main thread) go through one mutex so lines never interleave.
std::mutex g_stdout_mutex;

void EmitLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_stdout_mutex);
  std::cout << line << "\n" << std::flush;
}

std::string FormatStatsLine(const std::string& id,
                            const tdac::ServeEngine::Stats& stats,
                            const tdac::RequestJournal* journal) {
  std::ostringstream out;
  out << "stats id=" << id << " submitted=" << stats.submitted
      << " rejected=" << stats.rejected << " completed=" << stats.completed
      << " executions=" << stats.executions
      << " cache-hits=" << stats.cache_hits
      << " coalesced=" << stats.coalesced
      << " deadline-degraded=" << stats.deadline_degraded
      << " errors=" << stats.errors << " in-flight=" << stats.in_flight
      << " pool-queued=" << stats.pool_queued
      << " pool-active=" << stats.pool_active
      << " result-cache-live=" << stats.result_cache.live
      << " result-cache-evictions=" << stats.result_cache.evictions
      << " result-cache-bytes=" << stats.result_cache.bytes
      << " result-cache-budget=" << stats.result_cache.max_bytes
      << " result-cache-oversized=" << stats.result_cache.oversized
      << " dataset-cache-live=" << stats.dataset_cache_live
      << " dataset-cache-bytes=" << stats.dataset_cache_bytes
      << " dataset-cache-budget=" << stats.dataset_cache_budget;
  if (journal != nullptr) {
    const tdac::RequestJournal::Stats js = journal->stats();
    out << " journal-live=" << js.live << " journal-appends=" << js.appends
        << " journal-failures=" << js.append_failures
        << " journal-compactions=" << js.compactions
        << " journal-bytes=" << js.file_bytes;
  }
  return out.str();
}

[[noreturn]] void Usage() {
  std::cerr << "usage: tdac_serve [--workers=N] [--queue-capacity=N]\n"
               "                  [--result-cache-bytes=N]\n"
               "                  [--dataset-cache-bytes=N]\n"
               "                  [--restriction-cache=N]\n"
               "                  [--default-deadline-ms=N]\n"
               "                  [--execution-delay-ms=N]\n"
               "                  [--max-line-bytes=N]\n"
               "                  [--journal=PATH] [--checkpoint-dir=DIR]\n"
               "reads one request per line on stdin (see src/serve/protocol.h),"
               "\nwrites one tagged response line per request on stdout.\n"
               "--journal makes admitted requests crash-durable: a restarted\n"
               "daemon re-executes unfinished work and re-emits unacked\n"
               "responses flagged replayed=1 (docs/serving.md).\n"
               "exit codes: 0 clean shutdown, 2 usage, 3 stopped by "
               "SIGINT/SIGTERM\n";
  std::exit(2);
}

/// Submits one journaled request: the journal seq travels with the
/// callback so completion is recorded (durably) before the response line
/// reaches stdout, and delivery is recorded after.
void SubmitJournaled(tdac::ServeEngine* engine, tdac::RequestJournal* journal,
                     tdac::ServeRequest request, uint64_t seq) {
  engine->Submit(std::move(request),
                 [journal, seq](const tdac::ServeResponse& response) {
                   if (journal != nullptr && seq != 0) {
                     const tdac::Status done = journal->Complete(seq, response);
                     if (!done.ok()) {
                       std::cerr << "tdac_serve: journal done record failed: "
                                 << done.message() << "\n";
                     }
                   }
                   EmitLine(tdac::FormatResponseLine(response));
                   if (journal != nullptr && seq != 0) journal->Emitted(seq);
                 });
}

/// Settles the previous generation's debts before any new input is read:
/// re-emit every recorded-but-unacked response verbatim, re-execute every
/// admitted-but-unfinished request (in admission order, sequentially —
/// replay is about correctness, not throughput), all flagged replayed=1.
void ReplayJournal(tdac::ServeEngine* engine, tdac::RequestJournal* journal,
                   const tdac::JournalReplay& replay) {
  if (replay.dropped > 0) {
    std::cerr << "tdac_serve: journal replay dropped " << replay.dropped
              << " torn/corrupt record(s)\n";
  }
  // Unacked first: their executions finished before every pending
  // request's, so re-emitting first preserves rough completion order.
  for (const tdac::JournalReplay::Unacked& unacked : replay.unacked) {
    tdac::ServeResponse response = unacked.response;
    response.replayed = true;
    EmitLine(tdac::FormatResponseLine(response));
    journal->Emitted(unacked.seq);
  }
  for (const tdac::JournalReplay::Pending& pending : replay.pending) {
    if (g_signalled != 0) break;
    tdac::ServeResponse response = engine->ExecuteBlocking(pending.request);
    response.replayed = true;
    const tdac::Status done = journal->Complete(pending.seq, response);
    if (!done.ok()) {
      std::cerr << "tdac_serve: journal done record failed during replay: "
                << done.message() << "\n";
    }
    EmitLine(tdac::FormatResponseLine(response));
    journal->Emitted(pending.seq);
  }
  if (!replay.unacked.empty() || !replay.pending.empty()) {
    std::cerr << "tdac_serve: journal replay re-emitted "
              << replay.unacked.size() << " response(s), re-executed "
              << replay.pending.size() << " request(s)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  tdac::ServeOptions options;
  std::string journal_path;
  size_t max_line_bytes = 1u << 20;  // 1 MiB: past any legitimate request
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) Usage();
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workers") {
      tdac::ParseNumberFlag(key, value, &options.workers);
    } else if (key == "queue-capacity") {
      tdac::ParseNumberFlag(key, value, &options.queue_capacity);
    } else if (key == "result-cache-bytes") {
      tdac::ParseNumberFlag(key, value, &options.result_cache_bytes);
    } else if (key == "dataset-cache-bytes") {
      tdac::ParseNumberFlag(key, value, &options.dataset_cache_bytes);
    } else if (key == "restriction-cache") {
      tdac::ParseNumberFlag(key, value, &options.restriction_cache_capacity);
    } else if (key == "default-deadline-ms") {
      tdac::ParseNumberFlag(key, value, &options.default_deadline_ms);
    } else if (key == "execution-delay-ms") {
      tdac::ParseNumberFlag(key, value, &options.execution_delay_ms);
    } else if (key == "max-line-bytes") {
      tdac::ParseNumberFlag(key, value, &max_line_bytes);
    } else if (key == "journal") {
      journal_path = value;
    } else if (key == "checkpoint-dir") {
      options.checkpoint_dir = value;
    } else {
      Usage();
    }
  }
  if (options.workers < 1 || options.queue_capacity < 0 ||
      max_line_bytes < 64) {
    Usage();
  }

  // The journal outlives the engine (declared first), so worker-thread
  // callbacks touching it during the final drain stay valid.
  std::unique_ptr<tdac::RequestJournal> journal;
  tdac::JournalReplay replay;
  if (!journal_path.empty()) {
    auto opened = tdac::RequestJournal::Open(journal_path, &replay);
    if (!opened.ok()) {
      std::cerr << "tdac_serve: cannot open journal " << journal_path << ": "
                << opened.status().message() << "\n";
      return 2;
    }
    journal = std::move(opened).MoveValue();
  }

  tdac::ServeEngine engine(options);
  g_engine = &engine;
  InstallStopHandlers();
  std::cerr << "tdac_serve: ready (workers=" << options.workers
            << " queue-capacity=" << options.queue_capacity
            << " admitting " << options.workers + options.queue_capacity
            << " in flight"
            << (journal != nullptr ? ", journal=" + journal_path : "") << ")\n";

  // Honor the previous generation's journal before reading any new input:
  // replayed responses reach the client first, in admission order.
  if (journal != nullptr) ReplayJournal(&engine, journal.get(), replay);

  bool clean_shutdown = false;
  std::string line;
  while (g_signalled == 0) {
    const ReadStatus read_status = ReadLineFromStdin(&line, max_line_bytes);
    if (read_status == ReadStatus::kEof) break;
    if (read_status == ReadStatus::kInterrupted) {
      // A signal woke the read. The handler normally ran before the
      // syscall returned EINTR, but some runtimes (TSan's interceptors)
      // defer it until the next library call — wait boundedly for the
      // flag so the exit path agrees with what actually happened, then
      // let the loop condition decide (a spurious EINTR just resumes).
      for (int i = 0; g_signalled == 0 && i < 1000; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    if (read_status == ReadStatus::kOverlong) {
      tdac::ServeResponse response;
      response.id = "?";
      response.outcome = tdac::ServeResponse::Outcome::kError;
      response.status = tdac::Status::InvalidArgument(
          "request line exceeds " + std::to_string(max_line_bytes) +
          " bytes (--max-line-bytes)");
      EmitLine(tdac::FormatResponseLine(response));
      continue;
    }
    auto command = tdac::ParseCommandLine(line);
    if (!command.ok()) {
      if (command.status().code() == tdac::StatusCode::kNotFound) {
        continue;  // blank line or comment
      }
      // A malformed line has no parseable id to tag; answer with id=?
      // so the client's reader stays in sync.
      tdac::ServeResponse response;
      response.id = "?";
      response.outcome = tdac::ServeResponse::Outcome::kError;
      response.status = command.status();
      EmitLine(tdac::FormatResponseLine(response));
      continue;
    }
    switch (command->kind) {
      case tdac::ServeCommand::Kind::kRun: {
        // Journal before execution: once Admit returns, a crash anywhere
        // later cannot silently lose this request. A journal append
        // failure degrades to journal-less serving for this one request
        // (availability over durability) and is counted in stats.
        uint64_t seq = 0;
        if (journal != nullptr) {
          auto admitted = journal->Admit(command->run);
          if (admitted.ok()) {
            seq = *admitted;
          } else {
            std::cerr << "tdac_serve: journal admit failed (request '"
                      << command->id << "' served unjournaled): "
                      << admitted.status().message() << "\n";
          }
        }
        SubmitJournaled(&engine, journal.get(), std::move(command->run), seq);
        break;
      }
      case tdac::ServeCommand::Kind::kStats:
        EmitLine(FormatStatsLine(command->id, engine.stats(), journal.get()));
        break;
      case tdac::ServeCommand::Kind::kPing:
        EmitLine("pong id=" + command->id);
        break;
      case tdac::ServeCommand::Kind::kShutdown:
        engine.Drain();  // outstanding responses flush before the ack
        EmitLine("bye id=" + command->id);
        clean_shutdown = true;
        break;
    }
    if (clean_shutdown) break;
  }

  if (g_signalled != 0) {
    // The handler already cancelled the engine token; Shutdown() drains
    // the (now fast-unwinding) in-flight runs, each answering with its
    // labeled best-so-far result before the process exits.
    engine.Shutdown();
    g_engine = nullptr;
    if (journal != nullptr) {
      // Every in-flight request was answered and emit-recorded above, so
      // this leaves a compact (normally empty) journal behind.
      const tdac::Status compacted = journal->Compact();
      if (!compacted.ok()) {
        std::cerr << "tdac_serve: final journal compaction failed: "
                  << compacted.message() << "\n";
      }
    }
    std::cerr << "tdac_serve: stopped by signal; in-flight runs answered "
                 "with best-so-far results\n";
    return 3;
  }
  engine.Drain();
  g_engine = nullptr;
  if (journal != nullptr) {
    const tdac::Status compacted = journal->Compact();
    if (!compacted.ok()) {
      std::cerr << "tdac_serve: final journal compaction failed: "
                << compacted.message() << "\n";
    }
  }
  std::cerr << "tdac_serve: clean shutdown\n";
  return 0;
}
