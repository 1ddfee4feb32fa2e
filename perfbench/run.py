#!/usr/bin/env python3
"""The repo benchmark: TD-AC's two user surfaces, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first run builds the CLI, the daemon and
the traced probe from source into .bench_build/ (perfbench/CMakeLists.txt);
inputs and outputs of each run go to .bench_work/<workload>/.

Workloads (BENCHMARK.json says why each exists):
  wide_exam124  exam simulator, 124 questions x 248 students, one object.
  tall_ds2      DS2 synthetic, 20,000 objects x 6 attributes x 10 sources.
  serve_mix     tdac_serve --journal over stocks, flights and ds2@2000,
                driven open loop from this process over its stdin/stdout.

--trace 0 times the surfaces with tracing off and prints the end-to-end
metrics. The batch workloads time `tdac_cli run --claims --truth
--algorithm=Accu --tdac --out` at N = min(4, nproc) threads and at --serial,
as often as the --seconds budget allows; a "request" there is one N-thread
run. serve_mix times the same CLI command on its stocks dataset for run_s,
run_serial_s and f1, then drives the daemon open loop: requests are timed
from when they were due, at a fixed reference rate, then up a fixed rate
ladder for goodput. Every metric is printed on every workload.

--trace 1 prints the per-layer metrics instead. tdac_probe runs the CLI
pipeline in process with spans around each public call and replays TD-AC's
internals (see probe.cc); a short daemon session gives the serve-layer
counters, and one untraced CLI run per mode gives
common.parallel_efficiency. The spans are written as Chrome trace-event
JSON to .bench_work/<workload>/trace.json.

Every run prints a manifest line (sources, build, threads, seed, and the
DatasetFingerprint and shape of each input) before its result, which is the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
THREADS = min(4, os.cpu_count() or 1)

# Held out for validating later claims: never used while tuning a change.
HELD_OUT_SEED = 20211

# serve_mix traffic, fixed from measurements of this tree on 4 cores.
SERVE_WORKERS = 2
# Deep enough that short bursts of TD-AC requests queue instead of being
# shed, so the ladder finds where throughput runs out, not burst luck.
SERVE_QUEUE_CAPACITY = 64
# In flight at a ladder step's end beyond its start (0: the previous step
# drained) that counts as a growing backlog: the default admission queue.
BACKLOG_SLACK = 8
# Light load: at 6 rps the two workers are busy about a quarter of the time,
# so latency is mostly service time rather than luck in the queue.
REFERENCE_RPS = 6.0
# The ladder's first step is the reference phase itself. Steps triple:
# capacity (~30 rps here) moves by ~15% with the machine's speed, and a step
# near it would make goodput flip between two steps from run to run.
LADDER_RPS = (18.0, 54.0, 162.0, 486.0)
LADDER_STEP_S = 2.5
# Shares of --seconds: the reference-rate phase, the CLI runs on
# CLI_DATASET; the ladder gets the rest.
REFERENCE_SHARE = 0.7
CLI_SHARE = 0.2
LATENCY_LIMIT_MS = 1000.0
MAX_GENERATOR_LAG_MS = 50.0
STATS_INTERVAL_S = 0.25
WARMUP_S = 3.0
CLI_WARMUP_S = 2.0
# One block of the action mix: how many of each action per block, and the
# datasets each action rotates over. The proportions put each reported
# percentile inside one kind of request on one dataset, low in its range:
# cache reads (repeats and one-attribute restrictions) are 10 of 21, so the
# median lands near the fast end of the no-cache base runs (the 3rd of 40
# at --seconds 25), all on ds2@2000, whose Accu runs take 8 iterations on
# every sample (stocks takes 4 to 6); TD-AC runs, all on ds2@2000 too, are
# 3 of 21, so the tail (p90) lands near their fast end (the 5th of 15).
# A single execution takes 60 or 90 ms depending on what else the host
# runs at that moment, so the middle of a group jumps between the two with
# the host's load; its fast end keeps enough uncontended executions to
# stay put from run to run.
MIX_BLOCK = {"tdac": 3, "base": 8, "attrs": 2, "repeat": 8}
MIX_DATASETS = {"tdac": ("ds2_2k",), "base": ("ds2_2k",),
                "attrs": ("flights", "stocks")}
RESTRICTIONS_PER_DATASET = 3
RESTRICTION_WIDTH = 1
# The serve_mix dataset the CLI also runs on, for run_s, run_serial_s, f1
# and the daemon-vs-CLI answer check.
CLI_DATASET = "stocks"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value); with under 20 samples no percentile has
    ten beyond it, and the median stands in (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (50.0, median(ordered))
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            best = (pct, ordered[index])
    return best


# ---------------------------------------------------------------- build


def build():
    """Configures once and builds the three binaries; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: repository sources not found under "
                         f"{ROOT}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    quiet = {"stdout": subprocess.DEVNULL}
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                    str(os.cpu_count() or 1)], check=True, **quiet)
    return {
        "cli": BUILD_DIR / "repo" / "tools" / "tdac_cli",
        "serve": BUILD_DIR / "repo" / "tools" / "tdac_serve",
        "probe": BUILD_DIR / "tdac_probe",
    }


def source_digest():
    """sha256 over the sources the binaries are built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


# ---------------------------------------------------------------- processes


def timed_run(argv, stdout=subprocess.DEVNULL):
    """Runs argv to completion; returns (exit code, wall s, max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], stdout=stdout,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe_json(bins, *args):
    out = subprocess.run([str(bins["probe"]), *map(str, args)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def generate(bins, dataset, seed, claims, truth, objects=None):
    argv = [bins["cli"], "generate", f"--dataset={dataset}", f"--seed={seed}",
            f"--out-claims={claims}", f"--out-truth={truth}"]
    if objects:
        argv.append(f"--objects={objects}")
    code, wall, _ = timed_run(argv)
    if code != 0:
        raise RuntimeError(f"generating {dataset} failed ({code})")
    return wall


# Inputs per workload: (name, generator dataset, pool objects, objects).
# A sampled input keeps a seeded subset of the objects of one pool instance
# generated with POOL_SEED: the sources and their reliabilities stay those
# of the pool, the objects differ from seed to seed. A generator seed alone
# redraws every source's reliability, which moves DS2's F1 between 0.24 and
# 0.90 and its Accu iteration count several-fold from one seed to the next.
# The exam simulator's cost and F1 barely move with its seed, and it has
# one object, so its seed goes to the generator directly (pool None).
POOL_SEED = 1
INPUTS = {
    "wide_exam124": [("exam124", "exam124", None, None)],
    "tall_ds2": [("ds2_20k", "ds2", 25000, 20000)],
    "serve_mix": [("stocks", "stocks", 100, 80),
                  ("flights", "flights", 100, 80),
                  ("ds2_2k", "ds2", 2500, 2000)],
}


def sample_objects(pool, out, keep, seed):
    """Writes the claims and truth of `keep` seeded objects of `pool`."""
    with open(pool[1]) as truth:
        next(truth)
        objects = list(dict.fromkeys(line.split(",", 1)[0] for line in truth))
    chosen = set(random.Random(seed).sample(objects, keep))
    for column, src, dst in ((1, pool[0], out[0]), (0, pool[1], out[1])):
        with open(src) as lines, open(dst, "w") as kept:
            kept.write(next(lines))
            for line in lines:
                if line.split(",", column + 1)[column] in chosen:
                    kept.write(line)
        src.unlink()


def make_inputs(bins, workload, seed, work):
    """Generates every input of `workload`; returns (paths, seconds)."""
    paths = {}
    start = time.perf_counter()
    for name, dataset, pool_objects, objects in INPUTS[workload]:
        out = (work / f"{name}.csv", work / f"{name}_truth.csv")
        if pool_objects is None:
            generate(bins, dataset, seed, *out)
        else:
            pool = (work / f"{name}_pool.csv", work / f"{name}_pool_truth.csv")
            generate(bins, dataset, POOL_SEED, *pool,
                     objects=pool_objects if dataset == "ds2" else None)
            sample_objects(pool, out, objects, seed)
        paths[name] = out
    return paths, time.perf_counter() - start


def describe_inputs(bins, paths):
    return {name: probe_json(bins, "fingerprint", f"--claims={claims}")
            for name, (claims, _) in paths.items()}


# ---------------------------------------------------------------- batch


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


CLI_F1 = re.compile(r"^\s*TD-AC\(F=Accu\)\s+\S+\s+\S+\s+\S+\s+(\S+)", re.M)


def cli_run(bins, claims, truth, out, serial):
    mode = "--serial" if serial else f"--threads={THREADS}"
    argv = [bins["cli"], "run", f"--claims={claims}", f"--truth={truth}",
            "--algorithm=Accu", "--tdac", mode, f"--out={out}"]
    log_path = out.with_suffix(".log")
    with open(log_path, "w") as sink:
        code, wall, rss = timed_run(argv, stdout=sink)
    return code, wall, rss, log_path.read_text()


def cli_runs(bins, claims, truth, work, tally, budget_s, min_runs=2):
    """CLI runs: untimed N-thread runs for CLI_WARMUP_S first (cores left
    idle come back slowly, and parallel runs right after idling read up to
    2x slower), then N-thread runs up to 40% of the budget and serial runs
    for the rest; at least `min_runs` of each. Checks exit codes and that
    every --out is byte-identical to the first.
    """
    walls = {True: [], False: []}
    rss = []
    reference = None
    cli_f1 = None
    start = time.perf_counter()

    def one(serial, timed=True):
        nonlocal reference, cli_f1
        out = work / f"out_{'serial' if serial else 'threads'}.csv"
        code, wall, peak, text = cli_run(bins, claims, truth, out, serial)
        rss.append(peak)
        if not tally.check(code == 0, f"tdac_cli exited {code}"):
            return wall
        if timed:
            walls[serial].append(wall)
        data = out.read_bytes()
        if reference is None:
            reference = data
            shutil.copyfile(out, work / "out_reference.csv")
        tally.check(data == reference,
                    f"--out differs ({'serial' if serial else THREADS})")
        match = CLI_F1.search(text)
        if match:
            cli_f1 = float(match.group(1))
        return wall

    last = one(serial=False, timed=False)
    while time.perf_counter() - start < CLI_WARMUP_S:
        last = one(serial=False, timed=False)
    start = time.perf_counter()
    for serial, share in ((False, 0.4), (True, 1.0)):
        runs = 0
        while runs < min_runs or (time.perf_counter() - start + last
                                  <= budget_s * share):
            last = one(serial)
            runs += 1
            if tally.failed > 3:
                break
    return walls[False], walls[True], rss, cli_f1


def evaluate_out(bins, claims, truth, work, tally, cli_f1):
    """F1 of the --out predictions against the gold truth, via Evaluate."""
    result = probe_json(bins, "evaluate", f"--claims={claims}",
                        f"--truth={truth}",
                        f"--predicted={work / 'out_reference.csv'}")
    f1 = result["f1"]
    tally.check(cli_f1 is not None and abs(f1 - cli_f1) <= 6e-4,
                f"Evaluate F1 {f1} vs CLI table {cli_f1}")
    tally.check(result["items"] > 0 and 0 < f1 <= 1, f"F1 {f1}")
    return f1


def batch_setup(bins, workload, seed, work, reps):
    """Input generation + CSV write, timed `reps` times; median seconds."""
    times = []
    for _ in range(reps):
        paths, seconds = make_inputs(bins, workload, seed, work)
        times.append(seconds)
    return paths, median(times)


def run_batch(bins, workload, seed, seconds, work):
    reps = 9 if workload == "wide_exam124" else 3  # wide sets up in ~10 ms
    paths, setup_s = batch_setup(bins, workload, seed, work, reps)
    claims, truth = next(iter(paths.values()))
    tally = Tally()
    threaded, serial, rss, cli_f1 = cli_runs(bins, claims, truth, work,
                                             tally, seconds)
    f1 = evaluate_out(bins, claims, truth, work, tally, cli_f1)
    run_s = median(threaded)
    pct, tail = tail_percentile([w * 1e3 for w in threaded])
    metrics = {
        "run_s": run_s,
        "run_serial_s": median(serial),
        "setup_s": setup_s,
        "peak_rss_mb": max(rss),
        "f1": f1,
        "req_p50_ms": run_s * 1e3,
        "req_tail_ms": tail,
        "goodput_rps": 1.0 / run_s if run_s > 0 else 0.0,
    }
    notes = {"cli_walls_s": {"threads": threaded, "serial": serial},
             "req_tail_percentile": pct, "req_samples": len(threaded)}
    return paths, metrics, tally, notes, describe_inputs(bins, paths)


# ---------------------------------------------------------------- serve


RESPONSE = re.compile(r"^(ok|reject|error|stats|bye) id=(\S+)(.*)$")


def parse_fields(text):
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


class Daemon:
    """tdac_serve over a pipe: one writer (the caller), one reader thread
    that timestamps every response line as it arrives."""

    live = []  # every daemon started, so a failed run can still stop them

    def __init__(self, bins, journal):
        if journal.exists():
            journal.unlink()
        self.proc = subprocess.Popen(
            [str(bins["serve"]), f"--workers={SERVE_WORKERS}",
             f"--queue-capacity={SERVE_QUEUE_CAPACITY}",
             f"--journal={journal}"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1)
        Daemon.live.append(self)
        self.ready = threading.Event()
        self.lock = threading.Condition()
        self.responses = {}     # id -> list of (kind, fields, recv time)
        self.stats = []         # (recv time, fields)
        self.rusage = None
        self.reader = threading.Thread(target=self._read_stdout, daemon=True)
        self.err_reader = threading.Thread(target=self._read_stderr,
                                           daemon=True)
        self.reader.start()
        self.err_reader.start()
        if not self.ready.wait(30):
            raise RuntimeError("tdac_serve did not report ready")

    def _read_stderr(self):
        for line in self.proc.stderr:  # drained so the daemon never blocks
            if "ready" in line:
                self.ready.set()

    def _read_stdout(self):
        for line in self.proc.stdout:
            now = time.perf_counter()
            match = RESPONSE.match(line.strip())
            with self.lock:
                if match is None:
                    self.responses.setdefault("?", []).append(
                        ("garbled", {}, now))
                elif match.group(1) == "stats":
                    self.stats.append((now, parse_fields(match.group(3))))
                else:
                    self.responses.setdefault(match.group(2), []).append(
                        (match.group(1), parse_fields(match.group(3)), now))
                self.lock.notify_all()

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return time.perf_counter()

    def wait_for(self, ids, timeout):
        deadline = time.perf_counter() + timeout
        with self.lock:
            while not all(i in self.responses for i in ids):
                left = deadline - time.perf_counter()
                if left <= 0:
                    return False
                self.lock.wait(left)
        return True

    def request_stats(self, tag):
        count = len(self.stats)
        self.send(f"stats id={tag}")
        deadline = time.perf_counter() + 10
        with self.lock:
            while len(self.stats) == count and time.perf_counter() < deadline:
                self.lock.wait(0.1)
            return self.stats[-1][1] if len(self.stats) > count else None

    def close(self):
        """Clean shutdown; returns the daemon's exit code."""
        try:
            self.send("shutdown id=bye")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            return -1
        self.rusage = usage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join(10)
        self.err_reader.join(10)
        return self.proc.returncode


def spread_evenly(counts):
    """One block of actions with each kind spread evenly over the block, so
    heavy requests never bunch up by chance: a queueing burst would move
    the percentiles more than any change to the daemon does."""
    size = sum(counts.values())
    slots = sorted((size * (i + 0.5) / n, rank, kind)
                   for rank, (kind, n) in enumerate(counts.items())
                   for i in range(n))
    return tuple(kind for _, _, kind in slots)


MIX_PATTERN = spread_evenly(MIX_BLOCK)


class Traffic:
    """The serve_mix action mix: a fixed, evenly spread pattern of actions,
    each rotating over its datasets in a fixed order. The seed picks the
    data and the restrictions; which requests meet in the queue stays the
    same from seed to seed, so queueing does not differ by luck."""

    def __init__(self, seed, datasets, shapes):
        self.rng = random.Random(seed)
        self.datasets = datasets          # name -> claims path
        self.names = sorted(datasets)
        self.turn = {kind: 0 for kind in MIX_BLOCK}
        # Each dataset's restrictions come from a small seeded set, so most
        # attrs= requests after the first few are cache reads of a view.
        self.restrictions = {}
        for name in self.names:
            width = shapes[name]
            self.restrictions[name] = [
                ",".join(map(str, sorted(self.rng.sample(
                    range(width), RESTRICTION_WIDTH))))
                for _ in range(RESTRICTIONS_PER_DATASET)]
        self.block = []
        self.count = 0

    def _dataset(self, kind):
        names = [n for n in MIX_DATASETS.get(kind, self.names)
                 if n in self.names] or self.names
        name = names[self.turn[kind] % len(names)]
        self.turn[kind] += 1
        return name

    def next(self):
        if not self.block:
            self.block = list(MIX_PATTERN)
        kind = self.block.pop(0)
        name = self._dataset(kind)
        self.count += 1
        rid = f"r{self.count}"
        line = f"run id={rid} claims={self.datasets[name]} algorithm=Accu"
        key = (name, "base", "")
        if kind == "attrs":
            attrs = self.rng.choice(self.restrictions[name])
            line += f" attrs={attrs}"
            key = (name, "base", attrs)
        elif kind == "base":
            line += " no-cache=1"
        elif kind == "tdac":
            line += " mode=tdac no-cache=1"
            key = (name, "tdac", "")
        return rid, kind, key, line


class ServeSession:
    """One daemon's worth of traffic plus every check on its answers."""

    def __init__(self, daemon, traffic, tally):
        self.daemon = daemon
        self.traffic = traffic
        self.tally = tally
        self.sent = {}       # id -> (kind, key, due, sent, phase)
        self.lag_ms = []
        self.answers = {}    # key -> (items, iterations, stop) reference

    def ask(self, rid, line, key, phase="setup"):
        """One untimed request, answered before anything else is sent."""
        now = self.daemon.send(line)
        self.sent[rid] = ("touch", key, now, now, phase)
        self.daemon.wait_for([rid], 60)

    def touch(self, names):
        """Loads each dataset and records its reference (no-cache) answer."""
        for name in names:
            path = self.traffic.datasets[name]
            self.ask(f"t-{name}-base", f"run id=t-{name}-base claims={path} "
                     "algorithm=Accu no-cache=1", (name, "base", ""))
            self.ask(f"t-{name}-warm",
                     f"run id=t-{name}-warm claims={path} algorithm=Accu",
                     (name, "base", ""))

    def schedule(self, rate, seconds, phase):
        """Open loop: request i is due at start + i / rate, sent then
        whatever the daemon is doing. Returns the ids sent."""
        start = time.perf_counter() + 0.01
        count = max(1, int(round(rate * seconds)))
        next_stats = start
        ids = []
        for i in range(count):
            due = start + i / rate
            while True:
                now = time.perf_counter()
                if now >= next_stats and next_stats <= due:
                    self.daemon.send(f"stats id={phase}-{i}")
                    next_stats += STATS_INTERVAL_S
                    continue
                if now >= due:
                    break
                time.sleep(min(due, next_stats) - now if next_stats > now
                           else due - now)
            rid, kind, key, line = self.traffic.next()
            sent = self.daemon.send(line)
            self.lag_ms.append((sent - due) * 1e3)
            self.sent[rid] = (kind, key, due, sent, phase)
            ids.append(rid)
        return ids

    def in_flight(self, ids):
        with self.daemon.lock:
            return sum(1 for i in ids if i not in self.daemon.responses)

    def latencies(self, ids):
        """(client ms from due, client ms from send, server ms, outcome)."""
        rows = []
        with self.daemon.lock:
            for rid in ids:
                got = self.daemon.responses.get(rid)
                if not got:
                    continue
                kind, fields, recv = got[0]
                _, _, due, sent, _ = self.sent[rid]
                rows.append(((recv - due) * 1e3, (recv - sent) * 1e3,
                             float(fields.get("ms", "nan")), kind))
        return rows

    def check_answers(self, ids, rejects_fail):
        """Exactly one terminal response per id, ok and not degraded, and
        the same answer as the no-cache run for the same data and options.
        Returns (rejected, cache hits, coalesced) among `ids`."""
        rejected = hits = coalesced = 0
        with self.daemon.lock:
            responses = {rid: list(self.daemon.responses.get(rid, []))
                         for rid in ids}
        for rid in ids:
            got = responses[rid]
            kind, key = self.sent[rid][0], self.sent[rid][1]
            if not self.tally.check(len(got) == 1,
                                    f"{rid}: {len(got)} responses"):
                continue
            outcome, fields, _ = got[0]
            if outcome == "reject":
                rejected += 1
                if rejects_fail:
                    self.tally.check(False, f"{rid} rejected")
                continue
            if not self.tally.check(outcome == "ok" and
                                    fields.get("degraded") == "0",
                                    f"{rid}: {outcome} {fields}"):
                continue
            hits += fields.get("cached") == "1"
            coalesced += fields.get("coalesced") == "1"
            answer = (fields.get("items"), fields.get("iterations"),
                      fields.get("stop"))
            # Ids are checked in send order and each key's first request is
            # a no-cache run (the setup touch) or, for restrictions, the
            # execution every later cached answer must repeat.
            expected = self.answers.setdefault(key, answer)
            self.tally.check(answer == expected,
                             f"{rid} ({kind}) answered {answer}, "
                             f"no-cache answer {expected}")
        return rejected, hits, coalesced

    def dump(self, path):
        """Every request of the session, one CSV row each."""
        with self.daemon.lock:
            responses = dict(self.daemon.responses)
        with open(path, "w") as out:
            out.write("id,phase,kind,dataset,attrs,from_due_ms,server_ms,"
                      "outcome,cached,coalesced\n")
            for rid, (kind, key, due, _, phase) in self.sent.items():
                got = responses.get(rid) or [("missing", {}, due)]
                outcome, fields, recv = got[0]
                attrs = key[2].replace(",", " ")
                out.write(f"{rid},{phase},{kind},{key[0]},{attrs},"
                          f"{(recv - due) * 1e3:.3f},{fields.get('ms', '')},"
                          f"{outcome},{fields.get('cached', '')},"
                          f"{fields.get('coalesced', '')}\n")


def serve_setup(bins, work, traffic, tally, reps):
    """Daemon start to ready plus a first touch of every dataset, `reps`
    times; the last daemon stays up. Returns (session, median seconds)."""
    times = []
    session = None
    for rep in range(reps):
        start = time.perf_counter()
        daemon = Daemon(bins, work / "journal.log")
        session = ServeSession(daemon, traffic, tally)
        session.touch(traffic.names)
        times.append(time.perf_counter() - start)
        session.check_answers(list(session.sent), rejects_fail=True)
        if rep < reps - 1:
            tally.check(daemon.close() == 0, "tdac_serve setup exit")
    return session, median(times)


def judge_step(session, ids, rate, end_in_flight, rejected):
    """One ladder step: no rejects, no growing backlog, tail within the
    limit. The step starts with nothing in flight (the previous drained),
    so its in-flight count at the end is the backlog it built."""
    lat = [row[0] for row in session.latencies(ids) if row[3] == "ok"]
    pct, tail = tail_percentile(lat) if lat else (100.0, float("inf"))
    passed = (rejected == 0 and end_in_flight <= BACKLOG_SLACK
              and tail <= LATENCY_LIMIT_MS)
    return {"rps": rate, "sent": len(ids), "rejected": rejected,
            "tail_ms": round(tail, 3), "tail_pct": pct,
            "in_flight_end": end_in_flight, "passed": passed}


def run_ladder(session, first_step):
    """Climbs LADDER_RPS from the reference step until a step fails;
    returns (goodput, steps)."""
    steps = [first_step]
    for rate in LADDER_RPS:
        if not steps[-1]["passed"]:
            break
        ids = session.schedule(rate, LADDER_STEP_S, f"l{int(rate)}")
        end_in_flight = session.in_flight(ids)
        session.daemon.wait_for(ids, 60)
        rejected, _, _ = session.check_answers(ids, rejects_fail=False)
        steps.append(judge_step(session, ids, rate, end_in_flight, rejected))
    passed = [step["rps"] for step in steps if step["passed"]]
    return (max(passed) if passed else 0.0), steps


def serve_traffic(bins, seed, seconds, work, paths, shapes, tally,
                  ladder=True, reps=3, rate=REFERENCE_RPS):
    """Setup, reference-rate phase and (optionally) the rate ladder."""
    datasets = {name: claims for name, (claims, _) in paths.items()}
    traffic = Traffic(seed, datasets, shapes)
    session, setup_s = serve_setup(bins, work, traffic, tally, reps)
    daemon = session.daemon
    ref_seconds = seconds * REFERENCE_SHARE if ladder else seconds
    # Untimed warm-up at the same rate: the first request on each key runs
    # cold, and caches fill, before anything is measured.
    warm_ids = session.schedule(rate, WARMUP_S, "warm")
    session.daemon.wait_for(warm_ids, 60)
    session.check_answers(warm_ids, rejects_fail=True)
    ref_ids = session.schedule(rate, ref_seconds, "ref")
    end_in_flight = session.in_flight(ref_ids)
    session.daemon.wait_for(ref_ids, 60)
    rejected, hits, coalesced = session.check_answers(ref_ids,
                                                      rejects_fail=True)
    first = judge_step(session, ref_ids, rate, end_in_flight, rejected)
    goodput, steps = run_ladder(session, first) if ladder else (0.0, [first])
    if CLI_DATASET in datasets:
        # The traffic runs TD-AC on ds2@2000 only; this answer is the one
        # serve_answers_match_cli compares with the CLI's.
        session.ask("c-tdac", f"run id=c-tdac claims={datasets[CLI_DATASET]} "
                    "algorithm=Accu mode=tdac no-cache=1",
                    (CLI_DATASET, "tdac", ""), phase="check")
        session.check_answers(["c-tdac"], rejects_fail=True)
    final = daemon.request_stats("final")
    exit_code = daemon.close()
    tally.check(exit_code == 0, f"tdac_serve exited {exit_code}")
    extra = [rid for rid, got in daemon.responses.items() if len(got) != 1]
    tally.check(not extra, f"ids answered more than once: {extra[:5]}")
    tally.check(final is not None and int(final["submitted"]) ==
                int(final["rejected"]) + int(final["completed"]),
                f"final stats {final}")
    lag = max(session.lag_ms) if session.lag_ms else 0.0
    tally.check(lag <= MAX_GENERATOR_LAG_MS,
                f"generator fell behind by {lag:.1f} ms: run invalid")
    rows = session.latencies(ref_ids)
    ok_rows = [r for r in rows if r[3] == "ok"]
    ref_window = (session.sent[ref_ids[0]][2], session.sent[ref_ids[-1]][2])
    queued = [int(f.get("pool-queued", 0)) for t, f in daemon.stats
              if ref_window[0] <= t <= ref_window[1] + 1]
    return {
        "daemon": daemon, "session": session, "setup_s": setup_s,
        "ref_ids": ref_ids, "rows": ok_rows, "rejected": rejected,
        "hits": hits, "coalesced": coalesced, "goodput": goodput,
        "steps": steps, "final": final or {}, "lag_ms": lag,
        "queued_max": max(queued) if queued else 0,
    }


def serve_answers_match_cli(session, tally, name, work):
    """The daemon's TD-AC answer on `name` covers the items the CLI wrote."""
    answer = session.answers.get((name, "tdac", ""))
    text = (work / "out_threads.log").read_text()
    match = re.search(r"resolved (\d+) data items", text)
    tally.check(answer is not None and match is not None
                and answer[0] == match.group(1),
                f"daemon TD-AC items {answer} vs CLI "
                f"{match and match.group(1)}")


def run_serve(bins, seed, seconds, work):
    paths, _ = make_inputs(bins, "serve_mix", seed, work)
    shapes = describe_inputs(bins, paths)
    tally = Tally()
    # The CLI goes first: parallel runs right after the serve phase, which
    # leaves the machine mostly idle, read up to 2x slower.
    claims, truth = paths[CLI_DATASET]
    threaded, serial, _, cli_f1 = cli_runs(bins, claims, truth, work, tally,
                                           budget_s=seconds * CLI_SHARE,
                                           min_runs=3)
    f1 = evaluate_out(bins, claims, truth, work, tally, cli_f1)
    result = serve_traffic(bins, seed, seconds, work, paths,
                           {n: s["attributes"] for n, s in shapes.items()},
                           tally)
    serve_answers_match_cli(result["session"], tally, CLI_DATASET, work)
    result["session"].dump(work / "requests.csv")
    client = [r[0] for r in result["rows"]]
    pct, tail = tail_percentile(client)
    metrics = {
        "run_s": median(threaded),
        "run_serial_s": median(serial),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["daemon"].rusage.ru_maxrss / 1024.0,
        "f1": f1,
        "req_p50_ms": median(client),
        "req_tail_ms": tail,
        "goodput_rps": result["goodput"],
    }
    notes = {"cli_walls_s": {"threads": threaded, "serial": serial},
             "req_tail_percentile": pct, "req_samples": len(client),
             "reference_rps": REFERENCE_RPS, "ladder": result["steps"],
             "latency_limit_ms": LATENCY_LIMIT_MS,
             "generator_lag_ms_max": result["lag_ms"]}
    return paths, metrics, tally, notes, shapes


# ---------------------------------------------------------------- traced


def serve_layer_metrics(result):
    rows = result["rows"]
    server = [r[2] for r in rows]
    overhead = [r[1] - r[2] for r in rows]
    final = result["final"]
    base = max(1, len(result["ref_ids"]))
    _, server_tail = tail_percentile(server)
    return {
        "serve.server_ms_p50": median(server),
        "serve.server_ms_tail": server_tail,
        "serve.overhead_ms_p50": median(overhead),
        "serve.generator_lag_ms": result["lag_ms"],
        "serve.cache_hit_ratio": result["hits"] / base,
        "serve.coalesced_ratio": result["coalesced"] / base,
        "serve.reject_ratio": result["rejected"] / base,
        "serve.ratio_base": float(base),
        "serve.executions": float(final.get("executions", 0)),
        "serve.queued_max": float(result["queued_max"]),
        "serve.journal_appends": float(final.get("journal-appends", 0)),
        "serve.journal_bytes": float(final.get("journal-bytes", 0)),
    }


def check_held_out(bins, workload, seed, shapes, work, tally):
    """The held-out seed gives other data of the same shape class: same
    objects, attributes and sources, claim count within 10%."""
    other = HELD_OUT_SEED if seed != HELD_OUT_SEED else seed + 1
    held_dir = work / "held_out"
    held_dir.mkdir()
    paths, _ = make_inputs(bins, workload, other, held_dir)
    held = describe_inputs(bins, paths)
    for name, got in held.items():
        mine = shapes[name]
        same_class = all(got[k] == mine[k]
                         for k in ("objects", "attributes", "sources"))
        same_class &= (abs(got["claims"] - mine["claims"])
                       <= 0.1 * mine["claims"])
        tally.check(got["fingerprint"] != mine["fingerprint"] and same_class,
                    f"seed {other} vs {seed} on {name}: {got} / {mine}")
    shutil.rmtree(held_dir)
    return other


def stress_shares(layers):
    """What each workload claims to stress, read off its traced run."""
    discover = layers["tdac.discover_s"] or float("nan")
    leaf_times = {k: v for k, v in layers.items()
                  if k.endswith("_s") and not k.endswith("self_s")
                  and k not in ("tdac.discover_s", "tdac.unattributed_s",
                                "trace.overhead_s")}
    return {
        "clustering_share_of_discover":
            (layers["clustering.kmeans_s"] + layers["clustering.silhouette_s"])
            / discover,
        "ingest_share_of_discover": layers["data.ingest_s"] / discover,
        "largest_layer_time": max(leaf_times, key=leaf_times.get),
    }


def run_traced(bins, workload, seed, seconds, work):
    """Per-layer metrics: the probe's spans, a daemon session, and one CLI
    run per mode."""
    tally = Tally()
    paths, _ = make_inputs(bins, workload, seed, work)
    shapes = describe_inputs(bins, paths)
    primary = CLI_DATASET if workload == "serve_mix" else next(iter(paths))
    claims, truth = paths[primary]
    layers = probe_json(bins, "trace", f"--workload={workload}",
                        f"--claims={claims}", f"--truth={truth}",
                        f"--work={work}")
    attrs = {name: s["attributes"] for name, s in shapes.items()}
    if workload == "serve_mix":
        result = serve_traffic(bins, seed, seconds / 2, work, paths, attrs,
                               tally, ladder=False, reps=1)
    else:
        # A short, light session over the workload's own dataset: enough
        # requests for every serve counter, few enough not to queue.
        result = serve_traffic(bins, seed, 5.0, work,
                               {primary: (claims, truth)}, attrs, tally,
                               ladder=False, reps=1, rate=2.0)
    layers.update(serve_layer_metrics(result))
    threaded, serial, _, _ = cli_runs(bins, claims, truth, work, tally,
                                      budget_s=0.0, min_runs=1)
    layers["common.parallel_efficiency"] = (
        median(serial) / (median(threaded) * THREADS) if threaded else 0.0)
    notes = {"trace_file": str((work / "trace.json").relative_to(ROOT)),
             "traced_dataset": primary, "tdac_threads_in_probe": 1,
             "stress": stress_shares(layers),
             "held_out_checked_against": check_held_out(
                 bins, workload, seed, shapes, work, tally)}
    return paths, layers, tally, notes, shapes


# ---------------------------------------------------------------- main


def self_check(bins):
    """The held-out seed gives a different fingerprint of the same shape
    class on every workload's inputs."""
    tally = Tally()
    for workload in INPUTS:
        work = ROOT / ".bench_work" / "self_check" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        paths, _ = make_inputs(bins, workload, 1, work)
        other = check_held_out(bins, workload, 1, describe_inputs(bins, paths),
                               work, tally)
        log(f"{workload}: seed 1 vs held-out seed {other}: "
            f"{'ok' if tally.failed == 0 else tally.problems}")
    return 0 if tally.failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    bins = build()
    if args.self_check:
        return self_check(bins)

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            paths, metrics, tally, notes, shapes = run_traced(
                bins, args.workload, args.seed, args.seconds, work)
        elif args.workload == "serve_mix":
            paths, metrics, tally, notes, shapes = run_serve(
                bins, args.seed, args.seconds, work)
        else:
            paths, metrics, tally, notes, shapes = run_batch(
                bins, args.workload, args.seed, args.seconds, work)
    finally:
        for daemon in Daemon.live:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - tally.failed / max(1, tally.attempted)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    notes["unlisted_metrics"] = {k: v for k, v in metrics.items()
                                 if k not in names}
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "source_digest": source_digest(), "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(), "threads": THREADS,
        "inputs": shapes, "notes": notes, "problems": tally.problems,
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
