#!/usr/bin/env python3
"""End-to-end benchmark of the mpsched batch and serve programs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds mpsched_batch, mpsched_serve, mpsched_trace_check and
perfbench_replay from the checkout this file sits in (CMake, Release, into
.bench_build/), drives the shipped programs over one workload for S
seconds, re-validates every schedule they return, and prints one JSON
object as the last line of stdout:

    {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}

The exit status is 0 only when every output checked out.

Workloads. Every program runs with --threads 2 (a 2-thread pool plus the
dispatcher). All load comes from this process over at most one
connection, as a closed loop that waits for each reply. The seed shuffles
job order and picks the requests; each workload's job set is fixed, so the
schedule-length sum is the same for every seed.

  cold_corpus  one mpsched_batch process per corpus, no cache dir; the
               12-job corpus has 10 distinct analyses and 217 cycles.
               Antichain enumeration, shard packing and in-batch dedup
               carry the load; the serve layers do nothing.
  warm_serve   a fresh mpsched_serve per round, prefilled with 23 specs;
               each request submits 64 jobs sampled from them, so every
               analysis is a memory hit and no job enumerates: parse,
               key, probe, select, schedule, serialize and the service
               front end carry the load.

A warm request holds 64 jobs, not 8, so that its time is the program's
work rather than the handful of thread wake-ups every request pays: on a
4-vCPU Xeon VM with two other busy processes switching on and off, the
interquartile range of four 20-second runs, over their median, was 41%
(p10 wall per request) and 20% (CPU per job) with 8-job requests, and 8%
and 6% with 64-job requests.

The serve daemon runs without --cache-dir: the benchmark writes only inside
its checkout, and on a block device the disk tier's cost drifts from round
to round (on the same VM with ext4: 1.1 to 3.5 CPU-ms per job that misses
across successive rounds, against 0.74 to 0.78 on tmpfs).

End-to-end metrics (--trace 0). A unit is one request round trip, from
the send to the response newline, or one mpsched_batch process, from spawn
to exit. Medians over the whole run are the gates; wall-clock tails track
host CPU steal more than the program:

  setup_s          median over set-ups: daemon spawn until it answers a
                   ping, plus the prefill on warm_serve; on cold_corpus,
                   writing the corpus plus an empty-corpus mpsched_batch
                   run (the program's own start-up and tear-down).
  jobs_per_s       jobs per unit over the median unit wall time: the rate
                   a caller that waits on each reply gets.
  cpu_ms_per_job   median over units of the program's user+sys CPU per
                   unit, per job: the daemon's process CPU clock read at
                   each send, or wait4 rusage of each batch process.
  peak_rss_mb      median over rounds of the program's high-water RSS
                   (VmHWM before shutdown, or the batch process's maxrss).
  schedule_cycles  sum of schedule lengths over the workload's job set.
  ok_ratio         timed jobs that succeeded and passed validation, over
                   timed jobs.

Unit latency at p10, p50 and the highest percentile with at least ten
samples beyond it, with the sample count, the mean closed-loop rate and
the host's steal share are printed as diagnostics, not gated.

Per-layer metrics (--trace 1). An end-to-end run of S/2 seconds gives the
program's CPU per job and its round trips. perfbench_replay then replays
that run's first-round inputs through each layer's public functions for
the rest of the time, with spans, and writes a Chrome trace that must
pass mpsched_trace_check. Its results must equal what the program
answered. "_ms" values are per job, except antichain.*, graph.prepare_ms,
engine.plan_ms, engine.shards, engine.store_ms and engine.shard_imbalance,
which are per analysis. On warm_serve the only analyses are the prefill's,
so those figures describe the prefill.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
RUN = ".bench_run"
THREADS = "2"
TOOLS = ("mpsched_batch", "mpsched_serve", "mpsched_trace_check", "perfbench_replay")

# The cold corpus: (spec, capacity). fft(16) at C=4 is the heavy graph;
# fir(28) and paper_3dft appear twice, so 2 of the 12 analyses are reused
# within the batch.
COLD_CORPUS = [
    ("fft(16)", 4), ("fir(36)", 5), ("bitonic(16)", 5), ("fft(8)", 5),
    ("fir(28)", 5), ("fir(28)", 5), ("iir(8)", 5), ("dct8", 5),
    ("bitonic(8)", 5), ("layered(42)", 5), ("paper_3dft", 5), ("paper_3dft", 5),
]
# The 23 distinct specs of demo_corpus_specs() and the paper/dft/kernels/
# random corpus groups, as the repository defines them; fixed here so the
# inputs do not follow the program under test.
WARM_SPECS = [
    "fir(28)", "paper_3dft", "bitonic(8)", "dct8", "layered(42)",
    "small_example", "dft3", "dft5",
    "fft(4)", "fft(8)", "direct_dft(3)", "direct_dft(4)",
    "fir(12)", "iir(3)", "matmul(3)", "horner(10)", "stencil5(3,3)",
    "layered(7)", "layered(21)", "series_parallel(11)", "series_parallel(12)",
    "expr_tree(5)", "expr_tree(9)",
]
JOBS_PER_REQUEST = 64
WARM_REQUESTS = 128   # timed requests per warm_serve round
WARMUP_REQUESTS = 16  # untimed requests per warm_serve round
SETUP_SAMPLES = 3     # set-up measurements per cold_corpus round
REPLAY_REQUESTS = 16
DEFAULT_CAPACITY = 5
DEFAULT_PATTERN_COUNT = 4

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB", "schedule_cycles": "count", "ok_ratio": "ratio",
}
LAYER_UNITS = {
    "antichain.enumerate_ms": "ms", "antichain.antichains": "count",
    "antichain.antichains_per_ms": "1/ms", "antichain.estimate_ms": "ms",
    "engine.plan_ms": "ms", "engine.shards": "count", "antichain.merge_ms": "ms",
    "engine.shard_imbalance": "ratio", "graph.prepare_ms": "ms",
    "sched.solve_ms": "ms", "core.select_ms": "ms", "core.schedule_ms": "ms",
    "io.parse_ms": "ms", "workloads.build_ms": "ms", "io.serialize_ms": "ms",
    "io.response_bytes": "bytes", "engine.key_ms": "ms", "engine.probe_ms": "ms",
    "engine.hit_ratio": "ratio", "engine.store_ms": "ms", "engine.overhead_ms": "ms",
    "engine.jobs_per_dispatch": "count", "service.handle_ms": "ms",
    "service.transport_ms": "ms", "trace.overhead_pct": "%",
}
# Layer spans whose self time adds up to a replayed job; workloads.build is
# already inside io.parse (job_from_json builds the graph).
TOP_LAYERS = ("io.parse", "engine.key", "engine.probe", "graph.prepare",
              "antichain.estimate", "engine.plan", "antichain.enumerate",
              "antichain.merge", "engine.store", "sched.solve", "io.serialize")
TRACE_SPANS = TOP_LAYERS + ("workloads.build", "service.handle", "job", "dispatch")

LIVE = []  # child processes to stop on the way out


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def pct(values, q):
    """Linear-interpolated q-quantile (0..1) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tool(name):
    return os.path.join(BUILD, name)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise SystemExit("perfbench: no mpsched source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench_build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + list(TOOLS))
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise SystemExit("perfbench: build failed; see " +
                                 os.path.join(BUILD, "perfbench_build.log"))


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    LIVE.append(p)
    return p


def reap(p, timeout=30.0):
    """Waits for a child with wait4 (killing it after `timeout` seconds)
    and returns (exit status, rusage)."""
    watchdog = threading.Timer(timeout, p.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(p)
    return p.returncode, usage


def stop_all():
    for p in list(LIVE):
        try:
            p.kill()
        except OSError:
            pass
        try:
            os.waitpid(p.pid, 0)
        except ChildProcessError:
            pass
        LIVE.remove(p)


def cpu_clock(pid):
    """clockid of the whole-process CPU clock of `pid` (CPUCLOCK_SCHED)."""
    return ((~pid) << 3) | 2


def proc_stat():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def corpus_doc(jobs):
    entries = []
    for spec, capacity in jobs:
        entry = {"workload": spec}
        if capacity != DEFAULT_CAPACITY:
            entry["select"] = {"capacity": capacity}
        entries.append(entry)
    return {"schema": "mpsched.batch.corpus/v1", "jobs": entries}


def submit_line(rid, jobs):
    return (json.dumps({"op": "submit", "id": rid, "corpus": corpus_doc(jobs)},
                       separators=(",", ":")) + "\n").encode()


class Conn:
    """One NDJSON connection; call() returns the raw response line."""

    def __init__(self, path, daemon, timeout=10.0):
        deadline = time.monotonic() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except OSError:
                s.close()
                if daemon.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("mpsched_serve did not come up")
                time.sleep(0.0002)
        s.settimeout(120)
        self.sock = s
        self.buf = bytearray()

    def call(self, data):
        self.sock.sendall(data)
        start = 0
        while True:
            i = self.buf.find(b"\n", start)
            if i >= 0:
                line = bytes(self.buf[:i])
                del self.buf[:i + 1]
                return line
            start = len(self.buf)
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("mpsched_serve closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------------
# Output checking
# ---------------------------------------------------------------------------

class Checker:
    """Collects every returned job result. Identical results are validated
    once by perfbench_replay (graph rebuilt from the spec, schedule
    re-validated from scratch); a job counts as failed when its request
    was refused, its result is not its job, or its schedule is invalid."""

    def __init__(self):
        self.unique = {}      # (spec, capacity, canonical result) -> index
        self.by_spec = {}     # (spec, capacity) -> set of canonical results
        self.jobs = []        # (timed, unique index or None)
        self.problems = []

    def note(self, msg):
        if len(self.problems) < 5:
            self.problems.append(msg)

    def add_results(self, jobs, results, timed):
        """`jobs`: [(spec, capacity)] in request order; `results`: the
        results document's "jobs" array, or None if the request failed."""
        if results is None or len(results) != len(jobs):
            self.note("request got %s results for %d jobs" %
                      ("no" if results is None else len(results), len(jobs)))
            self.jobs.extend((timed, None) for _ in jobs)
            return
        for (spec, capacity), result in zip(jobs, results):
            if result.get("job") != spec or result.get("workload") != spec:
                self.note("result for %r answered job %r" % (spec, result.get("job")))
                self.jobs.append((timed, None))
                continue
            canon = json.dumps(result, sort_keys=True, separators=(",", ":"))
            key = (spec, capacity, canon)
            index = self.unique.setdefault(key, len(self.unique))
            self.by_spec.setdefault((spec, capacity), set()).add(canon)
            self.jobs.append((timed, index))

    def add_response(self, jobs, line, timed):
        try:
            response = json.loads(line)
        except ValueError:
            response = {}
        if not response.get("ok"):
            self.note("request refused: %s" % response.get("error", line[:200]))
            self.add_results(jobs, None, timed)
            return response
        self.add_results(jobs, response["results"]["jobs"], timed)
        return response

    def run(self):
        """Validates; returns (attempted, failed, corrupted copy rejected)."""
        path = os.path.join(RUN, "check.ndjson")
        keys = sorted(self.unique, key=self.unique.get)
        with open(path, "w") as f:
            for spec, capacity, canon in keys:
                f.write(json.dumps({"workload": spec, "capacity": capacity,
                                    "pattern_count": DEFAULT_PATTERN_COUNT,
                                    "result": json.loads(canon)}) + "\n")
        out = subprocess.run([tool("perfbench_replay"), "check", path],
                             capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise BenchError("checker failed: " + out.stderr.strip())
        report = json.loads(out.stdout.strip().splitlines()[-1])
        bad = set(report["bad"])
        for e in report["errors"]:
            self.note("invalid schedule: " + e)
        for (spec, capacity), results in self.by_spec.items():
            if len(results) > 1:
                self.note("%s answered %d different results" % (spec, len(results)))
                bad.update(self.unique[(spec, capacity, c)] for c in results)
        attempted = sum(1 for timed, _ in self.jobs if timed)
        failed = sum(1 for timed, i in self.jobs if timed and (i is None or i in bad))
        untimed_failed = sum(1 for timed, i in self.jobs
                             if not timed and (i is None or i in bad))
        if untimed_failed:
            self.note("%d untimed jobs failed" % untimed_failed)
        return attempted, failed, report["corrupted_rejected"]

    def cycles_of(self, spec, capacity):
        results = self.by_spec.get((spec, capacity))
        if not results or len(results) != 1:
            return None
        return json.loads(next(iter(results)))["cycles"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Measurement:
    def __init__(self):
        self.setup_s = []
        self.unit_ms = []       # per request / per batch process
        self.unit_cpu_ms = []   # program CPU per unit
        self.unit_jobs = 0
        self.rss_mb = []
        self.rounds = 0
        self.timed_wall_s = 0.0
        self.computed = 0       # analyses computed in timed windows
        self.reused = 0
        self.dispatch_jobs = 0
        self.dispatches = 0
        self.replay_lines = []  # inputs of the first round, for --trace 1
        self.replay_prefill = None
        self.replay_warmup = []
        self.replay_results = []


def run_cold(rng, seconds, checker, m):
    order = list(COLD_CORPUS)
    rng.shuffle(order)
    corpus_path = os.path.join(RUN, "cold_corpus.json")
    empty_path = os.path.join(RUN, "empty_corpus.json")
    out_path = os.path.join(RUN, "cold_results.json")
    text = json.dumps(corpus_doc(order), indent=2)
    empty = json.dumps(corpus_doc([]))
    m.replay_lines = [text]

    def batch(path, out):
        start = time.perf_counter()
        p = spawn([tool("mpsched_batch"), "--corpus", path, "--out", out,
                   "--threads", THREADS], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        stdout = p.stdout.read().decode(errors="replace")
        p.stdout.close()
        status, usage = reap(p, 170)
        wall = time.perf_counter() - start
        if status != 0:
            raise BenchError("mpsched_batch exited %d: %s" % (status, stdout[-300:]))
        return wall, usage, stdout

    def results(timed):
        with open(out_path) as f:
            doc = json.load(f)
        checker.add_results(order, doc.get("jobs"), timed)

    # Untimed warm-up: page cache, allocator and CPU frequency settle.
    with open(corpus_path, "w") as f:
        f.write(text)
    batch(corpus_path, out_path)
    results(False)

    with open(empty_path, "w") as f:
        f.write(empty)
    deadline = time.perf_counter() + seconds
    while m.rounds < 3 or time.perf_counter() < deadline:
        # Set-up: writing the corpus, plus the program's own start-up and
        # tear-down, timed as an mpsched_batch run on an empty corpus.
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            with open(corpus_path, "w") as f:
                f.write(text)
            batch(empty_path, os.path.join(RUN, "empty_results.json"))
            m.setup_s.append(time.perf_counter() - start)
        wall, usage, stdout = batch(corpus_path, out_path)
        m.unit_ms.append(wall * 1e3)
        m.unit_cpu_ms.append((usage.ru_utime + usage.ru_stime) * 1e3)
        m.unit_jobs = len(order)
        m.rss_mb.append(usage.ru_maxrss / 1024.0)
        m.timed_wall_s += wall
        summary = [l for l in stdout.splitlines() if "analyses:" in l]
        if summary:
            tail = summary[-1].split("analyses:")[1]
            computed, reused = [int(w) for w in tail.replace(",", " ").split() if w.isdigit()]
            m.computed += computed
            m.reused += reused
        results(True)
        m.rounds += 1


def run_warm(rng, seconds, checker, m):
    sock_path = os.path.join(RUN, "serve.sock")
    prefill = [(spec, DEFAULT_CAPACITY) for spec in WARM_SPECS]
    rng.shuffle(prefill)
    timed = [[(rng.choice(WARM_SPECS), DEFAULT_CAPACITY)
              for _ in range(JOBS_PER_REQUEST)] for _ in range(WARM_REQUESTS)]
    warmup = timed[:WARMUP_REQUESTS]
    # Every request is serialized before anything is timed.
    prefill_line = submit_line(1, prefill)
    warmup_lines = [submit_line(2 + i, jobs) for i, jobs in enumerate(warmup)]
    timed_lines = [submit_line(1000 + i, jobs) for i, jobs in enumerate(timed)]
    m.replay_lines = [l.decode().rstrip("\n") for l in timed_lines[:REPLAY_REQUESTS]]
    m.replay_prefill = prefill_line.decode().rstrip("\n")
    m.replay_warmup = [l.decode().rstrip("\n") for l in warmup_lines]
    stats_line = b'{"op":"stats","id":3}\n'

    deadline = time.perf_counter() + seconds
    while m.rounds < 3 or time.perf_counter() < deadline:
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        with open(os.path.join(RUN, "serve.log"), "w") as log_file:
            start = time.perf_counter()
            daemon = spawn([tool("mpsched_serve"), "--socket", sock_path,
                            "--threads", THREADS], stdout=log_file, stderr=subprocess.STDOUT)
        conn = Conn(sock_path, daemon)
        try:
            pong = json.loads(conn.call(b'{"op":"ping","id":1}\n'))
            if not pong.get("ok"):
                raise BenchError("ping refused")
            checker.add_response(prefill, conn.call(prefill_line), False)
            m.setup_s.append(time.perf_counter() - start)
            for jobs, line in zip(warmup, warmup_lines):
                checker.add_response(jobs, conn.call(line), False)

            clock = cpu_clock(daemon.pid)
            before = json.loads(conn.call(stats_line))["engine"]
            sends, recvs, cpus, responses = [], [], [], []
            perf = time.perf_counter
            cpu_now = time.clock_gettime_ns
            for line in timed_lines:
                cpus.append(cpu_now(clock))
                sends.append(perf())
                responses.append(conn.call(line))
                recvs.append(perf())
            cpus.append(cpu_now(clock))
            after = json.loads(conn.call(stats_line))["engine"]
            # The serving high-water mark, read before shutdown so engine
            # teardown does not count.
            with open("/proc/%d/status" % daemon.pid) as f:
                hwm_kb = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
            conn.call(b'{"op":"shutdown","id":4}\n')
        finally:
            conn.close()
        status, _ = reap(daemon)
        if status != 0:
            raise BenchError("mpsched_serve exited %d" % status)

        m.rss_mb.append(hwm_kb / 1024.0)
        m.timed_wall_s += recvs[-1] - sends[0]
        for i in range(len(timed_lines)):
            m.unit_ms.append((recvs[i] - sends[i]) * 1e3)
            m.unit_cpu_ms.append((cpus[i + 1] - cpus[i]) / 1e6)
        m.unit_jobs = JOBS_PER_REQUEST
        m.dispatch_jobs += after["jobs"] - before["jobs"]
        m.dispatches += after["batches"] - before["batches"]
        for jobs, line in zip(timed, responses):
            response = checker.add_response(jobs, line, True)
            m.computed += response.get("analyses_computed", 0)
            m.reused += response.get("analyses_reused", 0)
        if m.rounds == 0:
            m.replay_results = responses[:REPLAY_REQUESTS]
        m.rounds += 1


def measure(workload, seed, seconds):
    rng = random.Random(seed)
    checker = Checker()
    m = Measurement()
    try:
        total0, steal0 = proc_stat()
    except OSError:
        total0 = steal0 = None
    if workload == "cold_corpus":
        run_cold(rng, seconds, checker, m)
    else:
        run_warm(rng, seconds, checker, m)
    steal_share = None
    if total0 is not None:
        total1, steal1 = proc_stat()
        steal_share = (steal1 - steal0) / max(1, total1 - total0)

    attempted, failed, corrupted_rejected = checker.run()
    if workload == "cold_corpus":
        jobs_set = COLD_CORPUS
    else:
        jobs_set = [(s, DEFAULT_CAPACITY) for s in WARM_SPECS]
    cycles = [checker.cycles_of(s, c) for s, c in jobs_set]
    invariants = []
    if any(c is None for c in cycles):
        invariants.append("some job of the workload's set has no single result")
    # Each workload loads the layers it was chosen for only while these hold.
    if workload == "cold_corpus":
        if m.reused != 2 * m.rounds or m.computed != 10 * m.rounds:
            invariants.append("cold corpus reused %d and computed %d analyses over %d runs "
                              "(expected 2 and 10 per run)" % (m.reused, m.computed, m.rounds))
    elif m.computed != 0:
        invariants.append("warm_serve computed %d analyses in timed windows" % m.computed)
    if not corrupted_rejected:
        invariants.append("the checker accepted a corrupted schedule")

    n = len(m.unit_ms)
    log("diagnostics: %s seed %d: %d rounds, %d units, %d timed jobs" %
        (workload, seed, m.rounds, n, attempted))
    tail = max(0.5, 1 - 10 / n)
    log("  wall per unit: p10 %.3f ms, p50 %.3f ms, p%.4g %.3f ms (n=%d)" %
        (pct(m.unit_ms, 0.1), pct(m.unit_ms, 0.5), 100 * tail, pct(m.unit_ms, tail), n))
    log("  closed-loop: %.1f jobs/s over %.2f s of timed wall time" %
        (attempted / m.timed_wall_s, m.timed_wall_s))
    log("  program CPU per job: median %.4f ms, mean %.4f ms" %
        (statistics.median(m.unit_cpu_ms) / m.unit_jobs,
         sum(m.unit_cpu_ms) / max(1, attempted)))
    log("  analyses in timed windows: %d computed, %d reused" % (m.computed, m.reused))
    if m.dispatches:
        log("  %.2f jobs per dispatch" % (m.dispatch_jobs / m.dispatches))
    if steal_share is not None:
        log("  host steal: %.2f%% of CPU time during the run" % (100 * steal_share))
    for p in checker.problems + invariants:
        log("  PROBLEM: " + p)

    metrics = {
        "setup_s": statistics.median(m.setup_s),
        "jobs_per_s": m.unit_jobs / (statistics.median(m.unit_ms) / 1e3),
        "cpu_ms_per_job": statistics.median(m.unit_cpu_ms) / m.unit_jobs,
        "peak_rss_mb": statistics.median(m.rss_mb),
        "schedule_cycles": sum(c or 0 for c in cycles),
        "ok_ratio": (attempted - failed) / max(1, attempted),
    }
    correct = failed == 0 and not invariants and not checker.problems
    return correct, attempted, failed, metrics, m


# ---------------------------------------------------------------------------
# Per-layer replay (--trace 1)
# ---------------------------------------------------------------------------

def replay_layers(workload, seconds, metrics, m):
    input_path = os.path.join(RUN, "replay_input.json")
    trace_path = os.path.join(RUN, "trace_%s.json" % workload)
    results_path = os.path.join(RUN, "replay_results.ndjson")
    if workload == "cold_corpus":
        # The in-process service front end gets the corpus as one submit.
        lines = [json.dumps({"op": "submit", "id": 1,
                             "corpus": json.loads(m.replay_lines[0])},
                            separators=(",", ":"))]
    else:
        lines = m.replay_lines
    with open(input_path, "w") as f:
        json.dump({"threads": int(THREADS), "prefill": m.replay_prefill,
                   "warmup": m.replay_warmup, "docs": m.replay_lines, "lines": lines}, f)
    out = subprocess.run([tool("perfbench_replay"), "replay", "--input", input_path,
                          "--seconds", "%.3f" % seconds, "--trace-out", trace_path,
                          "--results-out", results_path],
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("replay failed: " + out.stderr.strip())
    r = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []

    check = subprocess.run([tool("mpsched_trace_check"), trace_path] +
                           [a for name in TRACE_SPANS for a in ("--require", name)],
                           capture_output=True, text=True, timeout=120)
    log("  " + check.stdout.strip())
    if check.returncode != 0:
        problems.append("trace check failed")

    # The replay must reproduce what the program answered for the same inputs.
    with open(results_path) as f:
        replayed = [json.loads(l) for l in f if l.strip()]
    if workload == "cold_corpus":
        with open(os.path.join(RUN, "cold_results.json")) as f:
            answered = json.load(f)["jobs"]
    else:
        answered = [job for line in m.replay_results
                    for job in json.loads(line)["results"]["jobs"]]
    if replayed != answered:
        problems.append("replayed results differ from the program's (%d vs %d jobs)" %
                        (len(replayed), len(answered)))

    # Per-job figures come from the timed inputs; per-analysis figures also
    # count the prefill's analyses (warm_serve computes no others).
    timed, prefill = r["timed"], r["prefill"]
    jobs = timed["jobs"]

    def layer(name, field="ms", sets=(timed, prefill)):
        return sum(t["layers"].get(name, {}).get(field, 0) for t in sets)

    def total(key):
        return timed[key] + prefill[key]

    def per_job(name):
        return layer(name, sets=(timed,)) / jobs

    analyses = max(1, total("analyses"))

    def per_analysis(name):
        return layer(name) / analyses

    enumerate_ms = layer("antichain.enumerate")
    self_ms = sum(per_job(name) for name in TOP_LAYERS)
    per_line = m.unit_jobs
    handle_ms = statistics.median(r["handle_ms"])
    if workload == "cold_corpus":
        jobs_per_dispatch = r["jobs_per_dispatch"]
    else:
        jobs_per_dispatch = m.dispatch_jobs / max(1, m.dispatches)

    layers = {
        "antichain.enumerate_ms": per_analysis("antichain.enumerate"),
        "antichain.antichains": total("antichains") / analyses,
        "antichain.antichains_per_ms":
            total("antichains") / enumerate_ms if enumerate_ms else 0.0,
        "antichain.estimate_ms": per_analysis("antichain.estimate"),
        "engine.plan_ms": per_analysis("engine.plan"),
        "engine.shards": total("shards") / analyses,
        "antichain.merge_ms": per_analysis("antichain.merge"),
        "engine.shard_imbalance": total("imbalance_sum") / max(1, total("imbalance_units")),
        "graph.prepare_ms": layer("graph.prepare") / max(1, layer("graph.prepare", "calls")),
        "sched.solve_ms": per_job("sched.solve"),
        "core.select_ms": timed["select_ms"] / jobs,
        "core.schedule_ms": timed["schedule_ms"] / jobs,
        "io.parse_ms": per_job("io.parse") - per_job("workloads.build"),
        "workloads.build_ms": per_job("workloads.build"),
        "io.serialize_ms": per_job("io.serialize"),
        "io.response_bytes": timed["response_bytes"] / jobs,
        "engine.key_ms": per_job("engine.key"),
        "engine.probe_ms": per_job("engine.probe"),
        "engine.hit_ratio": (timed["hits"] + timed["duplicates"]) /
                            max(1, timed["hits"] + timed["misses"]),
        "engine.store_ms": per_analysis("engine.store"),
        "engine.overhead_ms": metrics["cpu_ms_per_job"] - self_ms,
        "engine.jobs_per_dispatch": jobs_per_dispatch,
        "service.handle_ms": handle_ms / per_line,
        "service.transport_ms": (statistics.median(m.unit_ms) - handle_ms) / per_line,
        "trace.overhead_pct": 100.0 * (r["traced_ms"] - r["untraced_ms"]) / r["untraced_ms"],
    }
    log("  replay: %d passes, %d spans, %.1f ms traced vs %.1f ms untraced" %
        (r["passes"], r["spans"], r["traced_ms"], r["untraced_ms"]))
    log("  replayed self time %.4f ms/job vs program CPU %.4f ms/job" %
        (self_ms, metrics["cpu_ms_per_job"]))
    for p in problems:
        log("  PROBLEM: " + p)
    return not problems, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_corpus", "warm_serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    build()
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.trace == 0:
            correct, attempted, failed, report, _ = measure(
                args.workload, args.seed, args.seconds)
            units = E2E_UNITS
        else:
            e2e_seconds = max(1.0, args.seconds / 2)
            correct, attempted, failed, metrics, m = measure(
                args.workload, args.seed, e2e_seconds)
            ok, report = replay_layers(args.workload, max(1.0, args.seconds - e2e_seconds),
                                       metrics, m)
            correct = correct and ok
            units = LAYER_UNITS
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        stop_all()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": report[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
