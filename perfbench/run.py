#!/usr/bin/env python3
"""End-to-end benchmark of the `sweep` and `schedd` programs.

    python3 perfbench/run.py --workload sweep_sa --seed 1 --seconds 40 --trace 0

Builds the repository (Release, tools only) and the tracer under
.bench_build/, makes the workload's inputs from --seed, drives the built
executables the way users run them, checks every output, and prints one
JSON object as the last line of stdout.  With --trace 1 the run adds the
traced in-process pass and prints the per-layer metrics instead of the
end-to-end ones.  perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import drive  # noqa: E402
import inputs  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REPO_BUILD = BUILD / "repo"
TRACER_BUILD = BUILD / "tracer"
OUT = BUILD / "perfbench"

WORKLOADS = ("sweep_sa", "sweep_faulty_list", "schedd_mix")

# Fixed load settings.  The open-loop rates and the latency limit are
# absolute, so every build is judged against the same offered load.  Each
# rate keeps its daemon about a quarter busy: the host's slow spells cost
# up to 1.65x, and near saturation that would swing the latencies by
# multiples.  Per workload: (requests per second, requests per open-loop
# repeat).  A sweep_sa repeat is ten 108-cell bursts, a sweep_faulty_list
# repeat 15 bursts of 24 cells.
OPEN_LOOP = {"sweep_sa": (1000.0, 1080), "sweep_faulty_list": (150.0, 360),
             "schedd_mix": (300.0, 600)}
P99_LIMIT_MS = 100.0
MAX_IN_FLIGHT = 2        # schedd workers in the open and closed loops
MAX_QUEUE = 256
OUTSTANDING = 32         # closed-loop requests in flight (<= MAX_QUEUE)
CLOSED_SECONDS = 0.4     # per closed-loop repeat
DRAIN_REQUESTS = 500
MIX_REQUESTS = 2000      # the schedd_mix stream the phases draw prefixes of
SETUP_SAMPLES = 4        # per round
ROUND_SHARE = 0.9        # of --seconds, spent in the measured rounds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def workers():
    return min(4, len(os.sched_getaffinity(0)))


def build():
    """Configures and builds the tools and the tracer; a no-op
    when both are up to date."""
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()
            and (ROOT / "tools" / "sweep_example.spec").is_file()):
        fail(f"no dagsched source tree at {ROOT}")
    jobs = str(workers())
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (REPO_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT, "-B", REPO_BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DDAGSCHED_BUILD_TESTS=OFF",
                      "-DDAGSCHED_BUILD_BENCHES=OFF",
                      "-DDAGSCHED_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", REPO_BUILD, "-j", jobs, "--target",
                  "dagsched", "sweep", "schedd"])
    if not (TRACER_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE / "tracer", "-B", TRACER_BUILD,
                      *generator, f"-DDAGSCHED_SOURCE_DIR={ROOT}",
                      f"-DDAGSCHED_LIBRARY={REPO_BUILD / 'libdagsched.a'}"])
    steps.append(["cmake", "--build", TRACER_BUILD, "-j", jobs])
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "wb") as out:
        for step in steps:
            step = [str(part) for part in step]
            if subprocess.run(step, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text(errors="replace")[-4000:])
                fail("build step failed: " + " ".join(step))


def environment(seed):
    cache = {}
    for line in (REPO_BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True,
                                text=True).stdout.strip() or commit
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "sweep_workers": [1, workers()],
            "schedd_max_in_flight": MAX_IN_FLIGHT,
            "schedd_drain_workers": [1, workers()],
            "closed_loop_outstanding": OUTSTANDING,
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "DAGSCHED_KEEP_ASSERTS": cache.get("DAGSCHED_KEEP_ASSERTS"),
            "compiler": version[0] if version else compiler,
            "commit": commit,
            "seed": seed}


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Tally:
    """Operations attempted and failed, and whether every output check
    held.  Shed requests fail an operation without making the output
    incorrect; errors and failed checks do both."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add_stream(self, check, sent):
        self.attempted += sent
        self.failed += check.failed_checks + check.shed + check.errors
        if check.failed_checks or check.errors:
            self.correct = False

    def add_failures(self, count):
        self.failed += count
        if count:
            self.correct = False


def run_rounds(seconds, steps):
    """Runs `steps` in rounds until the next round would end past
    ROUND_SHARE * `seconds`; at least one round.  Each round samples every
    metric, so a slow spell of the machine costs each metric a few
    samples instead of all samples of one phase.  The walls and the
    capacity are sampled twice a round: they are the shortest phases."""
    start = drive.clock()
    rounds = 0
    while True:
        for step in steps:
            step()
        rounds += 1
        spent = drive.clock() - start
        if spent * (rounds + 1) / rounds > ROUND_SHARE * seconds:
            return rounds


class Setup:
    """Set-up time samples, SETUP_SAMPLES per round; the median is
    reported."""

    def __init__(self, tally, measure):
        self.tally = tally
        self.measure = measure
        self.samples = []

    def sample(self):
        for _ in range(SETUP_SAMPLES):
            seconds = self.measure()
            if seconds is None:
                self.tally.add_failures(1)
            else:
                self.samples.append(seconds)

    def median(self):
        return statistics.median(self.samples) if self.samples else math.nan


def request_ids(lines):
    return [line.split(b'"', 4)[3].decode() for line in lines]


class ServiceLoad:
    """The open-loop latency phase and the closed-loop capacity phase,
    repeated through the run, each repeat with a fresh daemon on the same
    requests.  p50_ms and p99_ms are percentiles of every open-loop request
    of the run, several thousand, so dozens lie beyond the p99; capacity
    is the mean over the repeats."""

    def __init__(self, tally, argv, lines, groups, workload, burst=1,
                 expected=None, misses=None, corrupt=None):
        self.tally, self.argv, self.lines = tally, argv, lines
        self.ids, self.groups = request_ids(lines), groups
        self.rate, self.count = OPEN_LOOP[workload]
        self.burst = burst
        self.expected, self.misses, self.corrupt = expected, misses, corrupt
        self.latencies_ms, self.capacities = [], []
        self.queue_wait, self.late_ms = [], []
        self.shed = self.errors = 0
        self.rss_mb = []

    def check(self, responses, sent, corrupt=None):
        check = checks.StreamCheck(
            self.ids[:sent], self.groups[:sent],
            self.expected[:sent] if self.expected else None,
            self.misses).run(responses, corrupt)
        self.tally.add_stream(check, sent)
        self.shed += check.shed
        self.errors += check.errors
        return check

    def open_repeat(self):
        count = self.count
        due, late, received, rss = drive.open_loop(
            self.argv, self.lines[:count], self.rate, self.burst)
        self.rss_mb.append(rss)
        # The self-test corrupts the first repeat only.
        corrupt, self.corrupt = self.corrupt, None
        check = self.check([line for _, line in received], count, corrupt)
        # A request without a correct ok response misses every limit.
        latency_ms = [(received[i][0] - due[i]) * 1000.0 if check.ok[i]
                      else math.inf for i in range(count)]
        self.latencies_ms += latency_ms
        self.queue_wait += [latency_ms[i] - check.elapsed_ms[i]
                            for i in range(count) if check.ok[i]]
        self.late_ms += [x * 1000.0 for x in late]

    def closed_repeat(self):
        sent, responses, capacity, _ = drive.closed_loop(
            self.argv, self.lines, OUTSTANDING, CLOSED_SECONDS)
        self.check(responses, sent)
        self.capacities.append(capacity)

    def metrics(self):
        late_p99 = percentile(self.late_ms, 99)
        # Past 1% misses, a repeat's whole length bounds the p99.
        p99 = min(percentile(self.latencies_ms, 99),
                  self.count / self.rate * 1000.0)
        return {
            "p50_ms": min(percentile(self.latencies_ms, 50), p99),
            "p99_ms": p99,
            "slo_frac": (sum(x <= P99_LIMIT_MS for x in self.latencies_ms)
                         / len(self.latencies_ms)),
            "capacity_rps": statistics.fmean(self.capacities),
            "capacity_samples": self.capacities,
            "open_rss_mb": statistics.median(self.rss_mb),
            "queue_wait_ms": (statistics.fmean(self.queue_wait)
                              if self.queue_wait else 0.0),
            "shed": self.shed,
            "errors": self.errors,
            "late_p99_ms": late_p99,
            "late_max_ms": max(self.late_ms),
            "behind": late_p99 > 1000.0 * self.burst / self.rate,
            "open_requests": len(self.latencies_ms),
            "burst": self.burst,
        }


def run_sweep_workload(args, tally):
    n = workers()
    tag = f"{args.workload}-{args.seed}"
    spec = OUT / f"{tag}.spec"
    if args.workload == "sweep_sa":
        example = (ROOT / "tools" / "sweep_example.spec").read_text()
        spec_text = inputs.sweep_sa_spec(example, args.seed)
    else:
        spec_text = inputs.faulty_list_spec(args.seed)
    spec.write_text(spec_text)
    sweep_bin = str(REPO_BUILD / "sweep")
    setup = Setup(tally, lambda: drive.sweep_setup_s(sweep_bin, str(spec)))

    cells_path = OUT / f"{tag}.cells.jsonl"
    if subprocess.run([str(TRACER_BUILD / "perfbench_trace"), "cells",
                       str(spec), str(cells_path)]).returncode != 0:
        fail("perfbench_trace cells failed")
    cells = cells_path.read_bytes().splitlines(keepends=True)
    # The cells go in blocks holding one repetition of every (family,
    # topology, policy), and the open loop sends one block per burst: its
    # latencies are then sums of many cells' service times, with the same
    # mix of cells in every burst, rather than single cells' times that a
    # millisecond of host jitter would swing.  Three passes over the cells
    # fill the closed loop.
    blocks = inputs.cell_blocks(spec_text, len(cells), args.seed)
    order = [cell for block in blocks for cell in block] * 3
    lines = [cells[i] for i in order]
    # Cells run with the plan cache off, as in the sweep itself, so every
    # response must reproduce its sweep row's fault-free makespan.
    argv = [str(REPO_BUILD / "schedd"), "--max-in-flight", str(MAX_IN_FLIGHT),
            "--max-queue", str(MAX_QUEUE), "--cache-capacity", "0"]
    expected = []
    service = ServiceLoad(tally, argv, lines, order, args.workload,
                          burst=len(blocks[0]), expected=expected,
                          corrupt="response" if args.corrupt == "response"
                          else None)

    walls = {1: [], n: []}
    rss = []
    artifacts = []

    def sweeps():
        for threads in (1, n):
            out_json = OUT / f"{tag}-run{len(artifacts)}.json"
            out_csv = OUT / f"{tag}-run{len(artifacts)}.csv"
            wall, mem, code = drive.run_sweep(sweep_bin, str(spec), threads,
                                              str(out_json), str(out_csv))
            if code != 0:
                fail(f"sweep exited with {code} on {spec}")
            walls[threads].append(wall)
            if threads == n:
                rss.append(mem)
            artifacts.append((out_json.read_bytes(), out_csv.read_bytes()))
        if not expected:
            by_cell = checks.csv_makespans_ns(artifacts[0][1])
            if len(by_cell) != len(cells):
                fail("cell requests do not match the sweep's rows")
            expected.extend(by_cell[i] for i in order)

    rounds = run_rounds(args.seconds, [setup.sample, sweeps,
                                       service.closed_repeat,
                                       service.open_repeat, sweeps,
                                       service.closed_repeat])
    if args.corrupt == "artifact":
        artifacts[-1] = (artifacts[-1][0], artifacts[-1][1] + b"\n")
    tally.attempted += len(cells) * len(artifacts)
    tally.add_failures(checks.differing_artifacts(artifacts))
    e2e = {
        "setup_s": setup.median(),
        "wall_s_1t": statistics.fmean(walls[1]),
        "wall_s_nt": statistics.fmean(walls[n]),
        "peak_rss_mb": statistics.median(rss),
    }
    paths = {"spec": spec, "json": OUT / f"{tag}-run0.json",
             "csv": OUT / f"{tag}-run0.csv"}
    detail = {"rounds": rounds, "walls_1t": walls[1], "walls_nt": walls[n],
              "setup_samples": setup.samples}
    return e2e, service.metrics(), paths, detail


def run_schedd_workload(args, tally):
    n = workers()
    tag = f"{args.workload}-{args.seed}"
    schedd_bin = str(REPO_BUILD / "schedd")
    setup = Setup(tally, lambda: drive.schedd_setup_s(schedd_bin))

    lines, meta = inputs.mix_stream(args.seed, MIX_REQUESTS)
    ids = request_ids(lines)
    groups = [group for _, group in meta]
    # Every phase sends a prefix of the same stream, so a request that
    # misses the cache must get one makespan across all of them.
    misses = {}
    argv = [schedd_bin, "--max-in-flight", str(MAX_IN_FLIGHT), "--max-queue",
            str(MAX_QUEUE)]
    service = ServiceLoad(tally, argv, lines, groups, args.workload,
                          misses=misses,
                          corrupt=args.corrupt if args.corrupt in
                          ("response", "miss") else None)

    # Batch drains: the stream's first DRAIN_REQUESTS lines piped in at
    # once, with a queue deep enough that nothing is shed.
    drain_path = OUT / f"{tag}.drain.jsonl"
    drain_path.write_bytes(b"".join(lines[:DRAIN_REQUESTS]))
    walls = {1: [], n: []}

    def drains():
        for threads in (1, n):
            out_path = OUT / f"{tag}.drain{threads}.out.jsonl"
            wall, _, code = drive.drain(
                [schedd_bin, "--max-in-flight", str(threads), "--max-queue",
                 str(DRAIN_REQUESTS)], drain_path, out_path)
            if code != 0:
                fail(f"schedd exited with {code}")
            walls[threads].append(wall)
            check = checks.StreamCheck(
                ids[:DRAIN_REQUESTS], groups[:DRAIN_REQUESTS], None,
                misses).run(out_path.read_bytes().splitlines())
            tally.add_stream(check, DRAIN_REQUESTS)

    rounds = run_rounds(args.seconds, [setup.sample, drains,
                                       service.closed_repeat,
                                       service.open_repeat, drains,
                                       service.closed_repeat])
    metrics = service.metrics()
    e2e = {
        "setup_s": setup.median(),
        "wall_s_1t": statistics.fmean(walls[1]),
        "wall_s_nt": statistics.fmean(walls[n]),
        "peak_rss_mb": metrics["open_rss_mb"],
    }
    paths = {"requests": drain_path}
    detail = {"rounds": rounds, "walls_1t": walls[1], "walls_nt": walls[n],
              "setup_samples": setup.samples,
              "kinds": {k: sum(1 for kind, _ in meta if kind == k)
                        for k in ("cold", "repeat", "relabel", "gsa")}}
    return e2e, metrics, paths, detail


def traced_pass(args, tally, paths, e2e, service):
    """The in-process pass over the inputs whose untraced run gave
    wall_s_1t; returns the per-layer metrics with their units."""
    tag = f"{args.workload}-{args.seed}"
    spans = OUT / f"{tag}.spans.jsonl"
    tracer = TRACER_BUILD / "perfbench_trace"
    if "spec" in paths:
        argv = [tracer, "sweep", paths["spec"], paths["json"], paths["csv"],
                spans]
    else:
        argv = [tracer, "schedd", paths["requests"], spans]
    result = subprocess.run([str(a) for a in argv], capture_output=True,
                            text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail("traced pass failed")
    t = json.loads(result.stdout.strip().splitlines()[-1])
    tally.add_failures(int(t["check_failures"]))
    ms, count, ratio, rate = "ms", "count", "ratio", "1/s"
    units = {
        ms: ("sweep.parse_ms", "sweep.cell_ms_p50", "sweep.cell_ms_max",
             "sweep.summary_ms", "graph.generate_ms", "topology.build_ms",
             "core.sa_ms", "core.gsa_ms", "sched.list_ms", "sched.heft_ms",
             "sched.heft_plan_ms", "sim.replay_ms", "service.parse_ms",
             "service.canonicalize_ms", "service.cache_lookup_ms",
             "service.serve_hit_ms", "service.serve_miss_ms",
             "service.serialize_ms"),
        count: ("sweep.cells", "graph.tasks", "graph.edges",
                "core.sa_iterations", "core.sa_packets",
                "core.gsa_simulations", "core.oracle_memo_hits",
                "core.oracle_resumed_replays", "core.oracle_full_replays",
                "sim.epochs", "sim.messages", "sim.retries", "sim.restarts"),
        ratio: ("core.oracle_accept_ratio", "core.oracle_replayed_epoch_frac",
                "sim.failed_runs", "service.hit_ratio"),
        rate: ("core.sa_iter_per_s", "core.gsa_proposals_per_s"),
    }
    layer = {name: (t[name], unit)
             for unit, names in units.items() for name in names}
    layer["sweep.parallel_eff"] = (
        e2e["wall_s_1t"] / (workers() * e2e["wall_s_nt"]), ratio)
    layer["service.queue_wait_ms"] = (service["queue_wait_ms"], ms)
    layer["service.shed"] = (service["shed"], count)
    layer["service.errors"] = (service["errors"] + t["service.errors"], count)
    # The pass's extra calls (separate timings, replays, repeated work)
    # are not tracing overhead.
    layer["trace.overhead"] = (
        (t["pass_ms"] - t["extra_ms"]) / 1000.0 / e2e["wall_s_1t"] - 1.0,
        ratio)
    layer["load.late_p99_ms"] = (service["late_p99_ms"], ms)
    return layer, t


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("response", "miss",
                                              "artifact"),
                        help="self-test only: perturb one output before "
                             "checking it")
    args = parser.parse_args()

    build()
    OUT.mkdir(parents=True, exist_ok=True)
    drive.use_launcher(TRACER_BUILD / "perfbench_spawn", OUT / "spawn.rss")
    env = environment(args.seed)
    tally = Tally()
    if args.workload.startswith("sweep"):
        e2e, service, paths, detail = run_sweep_workload(args, tally)
    else:
        e2e, service, paths, detail = run_schedd_workload(args, tally)

    traced = None
    if args.trace:
        metrics, traced = traced_pass(args, tally, paths, e2e, service)
    else:
        metrics = {
            "setup_s": (e2e["setup_s"], "s"),
            "wall_s_1t": (e2e["wall_s_1t"], "s"),
            "wall_s_nt": (e2e["wall_s_nt"], "s"),
            "p50_ms": (service["p50_ms"], "ms"),
            "p99_ms": (service["p99_ms"], "ms"),
            "slo_frac": (service["slo_frac"], "ratio"),
            "capacity_rps": (service["capacity_rps"], "1/s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MiB"),
            "ok_frac": (1.0 - tally.failed / max(1, tally.attempted),
                        "ratio"),
        }
    if service["behind"]:
        print(f"perfbench: FLAG the open-loop generator fell behind "
              f"(p99 lateness {service['late_p99_ms']:.3f} ms)",
              file=sys.stderr)

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "e2e": e2e, "service": service, "detail": detail,
              "traced_pass": traced, "result": result}
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print("perfbench env " + json.dumps(env))
    print(f"perfbench generator lateness p99 {service['late_p99_ms']:.3f} ms, "
          f"max {service['late_max_ms']:.3f} ms"
          + (" (FELL BEHIND)" if service["behind"] else ""))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
