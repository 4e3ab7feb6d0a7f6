"""nilorbits benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; the package is imported from ``src/``.
Each run is one single-threaded process with one client on a closed loop:
set up (import, seeded inputs, a warm-up op), then run whole passes over the
workload's ops, in their fixed order, until ``--seconds`` have passed (at
least two passes), checking every output.  A short machine-speed probe runs
before the first op of a pass and after every op, and each op's time is
also given at the reference speed (see ``scaled``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  ``--workload all`` runs every workload in its own process.
See perfbench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import MATMUL, TRACED, Tracer, root_time, self_times  # noqa: E402
from workloads import FAMILIES, WORKLOADS, HashSink  # noqa: E402

SETUP_REPS = 3                     # setups per run: this process and two fresh ones
MIN_PASSES = 2
# The probe's time at the reference speed: about its fastest reading on the
# 2-core Xeon VM (2.1 GHz, Python 3.11.7) the benchmark was tuned on.
PROBE_REF_S = 0.0045
# The metrics on the result line, as BENCHMARK.json lists them.  The latency
# percentiles, ops_per_s, wall times and failed_ratio are printed in the
# report but not gated.
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
TAIL_PERCENTILES = (99.9, 99, 95, 90)
LAYER_NAMES = TRACED + (MATMUL,)
COUNTERS = ("linalg.matmul.mul_adds", "linalg.rank.cells", "patterns.emitted",
            "cli.bytes_out")


class BenchError(Exception):
    """The benchmark cannot run here (no package source, or a failed setup)."""


# -- machine speed ------------------------------------------------------------------


def probe_seconds() -> float:
    """Machine speed, apart from the code: a fixed mix of pure-Python work
    (Fraction arithmetic, building dict entries and strings, integer
    arithmetic), 4.5 ms at the reference speed.  The mix follows the
    slow spells of the machine more closely on every workload than any one
    of its parts."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 501):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, 5 + i % 3)
    table: dict[tuple[int, int], int] = {}
    words = []
    for i in range(1500):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        words.append(f"{key[0]},{key[1]}:{i}")
    text = ",".join(sorted(words))
    h = 0
    for i in range(20000):
        h = (h * 31 + i) % 1000003
    if acc <= 0 or len(table) != 91 or len(text) < 1500 or h < 0:
        raise AssertionError("probe work went wrong")
    return time.perf_counter() - start


def scaled(seconds: float, probes: list[float]) -> float:
    """Wall seconds at the reference speed: scaled by PROBE_REF_S over the
    mean probe time taken around them.  The machine's speed swings by up to
    2x for seconds to minutes at a time, on the code and the probe alike."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


# -- set-up ---------------------------------------------------------------------


def import_package():
    if not (SRC / "nilorbits" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'nilorbits'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nilorbits
    import nilorbits.cli  # noqa: F401
    if Path(nilorbits.__file__).resolve().parent != (SRC / "nilorbits").resolve():
        raise BenchError(f"imported nilorbits from {nilorbits.__file__}, not {SRC}")


def timed_setup(name: str, size: str, seed: int):
    """(workload, wall seconds, scaled seconds): import, seeded inputs and
    one warm-up op, between three probes on each side."""
    probes = [probe_seconds() for _ in range(3)]
    start = time.perf_counter()
    import_package()
    workload = WORKLOADS[name](size)
    workload.setup(seed)
    workload.warmup()
    wall = time.perf_counter() - start
    probes += [probe_seconds() for _ in range(3)]
    return workload, wall, scaled(wall, probes)


def fresh_setup_seconds(name: str, size: str, seed: int) -> tuple[float, float]:
    """(wall, scaled) set-up seconds measured in a new process, so nothing is warm."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--size", size, "--setup-only"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["wall_s"], result["setup_s"]


# -- measuring --------------------------------------------------------------------


class Loop:
    """Runs ops one at a time and keeps per-op latency, outcome and units."""

    def __init__(self):
        self.latency: list[tuple[int, float, float]] = []   # (op index, wall s, scaled s)
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.bytes_out = 0
        self.emitted = 0
        self.first_failure = ""

    def run(self, ops, idx: int, tracer: Tracer | None = None) -> float:
        op = ops[idx]
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    result = op.call()
            else:
                result = op.call()
            elapsed = time.perf_counter() - start
            ok, units = op.check(result)
        except Exception:   # a crashing op or check is a failed op; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            ok, units, result = False, 0, None
            if not self.first_failure:
                self.first_failure = f"{op.label}\n{traceback.format_exc()}"
        if ok:
            self.units += units
        else:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"{op.label}: wrong output"
        out = getattr(result, "out", None)
        if isinstance(out, HashSink):
            self.bytes_out += out.bytes
            self.emitted += out.lines
        elif out is not None:
            self.bytes_out += len(out.getvalue().encode("utf-8"))
        return elapsed

    def run_pass(self, ops, tracer: Tracer | None = None) -> tuple[float, float]:
        """One pass, with a probe before the first op and after each op.
        Returns the pass's (wall, scaled) seconds, probes excluded."""
        before = probe_seconds()
        self.probes.append(before)
        wall = at_ref = 0.0
        for idx in range(len(ops)):
            elapsed = self.run(ops, idx, tracer)
            after = probe_seconds()
            self.probes.append(after)
            op_ref = scaled(elapsed, [before, after])
            self.latency.append((idx, elapsed, op_ref))
            wall += elapsed
            at_ref += op_ref
            before = after
        return wall, at_ref


def closed_loop(ops, seconds: float) -> Loop:
    """Whole passes over the ops until `seconds` have passed (at least
    MIN_PASSES).

    Whole passes keep every op equally represented, so percentiles over a
    mix of cheap and costly ops do not jump with the number of ops run."""
    loop = Loop()
    start = time.perf_counter()
    while loop.attempted < MIN_PASSES * len(ops) or time.perf_counter() - start < seconds:
        loop.run_pass(ops)
    return loop


def tail(per_op: dict[int, list[float]]) -> tuple[float, str]:
    """The highest of p99.9, p99, p95 and p90 with at least ten samples
    beyond it (nearest rank).  With too few samples for p90 it is the
    slowest op's median latency: lower percentiles would fall among the
    workload's cheap ops, and a plain maximum would be one noisy sample."""
    ordered = sorted(dt for samples in per_op.values() for dt in samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{q:g}"
    return max(statistics.median(v) for v in per_op.values()), "slowest op's median"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seconds: float, setups: list[tuple[float, float]]
               ) -> tuple[dict, list[str], Loop]:
    loop = closed_loop(workload.ops, seconds)
    wall: dict[int, list[float]] = {}
    at_ref: dict[int, list[float]] = {}
    for idx, dt, dt_ref in loop.latency:
        wall.setdefault(idx, []).append(dt)
        at_ref.setdefault(idx, []).append(dt_ref)
    latencies = [dt for _, dt, _ in loop.latency]
    tail_value, tail_label = tail(wall)
    passes = loop.attempted // len(workload.ops)
    # each op's median over the passes, at the reference speed
    run_s = sum(statistics.median(v) for v in at_ref.values())
    run_wall_s = sum(statistics.median(v) for v in wall.values())
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (loop.units / passes / run_s, "1/s"),
        "setup_wall_s": (statistics.median(w for w, _ in setups), "s"),
        "run_wall_s": (run_wall_s, "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at the reference speed: "
                   + ", ".join(f"{s:.3f}" for _, s in setups),
        "run_s": f"sum of the {len(at_ref)} ops' median latencies at the reference "
                 f"speed; {passes} passes",
        "ops_per_s": f"{loop.units // passes} units per pass / run_s",
        "setup_wall_s": "as setup_s, wall clock",
        "run_wall_s": "as run_s, wall clock",
        "latency_p50_ms": f"{len(latencies)} requests, wall clock",
        "latency_tail_ms": f"{tail_label} of {len(latencies)} requests, wall clock",
    }
    lines = [f"{name:<18} {value:>14.6g} {unit:<4} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"{'failed_ratio':<18} {loop.failed / loop.attempted:>14.6g} "
                 f"{'':<4} {loop.failed} failed of {loop.attempted} attempted")
    return ({k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in END_TO_END},
            lines, loop)


def traced(workload, seconds: float, name: str, seed: int) -> tuple[dict, list[str], Loop]:
    """Alternate untraced and traced passes over the ops."""
    ops = workload.ops
    loop = Loop()
    tracer = Tracer()
    plain, with_trace = [], []   # (wall, scaled) seconds per pass
    start = time.perf_counter()
    while not with_trace or time.perf_counter() - start < seconds:
        plain.append(loop.run_pass(ops))
        emitted, bytes_out = loop.emitted, loop.bytes_out
        tracer.install()
        try:
            with_trace.append(loop.run_pass(ops, tracer))
        finally:
            tracer.uninstall()
        tracer.count("patterns.emitted", loop.emitted - emitted)
        tracer.count("cli.bytes_out", loop.bytes_out - bytes_out)
    passes = len(with_trace)
    traced_s = sum(w for w, _ in with_trace)
    spans = tracer.spans
    selfs = self_times(spans)
    covered = root_time(spans)
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'layer':<36} {'calls/pass':>12} {'self_s/pass':>12} {'self %':>8}"]
    for layer in LAYER_NAMES:
        calls, self_s = selfs.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls / passes, "count")
        metrics[f"{layer}.self_s"] = (self_s / passes, "s")
        lines.append(f"{layer:<36} {calls / passes:>12g} {self_s / passes:>12.6f} "
                     f"{100 * self_s / traced_s:>8.3f}")
    for counter in COUNTERS:
        metrics[counter] = (tracer.counters.get(counter, 0) / passes,
                            "B" if counter == "cli.bytes_out" else "count")
    for family in FAMILIES:
        family_s = sum(end - begin for n, begin, end, _ in spans
                       if n == f"harness.check.{family}")
        metrics[f"harness.check.{family}_s"] = (family_s / passes, "s")
    # at the reference speed, so a slow spell during one kind of pass cancels
    ratio = (statistics.median(s for _, s in with_trace)
             / statistics.median(s for _, s in plain))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    metrics["trace.covered_pct"] = (100 * covered / traced_s, "%")
    metrics["probe.machine_ms"] = (statistics.median(loop.probes) * 1000, "ms")
    for name_ in (*COUNTERS, *(f"harness.check.{f}_s" for f in FAMILIES),
                  "trace.overhead_ratio", "trace.covered_pct"):
        value, unit = metrics[name_]
        lines.append(f"{name_:<36} {value:>12g} {unit}")
    lines.append(f"traced run_s {traced_s / passes:.4f} per pass, untraced "
                 f"{statistics.median(w for w, _ in plain):.4f} (median pass), wall clock; "
                 f"spans cover {100 * covered / traced_s:.2f}% of traced time, the rest "
                 f"is benchmark overhead (loop, stream swap, checks)")
    lines.append(f"spans: {write_spans(spans, name, seed, passes)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines, loop


def write_spans(spans, name: str, seed: int, passes: int) -> str:
    """Write every span once, at the end: names are indexed, times relative."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "passes": passes,
                   "fields": ["name", "start_s", "end_s", "parent"], "names": names,
                   "spans": [[index[n], b - origin, e - origin, p] for n, b, e, p in spans]},
                  fh, separators=(",", ":"))
    return str(path.relative_to(ROOT))


# -- commands ---------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    workload, wall, at_ref = timed_setup(name, size, seed)
    if trace:
        metrics, lines, loop = traced(workload, seconds, name, seed)
    else:
        setups = [(wall, at_ref)] + [fresh_setup_seconds(name, size, seed)
                                     for _ in range(SETUP_REPS - 1)]
        metrics, lines, loop = end_to_end(workload, seconds, setups)
    probes = sorted(loop.probes)
    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)} size={size}")
    for line in lines:
        print(f"{name:<10} {line}")
    print(f"{name:<10} machine probe (fixed pure-Python mix, "
          f"{len(probes)} readings): median {statistics.median(probes) * 1000:.3f} ms, "
          f"fastest {probes[0] * 1000:.3f} ms, reference {PROBE_REF_S * 1000:g} ms")
    if loop.first_failure:
        print(f"first failure: {loop.first_failure}", file=sys.stderr)
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own fresh process; prints each one's report."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nilorbits benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            _, wall, at_ref = timed_setup(args.workload, args.size, args.seed)
            print(json.dumps({"wall_s": wall, "setup_s": at_ref}))
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
