"""vspace benchmark driver (standard library only).

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs one workload closed-loop from this process: one client, no worker
threads, the next op only after the previous one returns (the ``cli``
workload runs each op as one child process, one at a time).  Every op's
output is checked against the committed goldens.  ``--workload all``
runs the four workloads one after another, each in a child process.

With ``--trace 0`` the end-to-end metrics are reported: set-up time
(median of ``SETUP_REPS`` imports plus input generations), throughput
over the summed op time, p50/p90 latency, and peak RSS.  These times are
reference-speed times (see ``SpeedReference``); the raw wall-clock rate
and percentiles are printed on the meta line.  With
``--trace 1`` untraced and traced passes over the drawn ops alternate
for ``--seconds`` (the ``cli`` ops then call ``cli.main`` in-process); the
traced passes give the per-layer metrics as raw wall times (per op means
over whole passes, so call and node counts repeat exactly for a seed) and
the two kinds of passes give the tracing overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; rows before it give the same
metrics by name with units, the error rate and the run metadata.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads as wl
from tracer import Tracer

ROOT = wl.ROOT
SRC = ROOT / "src"
MODULES = ("spaces", "connectivity", "tolerance", "coding", "oracles", "files", "cli")
SETUP_REPS = 5
INTERPRETER_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class NoProgram(Exception):
    """The package under test cannot be imported from this checkout."""


def import_vspace() -> SimpleNamespace:
    """Import ``vspace`` afresh from ``src/`` (set-up repeats this)."""
    if not (SRC / "vspace" / "__init__.py").is_file():
        raise NoProgram(f"no package at {SRC / 'vspace'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "vspace" or m.startswith("vspace.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"vspace.{name}") for name in MODULES}
    mods["package"] = sys.modules["vspace"]
    if Path(mods["package"].__file__).resolve().parent != (SRC / "vspace").resolve():
        raise NoProgram(f"vspace imported from {mods['package'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report_failure(key: str, failures: list[str], exc: BaseException | None) -> None:
    failures.append(key)
    if len(failures) <= 3:
        detail = "".join(traceback.format_exception(exc)) if exc else "output differs from golden\n"
        print(f"op {key} failed: {detail}", file=sys.stderr, end="")


def run_op(key, run, check, failures, call=None) -> float:
    """Run one op (through ``call`` when tracing), check it, return its wall time."""
    start = perf_counter()
    try:
        result = call("bench.op", run) if call else run()
    except Exception as exc:  # every op failure is counted, never fatal
        elapsed = perf_counter() - start
        report_failure(key, failures, exc)
        return elapsed
    elapsed = perf_counter() - start
    try:
        ok = check(result)
    except Exception as exc:
        report_failure(key, failures, exc)
    else:
        if not ok:
            report_failure(key, failures, None)
    return elapsed


def reference_work() -> None:
    """Build frozensets and test them for overlap into a dict: the
    operations that dominate ``vspace``, so this slows down with it."""
    sets = [frozenset(range(i, i + 8)) for i in range(64)]
    seen = {}
    hits = 0
    for x in sets:
        for y in sets[::4]:
            if not x.isdisjoint(y):
                hits += 1
                seen[hits & 63] = x


def start_interpreter(code: str = "pass") -> None:
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.cli_env(), check=True,
                   stdin=subprocess.DEVNULL, capture_output=True)


class SpeedReference:
    """Tracks the host's speed by timing a fixed piece of reference work.

    The sandbox's CPU speed drifts by up to 1.5x over seconds to minutes
    (other tenants share the cores), which moves every raw timing of a
    run together.  ``scale`` turns a wall time into reference-speed time:
    the wall time times ``nominal_s`` over the median of the last five
    timings of the reference work, so a time reads as it would on a host
    where that work takes ``nominal_s`` (about this sandbox's unloaded
    speed).  The reference is timed again once ``every_s`` has passed.
    """

    def __init__(self, work, nominal_s: float, every_s: float):
        self.work, self.nominal_s, self.every_s = work, nominal_s, every_s
        self.readings: deque[float] = deque(maxlen=5)
        self.last = 0.0
        for _ in range(5):
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        self.work()
        self.last = perf_counter()
        self.readings.append(self.last - start)

    def scale(self, elapsed: float) -> float:
        """Reference-speed time of a wall time that just ended."""
        if perf_counter() - self.last >= self.every_s:
            self.sample()
        return elapsed * self.nominal_s / statistics.median(self.readings)


def in_process_speed() -> SpeedReference:
    return SpeedReference(reference_work, 0.0003, 0.02)


def child_process_speed() -> SpeedReference:
    """For ops that start an interpreter, whose cost moves with process start-up."""
    return SpeedReference(start_interpreter, 0.05, 0.3)


def setup(workload, seed: int, ctx, speed: SpeedReference):
    times = []
    for _ in range(SETUP_REPS):
        vs = ops = None  # one corpus in memory at a time
        start = perf_counter()
        vs = import_vspace()
        ops = workload.ops(vs, seed, ctx)
        times.append(speed.scale(perf_counter() - start))
    gc.collect()
    return statistics.median(times), vs, ops


class LogHistogram:
    """Latency samples in buckets 0.1 % wide on a log scale.

    Quantiles are within 0.05 % of the exact sample quantile, the sum is
    exact, and memory does not grow with the sample count, so the
    harness's own memory stays out of ``peak_rss_mb``.
    """

    STEP = math.log(1.001)

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        bucket = math.floor(math.log(max(seconds, 1e-9)) / self.STEP)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.n += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, as the middle of its bucket."""
        rank = max(1, math.ceil(q * self.n))
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= rank:
                return math.exp((bucket + 0.5) * self.STEP)
        raise ValueError("empty histogram")


def measure_end_to_end(workload, ops, seconds: float, setup_s: float, speed: SpeedReference):
    """Cycle through ``ops`` for ``seconds``; every op is one latency sample."""
    latencies, walls, failures = LogHistogram(), LogHistogram(), []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        key, run, check = ops[i % len(ops)]
        elapsed = run_op(key, run, check, failures)
        walls.add(elapsed)
        latencies.add(speed.scale(elapsed))
        i += 1
        if perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    n = latencies.n
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": n / latencies.total,
        "latency_p50_ms": 1e3 * latencies.quantile(0.5),
        "latency_p90_ms": 1e3 * latencies.quantile(0.9),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "samples": n, "beyond_p90": n - math.ceil(0.9 * n), "wall_ops_s": f"{n / walls.total:.6g}",
        "wall_p50_ms": f"{1e3 * walls.quantile(0.5):.6g}", "wall_p90_ms": f"{1e3 * walls.quantile(0.9):.6g}",
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return metrics, n, len(failures), extra


def interpreter_costs() -> tuple[float, float]:
    """Median wall ms of a bare interpreter, and of ``import vspace.cli`` minus it."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(INTERPRETER_REPS):
            start = perf_counter()
            start_interpreter(code)
            times.append(perf_counter() - start)
        return 1e3 * statistics.median(times)

    bare = median_ms("pass")
    return bare, median_ms("import vspace.cli") - bare


def per_op(hook: str, field: str):
    def value(t: Tracer, n: int) -> float:
        if field == "calls":
            return t.calls[hook] / n
        return 1e3 * t.self_s[hook] / n
    return value


PRUNED, BRUTE, COVER = "connectivity.pruned_search", "connectivity.brute_search", "connectivity.brute_cover"


def us_per_node(t: Tracer, n: int) -> float:
    nodes = t.calls[PRUNED] + t.calls[COVER]
    return 1e6 * (t.outer_s[PRUNED] + t.outer_s[BRUTE]) / nodes if nodes else 0.0


# (metric, unit, hooks it needs, value from the traced passes).  The
# "*.self_ms" metrics, connectivity.precompute_ms and bench.unattributed_ms
# add up to bench.traced_op_ms; cli.main_ms is cli.main's total time.
LAYER_METRICS = (
    ("spaces.validate_space.calls_per_op", "calls/op", ("spaces.validate_space",), per_op("spaces.validate_space", "calls")),
    ("spaces.validate_space.self_ms", "ms/op", ("spaces.validate_space",), per_op("spaces.validate_space", "self")),
    ("connectivity.nodes_per_op", "nodes/op", (PRUNED, COVER), lambda t, n: (t.calls[PRUNED] + t.calls[COVER]) / n),
    ("connectivity.us_per_node", "us/node", (PRUNED, BRUTE, COVER), us_per_node),
    ("connectivity.is_connected.self_ms", "ms/op", ("connectivity.is_connected",), per_op("connectivity.is_connected", "self")),
    ("connectivity.precompute_ms", "ms/op", ("connectivity.precompute",), per_op("connectivity.precompute", "self")),
    ("connectivity.verify_witness.self_ms", "ms/op", ("connectivity.verify_witness",), per_op("connectivity.verify_witness", "self")),
    ("connectivity.chain_exists.calls_per_op", "calls/op", ("connectivity.chain_exists",), per_op("connectivity.chain_exists", "calls")),
    ("tolerance.tolerance_report.calls_per_op", "calls/op", ("tolerance.tolerance_report",), per_op("tolerance.tolerance_report", "calls")),
    ("tolerance.tolerance_report.self_ms", "ms/op", ("tolerance.tolerance_report",), per_op("tolerance.tolerance_report", "self")),
    ("tolerance.check_nontol.self_ms", "ms/op", ("tolerance.check_nontol",), per_op("tolerance.check_nontol", "self")),
    ("coding.validate_config.calls_per_op", "calls/op", ("coding.validate_config",), per_op("coding.validate_config", "calls")),
    ("coding.build_coded_space.self_ms", "ms/op", ("coding.build_coded_space",), per_op("coding.build_coded_space", "self")),
    ("coding.decode_from_cover.self_ms", "ms/op", ("coding.decode_from_cover",), per_op("coding.decode_from_cover", "self")),
    ("coding.verify_roundtrip.self_ms", "ms/op", ("coding.verify_roundtrip",), per_op("coding.verify_roundtrip", "self")),
    ("files.parse_space.self_ms", "ms/op", ("files.parse_space",), per_op("files.parse_space", "self")),
    ("files.serialize_space.self_ms", "ms/op", ("files.serialize_space",), per_op("files.serialize_space", "self")),
    ("files.parse_cover.self_ms", "ms/op", ("files.parse_cover",), per_op("files.parse_cover", "self")),
    ("files.bytes_in", "B/op", ("files.parse_space", "files.parse_cover", "files.parse_oracle"), lambda t, n: t.bytes["in"] / n),
    ("files.bytes_out", "B/op", ("files.serialize_space", "files.serialize_cover", "files.serialize_oracle"), lambda t, n: t.bytes["out"] / n),
    ("cli.main_ms", "ms/op", ("cli.main",), lambda t, n: 1e3 * t.total_s["cli.main"] / n),
    ("cli.main.self_ms", "ms/op", ("cli.main",), per_op("cli.main", "self")),
    ("bench.traced_op_ms", "ms/op", (), lambda t, n: 1e3 * t.total_s["bench.op"] / n),
    ("bench.unattributed_ms", "ms/op", (), per_op("bench.op", "self")),
)


def measure_traced(workload, vs, ops, seconds: float, seed: int, ctx):
    """Alternate untraced and traced passes over ``ops`` for ``seconds``."""
    modules = {name: getattr(vs, name) for name in (*MODULES, "package")}
    tracer = Tracer(modules)
    failures: list[str] = []
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(sum(run_op(key, run, check, failures) for key, run, check in ops))
        tracer.install()
        try:
            traced.append(sum(run_op(key, run, check, failures, tracer.span) for key, run, check in ops))
        finally:
            tracer.uninstall()
        tracer.fold()
        if perf_counter() >= deadline:
            break
    n = len(traced) * len(ops)

    # Machine oracles are enumerated while inputs are generated, so that
    # layer is timed on one traced set-up.
    setup_tracer = Tracer(modules)
    setup_tracer.install()
    try:
        setup_tracer.span("bench.setup", workload.ops, vs, seed, ctx)
    finally:
        setup_tracer.uninstall()
    setup_tracer.fold()

    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, unit, hooks, value in LAYER_METRICS:
        missing = [h for h in hooks if h in tracer.absent]
        if missing:
            absent.append(f"{name} (hook {', '.join(missing)} missing)")
        else:
            metrics[name] = (value(tracer, n), unit)
    if "oracles.machine_enumeration" in setup_tracer.absent:
        absent.append("oracles.machine_enumeration.self_ms (hook missing)")
    else:
        metrics["oracles.machine_enumeration.self_ms"] = (
            1e3 * setup_tracer.self_s["oracles.machine_enumeration"], "ms")
    interp, imp = interpreter_costs() if workload.children else (0.0, 0.0)
    metrics["cli.interpreter_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imp, "ms")
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["bench.tracing_overhead_pct"] = (overhead, "%")
    extra = {"traced_passes": len(traced), "ops_per_pass": len(ops)}
    return metrics, (len(plain) + len(traced)) * len(ops), len(failures), extra, absent


def emit(workload: str, seed: int, trace: int, metrics, attempted: int, failed: int, extra, absent=()) -> None:
    meta = {
        "workload": workload, "seed": seed, "trace": trace, "git": git_revision(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(), **extra,
    }
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    cells = " ".join(f"{k}={v:.6g} {unit}" for k, (v, unit) in metrics.items())
    print(f"row {workload} {cells} error_rate={failed / attempted:.6g} 1")
    for line in absent:
        print(f"absent {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(work=work, in_process=bool(args.trace))
    try:
        setup_s, vs, ops = setup(workload, args.seed, ctx, in_process_speed())
        if args.trace:
            metrics, attempted, failed, extra, absent = measure_traced(
                workload, vs, ops, args.seconds, args.seed, ctx)
        else:
            speed = child_process_speed() if workload.children else in_process_speed()
            metrics, attempted, failed, extra = measure_end_to_end(
                workload, ops, args.seconds, setup_s, speed)
            absent = ()
    except (NoProgram, wl.CorpusMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    emit(workload.name, args.seed, args.trace, metrics, attempted, failed, extra, absent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
