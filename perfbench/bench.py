"""Closed-loop benchmark of `netinfer infer`: one client, one op at a time.

Each op is a full `netinfer infer` run through `netinfer.cli.main` in this
process. An op fails if it raises, exits non-zero, or writes `inferred.dot`
or `report.json` bytes that differ from the run's first op or from the
digests recorded in expected.json for this workload and seed.

Untraced runs report the end-to-end metrics. Traced runs alternate untraced
and traced ops, then repeat one op serially (NETINFER_THREADS=1), and report
per-layer metrics derived from the spans in spans.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from netinfer import cli
from netinfer._threads import worker_count

import spans
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
OUTPUTS = ("inferred.dot", "report.json")
SETUP_REPEATS = 5

# the setup each repeat times: a fresh interpreter imports netinfer and
# simulates the workload's dataset through the CLI
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from netinfer.cli import main; "
    "sys.exit(main(['simulate', '--config', sys.argv[2], '--out-dir', sys.argv[3]]))"
)


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory inside the source tree, removed afterwards."""
    work = ROOT / ".perfbench_work" / tag
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            work.parent.rmdir()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(expected: dict, workload: str, seed: int):
    return expected.get(workload, {}).get(str(seed))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    digests: dict | None  # None when the op raised or exited non-zero
    error: str = ""
    ok: bool = False  # set by Run.check


@dataclass
class Run:
    """What one run measured, before it is turned into metrics."""
    reference: dict | None = None
    ops: list[Op] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, op: Op, label: str) -> Op:
        """Pass the op only if it wrote the reference bytes."""
        if op.digests is None:
            self.failures.append(f"{label}: {op.error}")
        elif self.reference is None or op.digests == self.reference:
            self.reference = op.digests
            op.ok = True
        else:
            self.failures.append(f"{label}: output bytes differ")
        self.ops.append(op)
        return op


@contextlib.contextmanager
def _traced_op(tracer: spans.Tracer):
    with spans.installed(tracer), tracer.op():
        yield


def run_op(argv: list[str], out_dir: Path, tracer=None) -> Op:
    for name in OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    sink = io.StringIO()
    error = ""
    traced = (_traced_op(tracer) if tracer is not None
              else contextlib.nullcontext())
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with traced:
                rc = cli.main(argv)
    except Exception as exc:  # an op that raises counts as failed
        rc, error = None, f"raised {exc!r}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if rc != 0:
        return Op(wall, cpu, None, error or f"exit code {rc}: {sink.getvalue()[-300:]}")
    try:
        return Op(wall, cpu, {n: _sha256(out_dir / n) for n in OUTPUTS})
    except FileNotFoundError as exc:
        return Op(wall, cpu, None, f"no output {exc.filename}")


def setup(workload: Workload, seed: int, work: Path, repeats: int) -> list[float]:
    """Simulate the dataset `repeats` times, each in a fresh interpreter."""
    config = work / "config.json"
    config.write_text(json.dumps(workload.sim_config(seed)), encoding="utf-8")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config),
             str(work / "data")],
            capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"simulate failed: {proc.stderr.strip()}")
    return times


def shd_of(work: Path) -> int:
    """Structural Hamming distance via `netinfer eval`, outside any timing."""
    out = work / "metrics.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["eval", "--inferred", str(work / "out" / "inferred.dot"),
                       "--truth", str(work / "data" / "truth.dot"),
                       "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"netinfer eval exited {rc}")
    return json.loads(out.read_text(encoding="utf-8"))["shd"]


def machine_facts(ops: list[Op]) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "NETINFER_THREADS": os.environ.get("NETINFER_THREADS"),
        "worker_count": worker_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_per_wall": sum(o.cpu_s for o in ops) / sum(o.wall_s for o in ops),
    }


@contextlib.contextmanager
def _threads_env(value: str):
    old = os.environ.get("NETINFER_THREADS")
    os.environ["NETINFER_THREADS"] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ["NETINFER_THREADS"]
        else:
            os.environ["NETINFER_THREADS"] = old


def _fits(start: float, seconds: float, next_s: float) -> bool:
    """Whether another op, as long as the last, ends inside the run's window."""
    return time.perf_counter() - start + next_s <= seconds


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(profiles: list[spans.OpProfile], scorers_per_op: list[list],
                  untraced: list[Op], traced: list[Op], serial: Op,
                  simulate: spans.OpProfile) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op figure."""

    def med(fn):
        return _median([fn(p, s) for p, s in zip(profiles, scorers_per_op)])

    def per(total, count, scale=1000.0):
        return total * scale / count if count else 0.0

    def hits(s):
        return sum(sc.cache.hits for sc in s)

    def misses(s):
        return sum(sc.cache.misses for sc in s)

    search_spans = ("cli.exhaustive_search", "cli.greedy_hill_climb")
    pooled = _median([o.wall_s for o in untraced])
    return {
        "timeseries.load_csv_s": med(lambda p, s: p.total_s["cli.load_csv"]),
        "timeseries.discretize_s": med(lambda p, s: p.total_s["cli.discretize"]),
        "timeseries.delay_embed_s": med(lambda p, s: p.total_s["cli.delay_embed"]),
        "estimators.conditional_entropy_s":
            med(lambda p, s: p.total_s["scores.conditional_entropy"]),
        "estimators.conditional_entropy_calls":
            med(lambda p, s: p.calls["scores.conditional_entropy"]),
        "estimators.ms_per_call":
            med(lambda p, s: per(p.total_s["scores.conditional_entropy"],
                                 p.calls["scores.conditional_entropy"])),
        "significance.surrogate_te_samples_s":
            med(lambda p, s: p.total_s["scores.surrogate_te_samples"]),
        "significance.populations":
            med(lambda p, s: p.calls["scores.surrogate_te_samples"]),
        "significance.surrogates":
            med(lambda p, s: p.notes["scores.surrogate_te_samples"]),
        "significance.ms_per_surrogate":
            med(lambda p, s: per(p.total_s["scores.surrogate_te_samples"],
                                 p.notes["scores.surrogate_te_samples"])),
        "threads.workers": worker_count(),
        "threads.pool_speedup": serial.wall_s / pooled,
        "threads.cpu_per_wall":
            sum(o.cpu_s for o in untraced) / sum(o.wall_s for o in untraced),
        "scores.local_calls": med(lambda p, s: p.calls["scores.Scorer.local"]),
        "scores.local_self_s": med(lambda p, s: p.self_s["scores.Scorer.local"]),
        "scores.cache_hits": med(lambda p, s: hits(s)),
        "scores.cache_misses": med(lambda p, s: misses(s)),
        "scores.cache_hit_ratio":
            med(lambda p, s: per(hits(s), hits(s) + misses(s), 1.0)),
        "graph.enumerate_dags_s": med(lambda p, s: p.total_s[spans.ENUM_SPAN]),
        "graph.dags_enumerated": med(lambda p, s: p.notes[spans.ENUM_SPAN]),
        "search.self_s": med(lambda p, s: sum(p.self_s[n] for n in search_spans)),
        "search.visited": med(lambda p, s: sum(p.notes[n] for n in search_spans)),
        "search.visited_per_s":
            med(lambda p, s: per(sum(p.notes[n] for n in search_spans),
                                 sum(p.total_s[n] for n in search_spans), 1.0)),
        "cli.self_s": med(lambda p, s: p.self_s[spans.ROOT_SPAN]),
        "simulate.simulate_s": simulate.total_s["cli.simulate"],
        "trace.overhead_frac": _median([o.wall_s for o in traced]) / pooled - 1.0,
    }


def coverage_failures(workload: Workload, profiles: list[spans.OpProfile],
                      traced: list[Op], tracer: spans.Tracer) -> list[str]:
    """Expected spans that saw no call, and ops whose self times do not add up."""
    failures = []
    for i, (p, op) in enumerate(zip(profiles, [o for o in traced if o.ok])):
        for name in workload.expected_spans:
            if p.calls[name] == 0:
                failures.append(f"traced op {i}: span {name} saw no call")
        # the self times of all spans partition the root span, which sits
        # just inside the op's own wall-clock interval
        if not 0.0 <= op.wall_s - p.self_sum_s <= max(0.005, 0.01 * op.wall_s):
            failures.append(f"traced op {i}: self times sum to {p.self_sum_s:.6f} s "
                            f"but the op took {op.wall_s:.6f} s")
    if tracer.off_thread_calls:
        failures.append(f"{tracer.off_thread_calls} traced calls ran off the "
                        "op's thread")
    left = spans.wrappers_left()
    if left:
        failures.append(f"wrappers survived the traced run: {left}")
    return failures


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, expected: dict | None) -> tuple[dict, list[str]]:
    """One run: returns the result object and the human-readable lines."""
    if work.exists():
        shutil.rmtree(work)
    (work / "out").mkdir(parents=True)
    out_dir = work / "out"
    setup_times = setup(workload, seed, work, SETUP_REPEATS)
    argv = workload.infer_argv(str(work / "data" / "data.csv"), str(out_dir))
    run = Run(reference=dict(expected["digests"]) if expected else None)

    untraced: list[Op] = []
    traced: list[Op] = []
    profiles: list[spans.OpProfile] = []
    scorers_per_op: list[list] = []
    serial = simulate = None
    tracer = spans.Tracer()
    start = time.perf_counter()
    if not trace:
        while not untraced or _fits(start, seconds, untraced[-1].wall_s):
            untraced.append(run.check(run_op(argv, out_dir), f"op {len(run.ops)}"))
    else:
        with contextlib.redirect_stdout(io.StringIO()), _traced_op(tracer):
            cli.main(["simulate", "--config", str(work / "config.json"),
                      "--out-dir", str(work / "sim")])
        simulate = spans.OpProfile(tracer.take()[0])
        # alternate, so that drift in the host's speed hits both sides
        while not traced or _fits(start, seconds,
                                  untraced[-1].wall_s + traced[-1].wall_s):
            untraced.append(run.check(run_op(argv, out_dir), f"op {len(run.ops)}"))
            traced.append(run.check(run_op(argv, out_dir, tracer),
                                    f"traced op {len(run.ops)}"))
            op_spans, scorers = tracer.take()
            if traced[-1].ok:
                profiles.append(spans.OpProfile(op_spans))
                scorers_per_op.append(scorers)
        with _threads_env("1"):
            serial = run.check(run_op(argv, out_dir), "serial op")
        run.failures += coverage_failures(workload, profiles, traced, tracer)

    shd = shd_of(work) if run.ops[-1].ok else None
    if expected and shd != expected["shd"]:
        run.failures.append(f"shd {shd} differs from the recorded {expected['shd']}")

    failed = sum(not o.ok for o in run.ops)
    good = [o.wall_s for o in untraced if o.ok] or [o.wall_s for o in untraced]
    if trace:
        metrics = (layer_metrics(profiles, scorers_per_op, untraced, traced,
                                 serial, simulate)
                   if profiles and serial.ok else {})
    else:
        metrics = {
            "infer_s": statistics.median(good),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    lines = [
        f"perfbench workload={workload.name} seed={seed} trace={int(trace)} "
        f"seconds={seconds}",
        "machine " + json.dumps(machine_facts(run.ops)),
        f"ops attempted={len(run.ops)} failed={failed} "
        f"failed_ops_frac={failed / len(run.ops):.4f}",
        f"infer_s n={len(good)} median={statistics.median(good):.4f} "
        f"min={min(good):.4f} max={max(good):.4f}",
        f"setup_s n={len(setup_times)} " + " ".join(f"{t:.4f}" for t in setup_times),
        f"shd {shd}" + (f" (recorded {expected['shd']})" if expected else ""),
        "digests " + json.dumps(run.reference),
    ] + [f"failure: {f}" for f in run.failures]
    result = {
        "correct": not run.failures and failed == 0 and bool(metrics),
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines
