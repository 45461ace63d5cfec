"""One workload in one process: set up, run rounds of CLI commands, check them.

Started by run.py, which passes the monotonic time at which it spawned this
process so that set-up is measured from process start.  Prints one JSON
object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from probe import REF_PROBE_S, Sampler, probe
from stats import OpOutcome, fail_frac, host_scaled, median, tail
from tracing import Patches, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7  # probe runs after set-up; their median scales setup_s


def _import_cli():
    """The checkout's own ``lcuout.cli``, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import lcuout.cli

    if not Path(lcuout.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported lcuout from {lcuout.cli.__file__}, not from this checkout")
    return lcuout.cli


def environment() -> dict:
    """Versions, CPU and thread settings the numbers were measured with."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_runtime": _blas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports at run time, if numpy bundles it."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class FactorizedRecorder:
    """Keeps (columns, underdetermined columns) of each factorized solve.

    The fig3/fig4 checks need to know whether a completion had every column
    determined; this is read from the solver's result, not recomputed.
    """

    def __init__(self):
        self.calls: list[tuple[int, int]] = []

    def make(self, fn):
        def recorded(entries, *args, **kwargs):
            result = fn(entries, *args, **kwargs)
            self.calls.append((entries.mask.shape[1], len(result.underdetermined)))
            return result

        return recorded


def _written_bytes(out: Path, since_ns: int) -> int:
    return sum(
        p.stat().st_size
        for p in out.parent.glob(f"{out.name}_*")
        if p.stat().st_mtime_ns >= since_ns
    )


def run_op(cli, op: Op, recorder: FactorizedRecorder, count_bytes: bool, sampler=None) -> tuple[OpOutcome, dict]:
    """Time one ``cli.main`` call; return its outcome and what the checks need.

    With a ``sampler``, the host-speed probe also runs inside the call and
    ``seen["span"]`` holds the call's ``(start, end)``.
    """
    recorder.calls.clear()
    wall_ns = time.time_ns()
    outcome = OpOutcome(op.label, 0.0)
    with sampler.armed() if sampler is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcome.exit_code = cli.main(op.argv)
        except SystemExit as exc:
            outcome.exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing command is a failed operation, not a crashed benchmark
            outcome.error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    outcome.seconds = t1 - t0
    seen = {"factorized": list(recorder.calls), "span": (t0, t1)}
    if count_bytes:
        seen["bytes_written"] = _written_bytes(op.out, wall_ns)
    return outcome, seen


def check(op: Op, outcome: OpOutcome, seen: dict) -> None:
    if outcome.error is None and outcome.exit_code == 0:
        try:
            outcome.check_errors = op.check(op, seen)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            outcome.check_errors = [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_round(cli, ops, recorder, tracer=None, sampler=None):
    """Run one round's commands, then check their outputs with tracing off.

    With a ``sampler``, the host-speed probe runs inside and after each
    command; with one probe run before the first, every command is
    bracketed.
    """
    results = []
    patches = tracer.install() if tracer is not None else contextlib.nullcontext()
    with patches:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            results.append((op, *run_op(cli, op, recorder, count_bytes=tracer is not None, sampler=sampler)))
            if sampler is not None:
                sampler.run()
    for op, outcome, seen in results:
        check(op, outcome, seen)
    return results


def _latency_metrics(results, seconds: list[float]) -> dict:
    units = sum(op.units for op, o, _ in results if not o.failed)
    latencies = [1e3 * s for s in seconds]
    t = tail(latencies)
    return {
        "work_per_s": units / sum(seconds),
        "op_p50_ms": median(latencies),
        "op_tail_ms": t.value,
        "tail": {"percentile": t.percentile, "ops": t.count, "beyond": t.beyond},
    }


def timed_phase(cli, workload, first_round, recorder, seconds: float):
    """Whole rounds, tracing off, until ``seconds`` have passed; end-to-end metrics.

    The timing metrics are taken from host-scaled command times (probe.py);
    the raw wall-clock figures go into the detail record.
    """
    results = []
    sampler = Sampler()
    sampler.run()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        results += run_round(cli, workload.round(r) if r else first_round, recorder, sampler=sampler)
        r += 1
    outcomes = [o for _, o, _ in results]
    scaled = [host_scaled(seen["span"], sampler.samples, REF_PROBE_S) for _, _, seen in results]
    probes = [e - s for s, e in sampler.samples]
    metrics = _latency_metrics(results, scaled)
    wall = _latency_metrics(results, [o.seconds for o in outcomes])
    t = metrics.pop("tail")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_label: dict[str, list[float]] = {}
    for o, s in zip(outcomes, scaled):
        by_label.setdefault(o.label, []).append(1e3 * s)
    detail = {
        "rounds": r,
        "work_unit": workload.units_name,
        "tail": t,
        "wall": wall,
        "probe_ms": {
            "ref": 1e3 * REF_PROBE_S, "runs": len(probes),
            "p50": 1e3 * median(probes), "min": 1e3 * min(probes), "max": 1e3 * max(probes),
        },
        "p50_ms_by_command": {k: median(v) for k, v in by_label.items()},
    }
    return results, metrics, detail


def traced_phase(cli, ops, recorder, seconds: float, spans_path: Path):
    """Round 0 repeated, once untraced and once traced per repetition; per-layer metrics."""
    tracer = Tracer()
    results = []
    untraced = traced = 0.0
    bytes_written = 0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        # alternate which side runs first so warm caches favour neither
        sides = (None, tracer) if rounds % 2 == 0 else (tracer, None)
        for side in sides:
            done = run_round(cli, ops, recorder, side)
            wall = sum(o.seconds for _, o, _ in done)
            if side is None:
                untraced += wall
            else:
                traced += wall
                bytes_written += sum(seen["bytes_written"] for _, _, seen in done)
            results += done
        rounds += 1
    metrics, detail = tracer.layer_metrics(rounds)
    metrics["cli.bytes_written"] = bytes_written / rounds
    metrics["trace.overhead_ratio"] = traced / untraced
    detail["traced_rounds"] = rounds
    tracer.write(spans_path)
    return results, metrics, detail


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    cli = _import_cli()
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    recorder = FactorizedRecorder()
    with Patches() as checks_hook:
        checks_hook.function("recovery", "factorized_complete", recorder.make)
        warm = workload.warmup()
        warm_outcome, seen = run_op(cli, warm, recorder, count_bytes=False)
        check(warm, warm_outcome, seen)
        first_round = workload.round(0)
        setup_wall = time.monotonic() - args.spawned_at
        # untimed: also warms the probe before the timed phase uses it
        setup_probe = median([probe() for _ in range(SETUP_PROBES)])
        setup_s = setup_wall * REF_PROBE_S / setup_probe
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0
        if args.trace:
            results, metrics, detail = traced_phase(cli, first_round, recorder, args.seconds, workdir / "spans.json")
        else:
            results, metrics, detail = timed_phase(cli, workload, first_round, recorder, args.seconds)
    # the untimed warm-up counts as an attempted command, so its failure shows
    outcomes = [warm_outcome] + [o for _, o, _ in results]
    metrics["fail_frac"] = fail_frac(outcomes)
    detail.update(env=environment(), setup_s=setup_s, setup_wall_s=setup_wall, failures=[vars(o) for o in outcomes if o.failed][:20])
    print(json.dumps({
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
