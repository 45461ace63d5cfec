"""lcuout benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload fig3-svp --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  The workload runs in its own process with
BLAS/OpenMP pinned to one thread; set-up is measured in SETUP_RUNS separate
processes and reported as their median.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics named in BENCHMARK.json (times scaled
to a reference host speed, see probe.py), with
``--trace 1`` the per-layer metrics of a traced run.  Exits non-zero without
a result when the checkout has no ``src/lcuout`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIMEOUT_S = 170
THREADS = 1  # at or below nproc; one thread keeps runs on a shared box comparable
WORKLOADS = ("fig3-svp", "fig4-factorized", "verify-dense", "trapdoor-cli")


def _worker(args, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(ROOT / ".bench_work" / args.workload),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)], env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "lcuout" / "__init__.py").is_file():
        print(f"error: no lcuout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        setups = [_worker(args, True, deadline) for _ in range(SETUP_RUNS - 1)]
    result = _worker(args, False, deadline)
    detail = result["detail"]
    setups.append({k: detail[k] for k in ("setup_s", "setup_wall_s")})
    values = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["ok_frac"] = 1.0 - values["fail_frac"]
    detail["setup_s"] = [s["setup_s"] for s in setups]
    detail["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "detail": detail}))
    if not args.trace:
        tail, wall = detail["tail"], detail["wall"]
        print(f"host speed   probe p50 {detail['probe_ms']['p50']:.3f} ms against {detail['probe_ms']['ref']:g} ms reference; "
              "times below are scaled to the reference, wall clock in brackets")
        print(f"setup_s      {values['setup_s']:.4f} s    (median of {len(setups)} processes; "
              f"wall {statistics.median(detail['setup_wall_s']):.4f} s)")
        print(f"work_per_s   {values['work_per_s']:.4f} 1/s  ({detail['work_unit']}s per busy second; "
              f"wall {wall['work_per_s']:.4f})")
        print(f"op_p50_ms    {values['op_p50_ms']:.3f} ms   (wall {wall['op_p50_ms']:.3f})")
        print(f"op_tail_ms   {values['op_tail_ms']:.3f} ms   (p{tail['percentile']:.1f} of {tail['ops']} ops, "
              f"{tail['beyond']} beyond; wall {wall['op_tail_ms']:.3f})")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"fail_frac    {values['fail_frac']:.4f}      ({failed} of {attempted} ops failed)")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
