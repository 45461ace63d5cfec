"""The four benchmark workloads: CLI commands generated from the workload seed.

Each workload is a sequence of rounds; a round is a fixed list of ``lcuout``
commands, each run in process through ``lcuout.cli.main(argv)``.  Round r's
configs come only from (workload, seed, r), so the same seed gives the same
commands.  Every command carries the checks its outputs must pass for any
seed.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FRACTIONS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
SIGMAS = [1e-4, 1e-3, 1e-2]
K = 4

# Exact-recovery tolerance for noiseless factorized rows whose columns all
# hold at least K observations.
EXACT_TOL = 1e-10
# SVP error at the top fraction (0.95) reached at most 0.048 over 564 seeded
# instances at N = 256 and N = 1024; its tail comes from columns with few
# observations, so the bound leaves a 4x margin.
SVP_TOP_BOUND = 0.2
# fig4 reuses each mask's noise draw at every sigma, and the factorized solve
# is linear and exact without noise, so err_phi / sigma must agree across the
# sigma rows to rounding.  (The ratio itself ranged 57 to 221 over 62 seeds,
# too heavy-tailed for a fixed bound.)
FIG4_RATIO_RTOL = 1e-9


@dataclass
class Op:
    """One CLI command, the work units it completes, and its output checks."""

    label: str
    argv: list[str]
    out: Path
    units: int = 1
    check: Callable[["Op", dict], list[str]] = lambda op, seen: []


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _write(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def _sweep_rows(path: Path) -> list[dict]:
    """Data rows of a sweep CSV written by the CLI ('#' lines are comments)."""
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _finite_rows(path: Path, errors: list[str]) -> list[dict]:
    rows = _sweep_rows(path)
    for row in rows:
        for key in ("mean_err_phi", "mean_err_target"):
            if not math.isfinite(float(row[key])):
                errors.append(f"{path.name}: {row['method']} {row['param']} {key} is not finite")
    return rows


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    name = ""
    units_name = "command"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = workdir / "cfg"
        self.out = workdir / "out"
        self.cfg.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> Op:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class Fig3Svp(Workload):
    """fig3 over the default fraction grid at N = 256 and N = 1024."""

    name = "fig3-svp"
    units_name = "completion"

    def _config(self, seed: int, sizes: list[int], fractions: list[float]) -> dict:
        return {
            "k": K, "sizes": sizes, "fractions": fractions, "sigma": 0.0,
            "instances": 1, "masks_per_instance": 1, "methods": ["svp", "factorized"], "seed": seed,
        }

    def warmup(self) -> Op:
        path = _write(self.cfg / "warmup.json", self._config(1, [256], [0.95]))
        return Op("warmup", ["fig3", "--config", path, "--out", str(self.out / "warmup")], self.out / "warmup")

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        config = self._config(rng.randrange(2**31), [256, 1024], FRACTIONS)
        path = _write(self.cfg / f"fig3-{r}.json", config)
        out = self.out / "fig3"
        units = len(config["sizes"]) * len(FRACTIONS) * len(config["methods"])
        return [Op("fig3", ["fig3", "--config", path, "--out", str(out)], out, units, self._check)]

    @staticmethod
    def _check(op: Op, seen: dict) -> list[str]:
        errors: list[str] = []
        under = seen.get("factorized", [])
        for size in (256, 1024):
            rows = _finite_rows(Path(f"{op.out}_fig3_N{size}.csv"), errors)
            if len(rows) != 2 * len(FRACTIONS):
                errors.append(f"N={size}: expected {2 * len(FRACTIONS)} rows, got {len(rows)}")
            for row in rows:
                if row["method"] == "svp" and float(row["param"]) == FRACTIONS[-1]:
                    if not float(row["mean_err_phi"]) <= SVP_TOP_BOUND:
                        errors.append(f"N={size}: svp at {FRACTIONS[-1]} err {row['mean_err_phi']} > {SVP_TOP_BOUND}")
            # One completion per row: a factorized row may miss exact recovery
            # only if one of this size's completions left a column with < K rows.
            inexact = sum(
                1 for row in rows if row["method"] == "factorized" and not float(row["mean_err_phi"]) <= EXACT_TOL
            )
            allowed = sum(1 for cols, n_under in under if cols == size and n_under > 0)
            if inexact > allowed:
                errors.append(f"N={size}: {inexact} factorized rows above {EXACT_TOL}, {allowed} underdetermined")
        return errors


class Fig4Factorized(Workload):
    """fig4 at n = 9 with the C-aware solver only."""

    name = "fig4-factorized"
    units_name = "completion"

    def _config(self, seed: int, sigmas: list[float], masks: int) -> dict:
        return {
            "k": K, "n": 9, "fraction": 0.7, "sigmas": sigmas, "instances": 1,
            "masks_per_instance": masks, "methods": ["factorized"],
            "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": seed,
        }

    def warmup(self) -> Op:
        path = _write(self.cfg / "warmup.json", self._config(1, [1e-3], 1))
        return Op("warmup", ["fig4", "--config", path, "--out", str(self.out / "warmup")], self.out / "warmup")

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        config = self._config(rng.randrange(2**31), SIGMAS, 10)
        path = _write(self.cfg / f"fig4-{r}.json", config)
        out = self.out / "fig4"
        units = len(SIGMAS) * config["instances"] * config["masks_per_instance"]
        return [Op("fig4", ["fig4", "--config", path, "--out", str(out)], out, units, self._check)]

    @staticmethod
    def _check(op: Op, seen: dict) -> list[str]:
        errors: list[str] = []
        rows = _finite_rows(Path(f"{op.out}_fig4.csv"), errors)
        if len(rows) != len(SIGMAS):
            errors.append(f"expected {len(SIGMAS)} rows, got {len(rows)}")
        ratios = [float(row["mean_err_phi"]) / float(row["param"]) for row in rows]
        if ratios and not max(ratios) - min(ratios) <= FIG4_RATIO_RTOL * min(ratios):
            errors.append(f"err_phi / sigma is not constant across sigma: {ratios}")
        if any(n_under for _, n_under in seen.get("factorized", [])):
            errors.append("a column was underdetermined despite min_per_column >= K")
        return errors


class VerifyDense(Workload):
    """verify on n = 7 specs plus the involution cipher on 7-qubit Pauli strings."""

    name = "verify-dense"

    def warmup(self) -> Op:
        out = self.out / "warmup"
        return Op("warmup", ["verify", "--out", str(out)], out)

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops = []
        for mixing in ("hadamard", "dft"):
            for variant in ("reflection", "cyclic"):
                label = f"verify-{mixing}-{variant}"
                config = {
                    "K": K, "n": 7, "weights": [rng.uniform(0.1, 1.0) for _ in range(K)],
                    "unitaries": {"kind": "haar", "seed": rng.randrange(2**31)},
                    "mixing": mixing, "variant": variant,
                }
                path = _write(self.cfg / f"{label}-{r}.json", config)
                out = self.out / label
                argv = ["verify", "--config", path, "--seed", str(rng.randrange(2**31)), "--out", str(out)]
                ops.append(Op(label, argv, out, check=self._check_verify))
        config = {
            "K": K, "n": 7, "scheme": "hadamard", "variant": "reflection",
            "unitaries": {"kind": "pauli_strings", "data": ["".join(rng.choice("IXYZ") for _ in range(7)) for _ in range(K)]},
            "psi_seed": rng.randrange(2**31),
        }
        path = _write(self.cfg / f"involution-{r}.json", config)
        out = self.out / "involution"
        argv = ["trapdoor", "demo-involution", "--config", path, "--seed", str(rng.randrange(2**31)), "--out", str(out)]
        ops.append(Op("demo-involution", argv, out, check=self._check_involution))
        return ops

    @staticmethod
    def _check_verify(op: Op, seen: dict) -> list[str]:
        report = _read_json(Path(f"{op.out}_verify.json"))
        bad = [c["name"] for c in report["checks"] if not (c.get("skipped") or c["pass"])]
        return [f"verify check {name} failed" for name in bad]

    @staticmethod
    def _check_involution(op: Op, seen: dict) -> list[str]:
        fid = _read_json(Path(f"{op.out}_involution.json"))["fidelity"]
        return [] if abs(fid - 1.0) <= 1e-10 else [f"involution fidelity {fid} is not 1"]


class TrapdoorCli(Workload):
    """The trapdoor protocol at n = 8, one command at a time."""

    name = "trapdoor-cli"

    def warmup(self) -> Op:
        out = self.out / "warmup"
        return Op("warmup", ["trapdoor", "demo-involution", "--out", str(out)], out)

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        config = {
            "K": K, "n": 8, "scheme": "hadamard", "variant": "reflection",
            "unitaries": {"kind": "haar", "seed": rng.randrange(2**31)}, "psi_seed": rng.randrange(2**31),
        }
        common = ["--config", _write(self.cfg / f"trapdoor-{r}.json", config)]
        o = {name: self.out / name for name in ("keygen", "amp", "shots", "inv-mask", "inv-phi", "atk-amp", "atk-mag")}
        key = f"{o['keygen']}_key.json"
        amplitudes = f"{o['amp']}_amplitudes.csv"
        magnitudes = f"{o['shots']}_magnitudes.csv"

        def cmd(action, out, *extra):
            return ["trapdoor", action, *common, "--seed", str(rng.randrange(2**31)), "--out", str(out), *extra]

        return [
            Op("keygen", cmd("keygen", o["keygen"]), o["keygen"]),
            Op("eval-amplitudes", cmd("eval", o["amp"], "--key", key, "--dump", "amplitudes"), o["amp"],
               check=lambda op, seen: self._check_amplitudes(op, config, key)),
            Op("eval-shots", cmd("eval", o["shots"], "--key", key, "--shots", "100000"), o["shots"]),
            Op("invert-density", cmd("invert", o["inv-mask"], "--key", key, "--density", "0.7", "--sigma", "1e-3"),
               o["inv-mask"], check=self._check_invert_finite),
            Op("invert-phi", cmd("invert", o["inv-phi"], "--key", key, "--phi", amplitudes), o["inv-phi"],
               check=self._check_invert_exact),
            Op("attack-amplitudes", cmd("attack", o["atk-amp"], "--key", key, "--phi", amplitudes), o["atk-amp"],
               check=self._check_attack_succeeds),
            Op("attack-magnitudes", cmd("attack", o["atk-mag"], "--key", key, "--phi", magnitudes), o["atk-mag"],
               check=self._check_attack_fails),
        ]

    @staticmethod
    def _check_amplitudes(op: Op, config: dict, key_path: str) -> list[str]:
        """The dumped CSV must parse back bit-exact to the key holder's output matrix."""
        import numpy as np

        from lcuout.circuit import CircuitSpec
        from lcuout.linalg import random_state
        from lcuout.outputs import matrix_from_csv, output_matrix
        from lcuout.trapdoor import key_from_json

        key = key_from_json(Path(key_path).read_text())
        spec = CircuitSpec.from_json(json.dumps({
            "K": config["K"], "n": config["n"], "weights": key.weights.tolist(),
            "unitaries": config["unitaries"], "variant": config["variant"],
        }))
        expected = output_matrix(spec, random_state(2 ** config["n"], config["psi_seed"]))
        parsed = matrix_from_csv(Path(f"{op.out}_amplitudes.csv").read_text())
        return [] if np.array_equal(parsed, expected) else ["amplitudes CSV does not parse back bit-exact"]

    @staticmethod
    def _check_invert_finite(op: Op, seen: dict) -> list[str]:
        err = _read_json(Path(f"{op.out}_invert.json"))["target_error"]
        return [] if math.isfinite(err) else [f"target error {err} is not finite"]

    @staticmethod
    def _check_invert_exact(op: Op, seen: dict) -> list[str]:
        err = _read_json(Path(f"{op.out}_invert.json"))["target_error"]
        return [] if err < 1e-10 else [f"full-amplitude inversion error {err} >= 1e-10"]

    @staticmethod
    def _check_attack_succeeds(op: Op, seen: dict) -> list[str]:
        doc = _read_json(Path(f"{op.out}_attack.json"))
        if doc["success"] is True and doc["weight_error"] < 1e-8:
            return []
        return [f"attack on amplitudes: success={doc['success']} weight_error={doc['weight_error']}"]

    @staticmethod
    def _check_attack_fails(op: Op, seen: dict) -> list[str]:
        doc = _read_json(Path(f"{op.out}_attack.json"))
        return [] if doc["success"] is False else ["attack on magnitudes succeeded"]


WORKLOADS = {w.name: w for w in (Fig3Svp, Fig4Factorized, VerifyDense, TrapdoorCli)}
