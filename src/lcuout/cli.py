"""Deterministic command-line front end.

Every command takes ``--config PATH`` (JSON), ``--seed INT`` (except
``fig2``, whose seeds are config keys), and ``--out PREFIX``; a config key
that the command does not read is an error.  Outputs are CSV/JSON files
whose bodies depend only on the config and seeds.  CSV files carry
'#'-prefixed header lines recording the tool version, the config hash, and
the seeds; wall-clock timings go into trailing '#' comments so re-runs stay
byte-identical outside comments.

Exit codes: 0 success, 1 for a failed verification or internal self-check,
2 usage/config error, including a config whose arrays are too large to
allocate, 3 numerical failure (a linear-algebra routine did not converge).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    CheckFailed, CircuitSpec, check_layout, integer_value, list_value, real_value, reject_unread_keys, row_matrix,
    scale_coefficients, success_probabilities, unitary_source,
)
from .linalg import random_state, rng
from .outputs import matrix_from_csv, matrix_to_csv
from .recovery import METHODS, make_mask, observe, sweep
from .structure import verify
from .trapdoor import (
    PublicLayout,
    PublicParams,
    eval_trapdoor,
    hadamard_attack,
    invert_with_key,
    involution_encrypt_decrypt,
    key_coefficients,
    key_from_json,
    key_to_json,
    keygen,
)

SWEEP_COLUMNS = (
    "method",
    "param",
    "mean_err_phi",
    "std_err_phi",
    "mean_err_target",
    "std_err_target",
    "mean_iters",
)


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _target(path) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _header(command, config) -> str:
    return f"# lcuout {__version__}\n# command: {command}\n# config-hash: {_config_hash(config)}\n"


def _write_csv(path, command, config, columns, rows, comments=()):
    lines = [",".join(columns)]
    lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
    lines += [f"# {c}" for c in comments]
    _target(path).write_text(_header(command, config) + "\n".join(lines) + "\n")


def _write_matrix_csv(path, command, config, matrix):
    _target(path).write_text(_header(command, config) + matrix_to_csv(matrix))


def _error_text(exc: Exception) -> str:
    # a KeyError's str is only the quoted key, so name what it means
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _write_json(path, doc):
    _target(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_config(path, default):
    if path is None:
        return dict(default)
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError("a config file must hold a JSON object")
    return config


# -- verify -------------------------------------------------------------------

DEFAULT_VERIFY = {
    "K": 4,
    "n": 3,
    "weights": [1.0, 0.8, 0.5, 0.3],
    "unitaries": {"kind": "haar", "seed": 7},
    "mixing": "hadamard",
    "variant": "reflection",
}


def cmd_verify(config: dict, args) -> int:
    """Validate one circuit spec, then run :func:`lcuout.structure.verify` on it."""
    seed = args.seed or 0
    # verify's seeds, of psi and of the involution weights, before the spec draws: a bad one is a usage error
    rng(seed)
    rng(seed + 1)
    try:
        spec = CircuitSpec.from_json(json.dumps(config))
    except (ValueError, KeyError) as exc:
        checks = [{"name": "spec-validation", "error": _error_text(exc), "threshold": None, "skipped": False, "pass": False}]
    else:
        valid = {"name": "spec-validation", "residual": 0.0, "threshold": 1e-10, "skipped": False, "pass": True}
        checks = [valid] + verify(spec, seed)
    passed = all(c["pass"] for c in checks)
    report = {"tool": f"lcuout {__version__}", "config_hash": _config_hash(config), "seed": seed, "checks": checks, "passed": passed}
    _write_json(f"{args.out}_verify.json", report)
    for c in checks:
        status = "SKIP" if c.get("skipped") else ("PASS" if c["pass"] else "FAIL")
        res = c.get("residual")
        print(f"{status:4s} {c['name']}" + (f" residual={res:.3e}" if res is not None else ""))
    return 0 if passed else 1


# -- figure commands ----------------------------------------------------------

DEFAULT_FIG2 = {
    "k": 4,
    "n": 4,
    "unitary_seed": 202,
    "psi_seed": 303,
    "a_grid": [round(0.1 + 0.05 * i, 2) for i in range(19)],
}


def cmd_fig2(config: dict, args) -> int:
    """Success probability of the all-outcomes circuit vs the standard route.

    Coefficients are (1, .., 1, a, .., a) with the first half pinned at 1;
    the a-grid sweeps the second half.  The circuit runs on the rescaled
    weights, from which both probabilities follow.  Every key is checked
    before the spec draws its K Haar unitaries from the ``unitary_seed``
    generator.
    """
    reject_unread_keys(config, DEFAULT_FIG2, "fig2")
    k, n = integer_value("k", config["k"]), integer_value("n", config["n"])
    check_layout(k, n, "reflection")
    unitary_gen = rng(integer_value("the Haar seed", config["unitary_seed"]))
    psi = random_state(2**n, integer_value("psi_seed", config["psi_seed"]))
    a_grid = [real_value("an a_grid value", a) for a in list_value("a_grid", config["a_grid"])]
    if not a_grid:
        raise ValueError("fig2 needs at least one a_grid value")
    spec0 = CircuitSpec(k=k, n=n, weights=[1.0] * k, unitaries=unitary_gen)
    half = k // 2
    rows = []
    for a in a_grid:
        _, beta = scale_coefficients([1.0] * half + [a] * (k - half))
        rows.append((a, *success_probabilities(spec0.with_weights(beta), psi)))
    _write_csv(
        f"{args.out}_fig2.csv", "fig2", config,
        ("a", "p00_sim", "p00_analytic", "p0any_sim", "p_std_analytic"), rows,
    )
    return 0


DEFAULT_FIG3 = {
    "k": 4,
    "sizes": [256, 1024],
    "fractions": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    "sigma": 0.0,
    "instances": 10,
    "masks_per_instance": 5,
    "methods": ["svp", "factorized"],
    "seed": 515,
}


def _sweep_to_csv(path, command, config, rows):
    body = [tuple(r[column] for column in SWEEP_COLUMNS) for r in rows]
    cell = [f"method={r['method']} param={_fmt_cell(r['param'])}" for r in rows]
    comments = [f"seconds: {at} {r['seconds']:.3f}" for at, r in zip(cell, rows)]
    # what no draw determined, for the rows that have any: the body carries no such column
    comments += [f"underdetermined: {at} {r['underdetermined_columns']}" for at, r in zip(cell, rows)
                 if r["underdetermined_columns"]]
    _write_csv(path, command, config, SWEEP_COLUMNS, body, comments)


def cmd_fig3(config: dict, args) -> int:
    """Recovery error vs observation fraction, one CSV per system size."""
    if "n" in config:
        raise ValueError("config key 'n' is not read by fig3, which sweeps sizes")
    sizes = list_value("sizes", config["sizes"])
    if not sizes:
        raise ValueError("fig3 needs at least one size")
    # every size is checked before the first sweep, as the sweep checks its layout, so a bad one leaves no
    # partial result set
    k = integer_value("k", config.get("k", 4))
    for size in sizes:
        if integer_value("a size", size) < 1 or size & (size - 1):
            raise ValueError(f"sizes must be powers of two, got {size}")
        check_layout(k, size.bit_length() - 1, "reflection")
    for size in sizes:
        rows = sweep({**{key: v for key, v in config.items() if key != "sizes"}, "n": size.bit_length() - 1})
        _sweep_to_csv(f"{args.out}_fig3_N{size}.csv", "fig3", config, rows)
    return 0


DEFAULT_FIG4 = {
    "k": 4,
    "n": 8,
    "fraction": 0.7,
    "sigmas": [1e-4, 1e-3, 1e-2],
    "instances": 10,
    "masks_per_instance": 5,
    "methods": ["svp", "factorized"],
    "mask_mode": "column_guaranteed",
    "min_per_column": 6,
    "seed": 616,
}


def cmd_fig4(config: dict, args) -> int:
    """Recovery error vs noise level at a fixed observation fraction."""
    _sweep_to_csv(f"{args.out}_fig4.csv", "fig4", config, sweep(config))
    return 0


# -- trapdoor -----------------------------------------------------------------

DEFAULT_TRAPDOOR = {
    "K": 4,
    "n": 4,
    "scheme": "hadamard",
    "variant": "reflection",
    "unitaries": {"kind": "haar", "seed": 42},
    "psi_seed": 99,
}

DEFAULT_INVOLUTION = {
    "K": 4,
    "n": 2,
    "scheme": "hadamard",
    "variant": "reflection",
    "unitaries": {"kind": "pauli_strings", "data": ["XZ", "ZI", "IX", "YY"]},
    "psi_seed": 5,
}


def _layout(config: dict, args) -> PublicLayout:
    """The public layout of a trapdoor config, after every check of the config that needs no Haar draw.

    Every trapdoor action reads its config through here, and so reads
    DEFAULT_TRAPDOOR's keys; ``eval``, ``invert`` and the involution demo
    then hand the layout to :func:`_public`.  ``--seed``, the Haar seed and
    ``psi_seed`` are checked as :func:`~lcuout.linalg.rng` checks them;
    ``--seed`` also where the action does not read it (``eval`` without
    ``--shots``, ``invert`` without ``--density``, ``attack``), which accept
    a valid one.  A source the config spells out (explicit, Pauli,
    permutation) is built and checked into the :class:`PublicParams`
    returned; a Haar source is left undrawn.
    """
    rng(args.seed or 0)
    reject_unread_keys(config, DEFAULT_TRAPDOOR, f"trapdoor {args.action}")
    k, n, source = unitary_source(config)
    rng(integer_value("psi_seed", config.get("psi_seed", 0)))
    layout = dict(k=k, n=n, scheme=config.get("scheme", "hadamard"), variant=config.get("variant", "reflection"))
    if isinstance(source, tuple):
        return PublicParams(**layout, unitaries=source)
    return PublicLayout(**layout)


def _public(config: dict, pub: PublicLayout) -> tuple[PublicParams, np.ndarray]:
    """The public parameters and input state of a trapdoor config, given its :func:`_layout`: a Haar source drawn.

    A source the config spells out was built and checked by :func:`_layout`
    and is kept; for a Haar source, the generator of
    :func:`~lcuout.circuit.unitary_source` is handed to :class:`PublicParams`,
    whose spec draws from it.
    """
    if not isinstance(pub, PublicParams):
        _, _, gen = unitary_source(config)
        pub = PublicParams(k=pub.k, n=pub.n, scheme=pub.scheme, variant=pub.variant, unitaries=gen)
    return pub, random_state(2**pub.n, config.get("psi_seed", 0))


def cmd_keygen(config: dict, args) -> int:
    """Draw a key for the config's K and scheme, read through :func:`_layout` as every trapdoor action reads it."""
    pub = _layout(config, args)
    key = keygen(pub.k, pub.scheme, args.seed or 0)
    _target(f"{args.out}_key.json").write_text(key_to_json(key) + "\n")
    print(f"wrote {args.out}_key.json")
    return 0


def cmd_eval(config: dict, args) -> int:
    """Dump the key holder's outcome magnitudes or amplitudes.

    The key is read and fitted to the layout, its weights and secret mixing
    included (:func:`~lcuout.trapdoor.key_coefficients`), before the draw,
    and so are ``--shots`` and its sampling seed, by the rules of
    :func:`~lcuout.circuit.shot_counts`.  The amplitudes are that C times
    the public rows ``U_t psi``, the bits of
    :func:`~lcuout.outputs.output_matrix` of the key holder's spec.
    """
    if args.shots is not None and args.dump == "amplitudes":
        raise ValueError("--shots samples --dump magnitudes; the exact --dump amplitudes would ignore it")
    seed = args.seed or 0
    if args.shots is not None and args.shots < 1:
        raise ValueError(f"need at least one shot, got {args.shots}")
    layout = _layout(config, args)
    key = key_from_json(Path(args.key).read_text())
    c = key_coefficients(key, layout)
    pub, psi = _public(config, layout)
    if args.dump == "amplitudes":
        matrix = c @ row_matrix(pub.base_spec, psi)
    else:
        matrix = eval_trapdoor(key, pub, psi, shots=args.shots, seed=seed)
    _write_matrix_csv(f"{args.out}_{args.dump}.csv", "trapdoor eval", config, matrix)
    print(f"wrote {args.out}_{args.dump}.csv")
    return 0


def cmd_invert(config: dict, args) -> int:
    """Invert with the key; ``--key``, ``--phi``, the key's C and every other argument are checked before the draw.

    The ``--density`` mask needs only the layout, so it is drawn first;
    ``--sigma`` and the noise seed are checked by the rules of
    :func:`~lcuout.recovery.observe`.
    """
    if args.sigma and args.density is None:
        raise ValueError("--sigma is the noise on what --density observes; without --density it would be ignored")
    layout = _layout(config, args)
    key = key_from_json(Path(args.key).read_text())
    obs = None if args.phi is None else matrix_from_csv(Path(args.phi).read_text())
    c = key_coefficients(key, layout)
    seed = args.seed or 0
    if args.density is not None:
        mask = make_mask(2 * layout.k, 2**layout.n, seed, "column_guaranteed", density=args.density,
                         min_per_column=layout.k)
        if not 0 <= args.sigma < np.inf:
            raise ValueError(f"noise level must be finite and non-negative, got {args.sigma}")
        rng(seed + 1)
    pub, psi = _public(config, layout)
    x = row_matrix(pub.base_spec, psi)
    if args.density is not None:
        obs = observe(c @ x, mask, args.sigma, seed=seed + 1)
    elif obs is None:
        obs = c @ x
    result = invert_with_key(key, pub, obs)
    truth = key.weights @ x
    err = float(np.linalg.norm(result.target - truth) / np.linalg.norm(truth))
    _write_matrix_csv(f"{args.out}_target.csv", "trapdoor invert", config, result.target[None, :])
    doc = {"target_error": err, "underdetermined_columns": list(result.underdetermined), "config_hash": _config_hash(config)}
    _write_json(f"{args.out}_invert.json", doc)
    print(f"target error {err:.3e}")
    return 0


def cmd_attack(config: dict, args) -> int:
    pub = _layout(config, args)
    result = hadamard_attack(pub, matrix_from_csv(Path(args.phi).read_text()))
    doc = {
        "recovered_weights": [float(w) for w in result.weights],
        "recoverable": [bool(b) for b in result.recoverable],
        "residual": result.residual,
        "success": bool(result.residual < 1e-6),
        "config_hash": _config_hash(config),
    }
    if args.key is not None:
        key = key_from_json(Path(args.key).read_text())
        pub.check_key(key)
        # r_t = 0 at |w_t| = 1 leaves the sign of w_t unidentifiable, so only its size is compared there
        gap = np.where(np.abs(key.weights) >= 1.0, np.abs(result.weights) - 1.0, result.weights - key.weights)
        doc["weight_error"] = float(np.abs(gap).max())
    _write_json(f"{args.out}_attack.json", doc)
    print(f"attack residual {result.residual:.3e} success={doc['success']}")
    return 0


def cmd_involution(config: dict, args) -> int:
    """Encrypt and decrypt under the keys of ``seed`` and ``seed + 1``, drawn before the unitaries: they need only K."""
    layout = _layout(config, args)
    seed = args.seed or 0
    keys = keygen(layout.k, "hadamard", seed), keygen(layout.k, "hadamard", seed + 1)
    pub, psi = _public(config, layout)
    fid = involution_encrypt_decrypt(pub, psi, *keys)
    _write_json(f"{args.out}_involution.json", {"fidelity": fid, "config_hash": _config_hash(config)})
    print(f"round-trip fidelity {fid:.12f}")
    return 0


# -- completion ---------------------------------------------------------------

DEFAULT_COMPLETE = {
    "k": 4,
    "n": 8,
    "fraction": 0.7,
    "sigma": 0.0,
    "mask_mode": "column_guaranteed",
    "min_per_column": 4,
    "seed": 77,
}


def cmd_complete(config: dict, args) -> int:
    """One seeded completion run: a :func:`~lcuout.recovery.sweep` of one instance, one mask and one method.

    The sweep reads the config with ``fraction`` swept as ``fractions: [fraction]``
    (0.0 when absent: a column-guaranteed mask is then only its top-up).
    """
    method = args.method
    reject_unread_keys(config, DEFAULT_COMPLETE, f"complete {method}")
    (row,) = sweep({
        **{key: v for key, v in config.items() if key != "fraction"}, "fractions": [config.get("fraction", 0.0)],
        "instances": 1, "masks_per_instance": 1, "methods": [method],
    })
    _sweep_to_csv(f"{args.out}_complete_{method}.csv", f"complete {method}", config, [row])
    if method == "factorized":
        print(f"underdetermined-columns: {row['underdetermined_columns']}")
    print(f"{method}: err_phi={row['mean_err_phi']:.3e} err_target={row['mean_err_target']:.3e} "
          f"iters={int(row['mean_iters'])}")
    return 0


# -- entry point ----------------------------------------------------------------

@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each leaf command carries its runner and its default config."""
    parser = argparse.ArgumentParser(prog="lcuout", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lcuout {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, run, default, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="lcuout", help="output file prefix")
        p.set_defaults(run=run, default_config=default)
        return p

    command(sub, "verify", cmd_verify, DEFAULT_VERIFY, help="structural checks on a circuit spec")
    command(sub, "fig2", cmd_fig2, DEFAULT_FIG2, help="success-probability comparison sweep")
    command(sub, "fig3", cmd_fig3, DEFAULT_FIG3, help="recovery error vs observation fraction")
    command(sub, "fig4", cmd_fig4, DEFAULT_FIG4, help="recovery error vs noise level")

    trap = sub.add_parser("trapdoor", help="weight-hiding protocol commands").add_subparsers(dest="action", required=True)
    command(trap, "keygen", cmd_keygen, DEFAULT_TRAPDOOR)
    p = command(trap, "eval", cmd_eval, DEFAULT_TRAPDOOR)
    p.add_argument("--key", required=True, help="key JSON path")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--dump", choices=("magnitudes", "amplitudes"), default="magnitudes")
    p = command(trap, "invert", cmd_invert, DEFAULT_TRAPDOOR)
    p.add_argument("--key", required=True, help="key JSON path")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--phi", default=None, help="matrix CSV path")
    source.add_argument("--density", type=float, default=None)
    p.add_argument("--sigma", type=float, default=0.0)
    p = command(trap, "attack", cmd_attack, DEFAULT_TRAPDOOR)
    p.add_argument("--key", default=None, help="key JSON path")
    p.add_argument("--phi", required=True, help="matrix CSV path")
    command(trap, "demo-involution", cmd_involution, DEFAULT_INVOLUTION)

    comp = sub.add_parser("complete", help="single matrix-completion run").add_subparsers(dest="method", required=True)
    for method in METHODS:
        command(comp, method, cmd_complete, DEFAULT_COMPLETE)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "fig2" and args.seed is not None:
        parser.error("fig2 takes no --seed: its seeds are the config's unitary_seed and psi_seed")
    try:
        config = _load_config(args.config, args.default_config)
        # fig3, fig4 and complete read their seed from the config, so a --seed replaces it there
        if args.seed is not None and "seed" in args.default_config:
            config["seed"] = args.seed
        return args.run(config, args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # a JSONDecodeError is a ValueError; a MemoryError is a size the config asked for that cannot be allocated
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"a check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
