import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcuout
import lcuout.circuit
import lcuout.cli
import lcuout.recovery
from lcuout.circuit import CheckFailed, CircuitSpec
from lcuout.cli import main
from lcuout.linalg import Reflectors, haar_reflectors, random_state, rng
from lcuout.outputs import matrix_from_csv, matrix_to_csv, output_matrix
from lcuout.structure import verify
from lcuout.trapdoor import PublicParams, key_spec, key_to_json, keygen

SMALL_SWEEP = {
    "k": 4, "sizes": [64], "fractions": [0.6, 0.9], "sigma": 0.0,
    "instances": 2, "masks_per_instance": 2, "methods": ["svp", "factorized"],
    "seed": 515,
}


SMALL_FIG4 = {**lcuout.cli.DEFAULT_FIG4, "n": 4, "instances": 1, "masks_per_instance": 1}


def read_body(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return "\n".join(lines)


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "v_verify.json").read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"unitarity", "block-structure", "similarity", "csd", "factorization"} <= names
    text = capsys.readouterr().out
    assert "PASS unitarity" in text


def test_verify_flags_non_unitary_config(tmp_path, capsys):
    bad = {
        "K": 2, "n": 1, "weights": [1.0, 0.5],
        "unitaries": {"kind": "explicit", "data": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0.3, 0]], [[0, 0], [1, 0]]],
        ]},
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert code == 1
    report = json.loads((tmp_path / "b_verify.json").read_text())
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["spec-validation"]


def test_fig2_csv_contents(tmp_path):
    assert main(["fig2", "--out", str(tmp_path / "f")]) == 0
    rows = [l.split(",") for l in read_body(tmp_path / "f_fig2.csv").splitlines()]
    header, data = rows[0], rows[1:]
    assert header == ["a", "p00_sim", "p00_analytic", "p0any_sim", "p_std_analytic"]
    assert len(data) == 19
    for row in data:
        a, p00_sim, p00_an, p0any, p_std = map(float, row)
        assert abs(p00_sim - p00_an) < 1e-10
        assert p_std >= p00_sim - 1e-12
        assert p0any >= p00_sim - 1e-12


def test_fig3_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    body_a = read_body(tmp_path / "a_fig3_N64.csv")
    body_b = read_body(tmp_path / "b_fig3_N64.csv")
    assert body_a == body_b
    methods = {line.split(",")[0] for line in body_a.splitlines()[1:]}
    assert methods == {"svp", "factorized"}


def test_fig3_writes_every_row_when_a_draw_determines_no_column(tmp_path, monkeypatch):
    # at N = 32 and f = 0.2 some draw determines no column of Phi = C X: the sweep still writes all 18 rows,
    # and a comment per row says how many columns no draw determined
    rows = []

    def kept(config):
        rows.extend(lcuout.recovery.sweep(config))
        return rows

    monkeypatch.setattr(lcuout.cli, "sweep", kept)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_FIG3, "sizes": [32], "instances": 2, "masks_per_instance": 2,
                               "seed": 0}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    text = (tmp_path / "f_fig3_N32.csv").read_text()
    assert len(read_body(tmp_path / "f_fig3_N32.csv").splitlines()) == 1 + 18
    # after the three header lines: one seconds line per row, then one underdetermined line per row with any
    comments = [line for line in text.splitlines() if line.startswith("# ")][3:]
    under = [f"# underdetermined: method={r['method']} param={r['param']:.17g} {r['underdetermined_columns']}"
             for r in rows if r["underdetermined_columns"]]
    assert all(line.startswith("# seconds: ") for line in comments[:18])
    assert under and comments[18:] == under


def test_complete_factorized_reports_a_draw_that_determines_no_column(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 4, "n": 4, "fraction": 0.2, "mask_mode": "uniform", "seed": 0}))
    assert main(["complete", "factorized", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert "underdetermined-columns: 16\n" in capsys.readouterr().out
    assert "# underdetermined: method=factorized param=0.20000000000000001 16\n" in \
        (tmp_path / "c_complete_factorized.csv").read_text()


def test_fig3_rejects_non_power_of_two_sizes(tmp_path, capsys):
    # every size is checked before the first sweep, so the valid 16 leaves no CSV behind either
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_SWEEP, "k": 2, "sizes": [16, 100], "instances": 1, "masks_per_instance": 1,
                               "methods": ["factorized"]}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "powers of two, got 100" in capsys.readouterr().err
    assert list(tmp_path.glob("x_fig3_*")) == []


def test_missing_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: v for key, v in SMALL_FIG4.items() if key != "n"}))
    assert main(["fig4", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == "error: missing key 'n'\n"
    assert list(tmp_path.glob("f*")) == []


def test_verify_names_a_missing_config_key_as_other_commands_do(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 2, "weights": [1.0, 0.5], "unitaries": {"kind": "haar", "seed": 1}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    (check,) = json.loads((tmp_path / "v_verify.json").read_text())["checks"]
    assert (check["name"], check["error"], check["pass"]) == ("spec-validation", "missing key 'n'", False)
    assert capsys.readouterr().out == "FAIL spec-validation\n"


def test_fig4_small(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k": 2, "n": 5, "fraction": 0.8, "sigmas": [1e-3, 1e-2],
        "instances": 2, "masks_per_instance": 1, "methods": ["factorized"],
        "mask_mode": "column_guaranteed", "min_per_column": 3, "seed": 616,
    }))
    assert main(["fig4", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    body = read_body(tmp_path / "f_fig4.csv").splitlines()
    assert len(body) == 3  # header + two sigma rows
    errs = [float(l.split(",")[2]) for l in body[1:]]
    assert errs[0] < errs[1]  # error grows with sigma


@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
def test_trapdoor_full_chain(tmp_path, capsys, variant):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "K": 4, "n": 4, "scheme": "hadamard", "variant": variant,
        "unitaries": {"kind": "haar", "seed": 42}, "psi_seed": 99,
    }))
    out = str(tmp_path / "t")
    assert main(["trapdoor", "keygen", "--config", str(cfg), "--seed", "11", "--out", out]) == 0
    key_path = tmp_path / "t_key.json"
    assert key_path.exists()

    assert main(["trapdoor", "eval", "--config", str(cfg), "--key", str(key_path),
                 "--dump", "amplitudes", "--out", out]) == 0
    amp = matrix_from_csv((tmp_path / "t_amplitudes.csv").read_text())
    assert amp.shape == (8, 16)

    assert main(["trapdoor", "eval", "--config", str(cfg), "--key", str(key_path),
                 "--shots", "20000", "--seed", "3", "--out", out]) == 0
    mag = matrix_from_csv((tmp_path / "t_magnitudes.csv").read_text())
    assert abs(mag.real.sum() - 1.0) < 1e-9

    assert main(["trapdoor", "invert", "--config", str(cfg), "--key", str(key_path),
                 "--out", out]) == 0
    report = json.loads((tmp_path / "t_invert.json").read_text())
    assert report["target_error"] < 1e-10

    assert main(["trapdoor", "invert", "--config", str(cfg), "--key", str(key_path),
                 "--density", "0.7", "--seed", "5", "--out", str(tmp_path / "m")]) == 0
    report = json.loads((tmp_path / "m_invert.json").read_text())
    assert report["target_error"] < 1e-8

    assert main(["trapdoor", "attack", "--config", str(cfg), "--phi", str(tmp_path / "t_amplitudes.csv"),
                 "--key", str(key_path), "--out", out]) == 0
    attack = json.loads((tmp_path / "t_attack.json").read_text())
    assert attack["success"] is True
    assert attack["weight_error"] < 1e-10

    # magnitude-only dump: the same attack must report failure
    assert main(["trapdoor", "attack", "--config", str(cfg), "--phi", str(tmp_path / "t_magnitudes.csv"),
                 "--key", str(key_path), "--out", str(tmp_path / "mag")]) == 0
    attack = json.loads((tmp_path / "mag_attack.json").read_text())
    assert attack["success"] is False
    assert attack["weight_error"] > 1e-2


@pytest.mark.parametrize("unitary_seed", [40, 41, 42])
def test_attack_compares_only_the_size_of_a_key_weight_of_one(tmp_path, unitary_seed):
    # r_t = 0 at w_t = +-1 leaves the sign of w_t unidentifiable, so the attack may return either sign
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 4, "n": 4, "unitaries": {"kind": "haar", "seed": unitary_seed}, "psi_seed": 99}))
    key = tmp_path / "key.json"
    key.write_text(json.dumps({"scheme": "hadamard", "weights": [1.0, -1.0, 0.5, -0.3], "gamma": None}))
    out = str(tmp_path / "t")
    assert main(["trapdoor", "eval", "--config", str(cfg), "--key", str(key), "--dump", "amplitudes", "--out", out]) == 0
    assert main(["trapdoor", "attack", "--config", str(cfg), "--phi", out + "_amplitudes.csv",
                 "--key", str(key), "--out", out]) == 0
    attack = json.loads((tmp_path / "t_attack.json").read_text())
    assert attack["success"] is True
    assert attack["weight_error"] < 1e-10


def test_trapdoor_demo_involution(tmp_path, capsys):
    assert main(["trapdoor", "demo-involution", "--seed", "21", "--out", str(tmp_path / "d")]) == 0
    report = json.loads((tmp_path / "d_involution.json").read_text())
    assert abs(report["fidelity"] - 1.0) < 1e-10


@pytest.mark.parametrize("method", ["svp", "als", "factorized"])
def test_complete_commands(tmp_path, method):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k": 4, "n": 6, "fraction": 0.8, "sigma": 0.0,
        "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": 77,
    }))
    assert main(["complete", method, "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    body = read_body(tmp_path / f"c_complete_{method}.csv").splitlines()
    err = float(body[1].split(",")[2])
    assert err < 1e-5


def test_config_with_removed_solver_keys_is_rejected(tmp_path, capsys):
    # the per-solver overrides are gone; a config that still carries one must fail, not run on defaults
    for key in ("svp", "als"):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            lcuout.recovery.sweep({**SMALL_SWEEP, "n": 6, key: {"max_iters": 3}})
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({**SMALL_SWEEP, key: {"max_iters": 3}}))
        assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"k": 2, "n": 3, "fraction": 0.8, "seed": 1, key: {"max_iters": 3}}))
        assert main(["complete", key, "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("method", ["svp", "als", "factorized"])
def test_complete_writes_the_row_of_a_one_cell_sweep(tmp_path, capsys, method):
    config = {"k": 4, "n": 5, "fraction": 0.7, "sigma": 1e-3, "mask_mode": "column_guaranteed",
              "min_per_column": 4, "seed": 31}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["complete", method, "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "c")]) == 0
    (row,) = lcuout.recovery.sweep({
        "k": 4, "n": 5, "fractions": [0.7], "sigma": 1e-3, "mask_mode": "column_guaranteed",
        "min_per_column": 4, "seed": 9, "instances": 1, "masks_per_instance": 1, "methods": [method],
    })
    expected = [method, *(format(row[column], ".17g") for column in lcuout.cli.SWEEP_COLUMNS[1:])]
    header, line = read_body(tmp_path / f"c_complete_{method}.csv").splitlines()
    assert (header.split(","), line.split(",")) == (list(lcuout.cli.SWEEP_COLUMNS), expected)
    printed = capsys.readouterr().out
    assert f"iters={int(row['mean_iters'])}\n" in printed
    assert ("underdetermined-columns: 0\n" in printed) == (method == "factorized")


UNREAD_KEYS = [
    (["fig3"], {**SMALL_SWEEP, "n": 6}, ["n"]),
    (["fig4"], {**SMALL_FIG4, "instance": 1, "sizes": [64]}, ["instance", "sizes"]),
    (["complete", "als"], {**lcuout.cli.DEFAULT_COMPLETE, "min_per_colum": 4}, ["min_per_colum"]),
    (["fig2"], {**lcuout.cli.DEFAULT_FIG2, "seed": 5}, ["seed"]),
    (["trapdoor", "keygen"], {**lcuout.cli.DEFAULT_TRAPDOOR, "psi_sed": 99}, ["psi_sed"]),
    (["trapdoor", "eval"], {**lcuout.cli.DEFAULT_TRAPDOOR, "mixing": "dft"}, ["mixing"]),
    (["verify"], {**lcuout.cli.DEFAULT_VERIFY, "colour": "red"}, ["colour"]),
]


@pytest.mark.parametrize("command, doc, keys", UNREAD_KEYS, ids=[f"{'-'.join(c)}:{k[0]}" for c, _, k in UNREAD_KEYS])
def test_config_key_the_command_does_not_read_is_rejected(tmp_path, capsys, command, doc, keys):
    # a misspelt or foreign key fails, naming every such key, instead of running on the defaults;
    # verify records it as a failed spec-validation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    extra = ["--key", str(key)] if command == ["trapdoor", "eval"] else []
    code = main([*command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
    if command == ["verify"]:
        assert code == 1
        (check,) = json.loads((tmp_path / "o_verify.json").read_text())["checks"]
        assert check["name"] == "spec-validation" and not check["pass"]
        message = check["error"]
    else:
        assert code == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ")
    assert all(f"config key '{name}'" in message for name in keys)
    assert list(tmp_path.glob("o*")) == ([tmp_path / "o_verify.json"] if command == ["verify"] else [])


def test_fig2_takes_no_seed(tmp_path, capsys):
    # fig2's seeds are its config's unitary_seed and psi_seed, so a --seed would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["fig2", "--seed", "5", "--out", str(tmp_path / "f")])
    assert exc.value.code == 2
    assert "unitary_seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["trapdoor", "invert", "--density", "0.7"], ["trapdoor", "demo-involution"],
                                  ["fig2"], ["verify"]])
def test_each_command_checks_its_unitaries_once(tmp_path, monkeypatch, argv):
    checked = []
    post_init = CircuitSpec.__post_init__

    def counted(spec):
        checked.append(spec.k)
        post_init(spec)

    monkeypatch.setattr(CircuitSpec, "__post_init__", counted)
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    extra = ["--key", str(key)] if "invert" in argv else []
    assert main([*argv, *extra, "--out", str(tmp_path / "o")]) == 0
    assert len(checked) == 1


MALFORMED = {
    "not-an-object": [1, 2],
    "unitaries-not-an-object": {"K": 4, "n": 2, "weights": [1.0] * 4, "unitaries": [1, 2]},
    "K-not-an-integer": {"K": None, "n": 2, "weights": [1.0] * 4, "unitaries": {"kind": "haar", "seed": 1}},
}


@pytest.mark.parametrize("command, doc", [
    (["verify"], "not-an-object"), (["fig3"], "not-an-object"), (["complete", "svp"], "not-an-object"),
    (["trapdoor", "eval"], "not-an-object"), (["trapdoor", "eval"], "unitaries-not-an-object"),
    (["trapdoor", "eval"], "K-not-an-integer"), (["verify"], "unitaries-not-an-object"),
    (["verify"], "K-not-an-integer"),
])
def test_malformed_config_is_rejected_without_a_traceback(tmp_path, capsys, command, doc):
    # a config error exits 2; verify reports an invalid spec as a failed spec-validation record (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MALFORMED[doc]))
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    extra = ["--key", str(key)] if command[0] == "trapdoor" else []
    code = main([*command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
    if command == ["verify"] and doc != "not-an-object":
        assert code == 1
        (check,) = json.loads((tmp_path / "o_verify.json").read_text())["checks"]
        assert check["name"] == "spec-validation" and not check["pass"] and check["error"]
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("entry", ["1", True, None], ids=["string", "bool", "null"])
@pytest.mark.parametrize("command", [["trapdoor", "eval"], ["verify"]], ids=["eval", "verify"])
def test_a_pair_entry_that_is_no_json_number_is_a_config_error(tmp_path, capsys, command, entry):
    # the explicit X matrix with "1", true or null for one of its ones: eval exits 2, verify records a failed
    # spec-validation (exit 1), as for any other malformed spec; none is read as 1 or NaN
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    x[0][1][0] = entry
    source = {"kind": "explicit", "data": [x, [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]}
    doc = ({"K": 2, "n": 1, "weights": [0.9, 0.4], "unitaries": source} if command == ["verify"] else
           {**lcuout.cli.DEFAULT_TRAPDOOR, "K": 2, "n": 1, "unitaries": source})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(2, "hadamard", 0)))
    extra = ["--key", str(key)] if command[0] == "trapdoor" else []
    code = main([*command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
    if command == ["verify"]:
        assert code == 1
        (check,) = json.loads((tmp_path / "o_verify.json").read_text())["checks"]
        assert check["name"] == "spec-validation" and "matrix entries must be [re, im] pairs" in check["error"]
    else:
        assert code == 2
        assert capsys.readouterr().err == "error: matrix entries must be [re, im] pairs\n"
        assert list(tmp_path.glob("*.csv")) == []


NULL_INTEGER = {
    "haar-seed": {**lcuout.cli.DEFAULT_TRAPDOOR, "unitaries": {"kind": "haar", "seed": None}},
    "verify-haar-seed": {**lcuout.cli.DEFAULT_VERIFY, "unitaries": {"kind": "haar", "seed": None}},
    "trapdoor-psi-seed": {**lcuout.cli.DEFAULT_TRAPDOOR, "psi_seed": None},
    "keygen-K": {**lcuout.cli.DEFAULT_TRAPDOOR, "K": None},
    "fig2-k": {**lcuout.cli.DEFAULT_FIG2, "k": None},
    "fig2-n": {**lcuout.cli.DEFAULT_FIG2, "n": None},
    "fig2-psi-seed": {**lcuout.cli.DEFAULT_FIG2, "psi_seed": None},
    "fig2-unitary-seed": {**lcuout.cli.DEFAULT_FIG2, "unitary_seed": None},
    "fig3-size": {**SMALL_SWEEP, "sizes": [None]},
    "fig3-size-float": {**SMALL_SWEEP, "sizes": [64.0]},
    "fig3-instances-bool": {**SMALL_SWEEP, "instances": True},
    "fig3-fraction-string": {**SMALL_SWEEP, "fractions": ["0.6"]},
    "fig3-sigma": {**SMALL_SWEEP, "sigma": None},
    "fig2-a": {**lcuout.cli.DEFAULT_FIG2, "a_grid": [None]},
    "fig4-n": {**SMALL_FIG4, "n": None},
    "fig4-seed": {**SMALL_FIG4, "seed": None},
    "fig4-sigma": {**SMALL_FIG4, "sigmas": [None]},
    "fig4-sigma-bool": {**SMALL_FIG4, "sigmas": [True]},
    "fig4-fraction-string": {**SMALL_FIG4, "fraction": "0.7"},
    "fig4-min-per-column-float": {**SMALL_FIG4, "min_per_column": 4.5},
    "fig4-min-per-column-bool": {**SMALL_FIG4, "min_per_column": True},
    "complete-seed": {**lcuout.cli.DEFAULT_COMPLETE, "seed": None},
    "complete-k": {**lcuout.cli.DEFAULT_COMPLETE, "k": None},
    "complete-sigma": {**lcuout.cli.DEFAULT_COMPLETE, "sigma": None},
    "complete-fraction-bool": {**lcuout.cli.DEFAULT_COMPLETE, "fraction": True},
}


NULL_INTEGER_CASES = [
    (["trapdoor", "eval"], "haar-seed"), (["trapdoor", "demo-involution"], "haar-seed"),
    (["verify"], "verify-haar-seed"), (["trapdoor", "eval"], "trapdoor-psi-seed"),
    (["trapdoor", "invert"], "trapdoor-psi-seed"), (["trapdoor", "keygen"], "keygen-K"),
    (["fig2"], "fig2-k"), (["fig2"], "fig2-n"), (["fig2"], "fig2-psi-seed"), (["fig2"], "fig2-unitary-seed"),
    (["fig3"], "fig3-size"), (["fig3"], "fig3-size-float"),
    (["fig3"], "fig3-instances-bool"), (["fig3"], "fig3-fraction-string"), (["fig3"], "fig3-sigma"),
    (["fig2"], "fig2-a"), (["fig4"], "fig4-n"), (["fig4"], "fig4-seed"), (["fig4"], "fig4-sigma"),
    (["fig4"], "fig4-sigma-bool"), (["fig4"], "fig4-fraction-string"),
    (["fig4"], "fig4-min-per-column-float"), (["fig4"], "fig4-min-per-column-bool"),
    (["complete", "svp"], "complete-seed"), (["complete", "factorized"], "complete-k"),
    (["complete", "svp"], "complete-sigma"), (["complete", "factorized"], "complete-fraction-bool"),
]


@pytest.mark.parametrize("command, doc", NULL_INTEGER_CASES, ids=[f"{'-'.join(c)}:{d}" for c, d in NULL_INTEGER_CASES])
def test_null_integer_in_a_config_is_a_config_error(tmp_path, capsys, command, doc):
    # a null, bool or string where a number belongs: exit 2 with a one-line error, not a TypeError
    # traceback or a silent cast; verify records a failed spec-validation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NULL_INTEGER[doc]))
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    extra = ["--key", str(key)] if command[1:] in (["eval"], ["invert"]) else []
    code = main([*command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")])
    if command == ["verify"]:
        assert code == 1
        (check,) = json.loads((tmp_path / "o_verify.json").read_text())["checks"]
        assert check["name"] == "spec-validation" and not check["pass"] and "must be an integer" in check["error"]
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("must be an integer" in err or "must be a real number" in err)
    assert list(tmp_path.glob("*.csv")) == []


WRONG_SHAPE = {
    "fig3-sizes": {**SMALL_SWEEP, "sizes": 256},
    "fig3-fractions": {**SMALL_SWEEP, "fractions": 0.5},
    "fig4-sigmas": {**SMALL_FIG4, "sigmas": 0.001},
    "fig4-methods-object": {**SMALL_FIG4, "methods": {"factorized": 1}},
    "fig2-a-grid": {**lcuout.cli.DEFAULT_FIG2, "a_grid": 0.5},
    "weights-object": {**lcuout.cli.DEFAULT_VERIFY, "weights": {"a": 1}},
    "pauli-data": {**lcuout.cli.DEFAULT_VERIFY, "n": 2, "unitaries": {"kind": "pauli_strings", "data": 5}},
    "involution-pauli-data": {**lcuout.cli.DEFAULT_INVOLUTION, "unitaries": {"kind": "pauli_strings", "data": 5}},
    "pauli-labels": {**lcuout.cli.DEFAULT_VERIFY, "n": 1, "unitaries": {"kind": "pauli_strings", "data": [5, 6, 7, 8]}},
    "permutation-images": {"K": 2, "n": 1, "weights": [1.0, 0.5], "unitaries": {"kind": "permutation", "data": [5, 6]}},
    "permutation-floats": {"K": 2, "n": 1, "weights": [1.0, 0.5],
                           "unitaries": {"kind": "permutation", "data": [[1.0, 0.0], [0, 1]]}},
    "explicit-entries": {"K": 2, "n": 1, "weights": [1.0, 0.5], "unitaries": {"kind": "explicit", "data": [{}, {}]}},
}

WRONG_SHAPE_CASES = [
    (["fig3"], "fig3-sizes"), (["fig3"], "fig3-fractions"), (["fig4"], "fig4-sigmas"), (["fig4"], "fig4-methods-object"),
    (["fig2"], "fig2-a-grid"), (["verify"], "weights-object"), (["verify"], "pauli-data"),
    (["trapdoor", "demo-involution"], "involution-pauli-data"), (["verify"], "pauli-labels"), (["verify"], "permutation-images"),
    (["verify"], "permutation-floats"), (["verify"], "explicit-entries"),
]


@pytest.mark.parametrize("command, doc", WRONG_SHAPE_CASES, ids=[f"{'-'.join(c)}:{d}" for c, d in WRONG_SHAPE_CASES])
def test_config_value_of_the_wrong_json_type_is_a_config_error(tmp_path, capsys, command, doc):
    # a number or an object where a list belongs, or a list entry of the wrong type: exit 2 with a one-line
    # error, not a TypeError traceback or a run over an object's keys; verify records a failed spec-validation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(WRONG_SHAPE[doc]))
    code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    if command == ["verify"]:
        assert code == 1
        (check,) = json.loads((tmp_path / "o_verify.json").read_text())["checks"]
        assert check["name"] == "spec-validation" and not check["pass"] and check["error"]
        assert list(tmp_path.glob("o*")) == [tmp_path / "o_verify.json"]
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("command, base", [(["fig4"], SMALL_FIG4), (["complete", "factorized"], lcuout.cli.DEFAULT_COMPLETE)])
def test_min_per_column_under_a_uniform_mask_exits_2(tmp_path, capsys, command, base):
    # a uniform mask has no top-up, so a min_per_column there is an error rather than ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, "mask_mode": "uniform"}))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "min_per_column" in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("action", ["invert", "attack"])
@pytest.mark.parametrize("shape", [(8, 1), (7, 16)])
def test_trapdoor_phi_that_is_not_2k_by_2_to_the_n_exits_2(tmp_path, capsys, action, shape):
    # K = 4, n = 4 in the default config, so --phi must be 8 x 16
    phi = tmp_path / "phi.csv"
    phi.write_text(matrix_to_csv(np.ones(shape)))
    key = tmp_path / "k_key.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    code = main(["trapdoor", action, "--key", str(key), "--phi", str(phi), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "expected a 2K x 2**n = 8 x 16 matrix" in capsys.readouterr().err
    assert list(tmp_path.glob("o_*")) == []


TRAPDOOR_INPUT_ERRORS = {
    "key-length": (["eval"], {}, {"scheme": "hadamard", "weights": [0.5, 0.5], "gamma": None}, None,
                   "key length does not match"),
    "key-scheme": (["eval"], {}, {"scheme": "secret_mixing", "weights": [0.5] * 4, "gamma": 3}, None,
                   "key scheme 'secret_mixing' does not match public 'hadamard'"),
    "unknown-scheme": (["eval"], {"scheme": "rsa"}, None, None, "unknown scheme 'rsa'"),
    "keygen-unknown-scheme": (["keygen"], {"scheme": "rsa"}, None, None, "unknown scheme 'rsa'"),
    "involution-cyclic": (["demo-involution"], {**lcuout.cli.DEFAULT_INVOLUTION, "variant": "cyclic"}, None, None,
                          "needs the Hadamard reflection circuit"),
    "zero-shots": (["eval", "--shots", "0"], {}, None, None, "need at least one shot, got 0"),
    "empty-phi": (["invert"], {}, None, "# comments only\n", "no matrix rows found"),
    "attack-empty-phi": (["attack"], {}, None, "", "no matrix rows found"),
    # a zero matrix has no relative residual, which would be written as "residual": NaN, not valid JSON
    "attack-zero-phi": (["attack"], {}, None, matrix_to_csv(np.zeros((8, 16))), "all zero"),
    # numpy's "inhomogeneous shape" and complex()'s "malformed string" named neither the row nor the line
    "invert-ragged-phi": (["invert"], {}, None, "# header\n1,2\n3\n", "line 3: row 2 has 1 cells, expected 2"),
    "attack-ragged-phi": (["attack"], {}, None, "1,2\n3,4,5\n", "line 2: row 2 has 3 cells, expected 2"),
    "invert-bad-cell": (["invert"], {}, None, "1,2\n3,x\n", "line 2: cell 'x' is not a complex number"),
    "attack-empty-cell": (["attack"], {}, None, "1,,2\n", "line 1: cell '' is not a complex number"),
    # attack --key compares against the key, so the key must fit the layout as it must for eval and invert
    "attack-key-length": (["attack"], {}, {"scheme": "hadamard", "weights": [0.5, 0.5], "gamma": None},
                          matrix_to_csv(np.ones((8, 16))), "key length does not match the public parameters"),
    "attack-key-scheme": (["attack"], {}, {"scheme": "secret_mixing", "weights": [0.5] * 4, "gamma": 3},
                          matrix_to_csv(np.ones((8, 16))), "key scheme 'secret_mixing' does not match public 'hadamard'"),
}


@pytest.mark.parametrize("case", TRAPDOOR_INPUT_ERRORS)
def test_trapdoor_input_error_exits_2_and_writes_nothing(tmp_path, capsys, case):
    argv, config, key_doc, phi_text, message = TRAPDOOR_INPUT_ERRORS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_TRAPDOOR, **config}))
    key = tmp_path / "k.json"
    key.write_text(json.dumps(key_doc) if key_doc else key_to_json(keygen(4, "hadamard", 0)))
    extra = ["--key", str(key)] if argv[0] in ("eval", "invert", "attack") else []
    if phi_text is not None:
        (tmp_path / "phi.csv").write_text(phi_text)
        extra += ["--phi", str(tmp_path / "phi.csv")]
    assert main(["trapdoor", *argv, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.glob("o*")) == []


def _no_draw(monkeypatch):
    """Make the one module binding of the Haar draw, the spec's, raise, so a command that draws fails.

    A spy on a name the spec no longer calls would pass every test below without testing anything, so this
    checks first that a spec handed a Haar source does reach it.
    """
    def no_draw(*args):
        raise RuntimeError("drew the Haar unitaries")

    monkeypatch.setattr(lcuout.circuit, "haar_reflectors", no_draw)
    with pytest.raises(RuntimeError, match="drew the Haar unitaries"):
        CircuitSpec(k=1, n=1, weights=[1.0], unitaries=rng(0))


WRONG_SCHEME_KEY = {"scheme": "secret_mixing", "weights": [0.5] * 4, "gamma": 3}
OUT_OF_RANGE_KEY = {"scheme": "hadamard", "weights": [1.5, 0.5, 0.5, 0.5], "gamma": None}
VALID_KEY = {"scheme": "hadamard", "weights": [0.5] * 4, "gamma": None}
NOISE_LEVEL = "noise level must be finite and non-negative"


def test_trapdoor_attack_draws_no_public_unitary(tmp_path, monkeypatch):
    # the attack reads K, n, scheme, variant and --phi and keygen reads K and the scheme, each after the config
    # checks of eval; eval still draws the K Haar unitaries it evaluates
    key = tmp_path / "k.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 3)))
    assert main(["trapdoor", "eval", "--key", str(key), "--dump", "amplitudes", "--out", str(tmp_path / "t")]) == 0
    attack = ["trapdoor", "attack", "--phi", str(tmp_path / "t_amplitudes.csv"), "--key", str(key)]
    assert main([*attack, "--out", str(tmp_path / "drawn")]) == 0
    assert main(["trapdoor", "keygen", "--seed", "4", "--out", str(tmp_path / "drawn")]) == 0

    _no_draw(monkeypatch)  # the one module binding of the draw, so the eval below fails if anything draws
    assert main([*attack, "--out", str(tmp_path / "undrawn")]) == 0
    assert main(["trapdoor", "keygen", "--seed", "4", "--out", str(tmp_path / "undrawn")]) == 0
    for name in ("attack.json", "key.json"):
        assert (tmp_path / f"undrawn_{name}").read_bytes() == (tmp_path / f"drawn_{name}").read_bytes()
    assert json.loads((tmp_path / "undrawn_attack.json").read_text())["success"] is True
    with pytest.raises(RuntimeError, match="drew the Haar unitaries"):
        main(["trapdoor", "eval", "--key", str(key), "--out", str(tmp_path / "e")])


@pytest.mark.parametrize("argv, key_doc, message", [
    (["eval"], None, "No such file"),
    (["invert"], None, "No such file"),
    (["eval"], WRONG_SCHEME_KEY, "key scheme 'secret_mixing' does not match public 'hadamard'"),
    (["invert"], WRONG_SCHEME_KEY, "key scheme 'secret_mixing' does not match public 'hadamard'"),
    (["invert", "--phi", "missing.csv"], VALID_KEY, "No such file"),
    (["eval"], OUT_OF_RANGE_KEY, "weights must be finite and lie in [-1, 1]"),
    (["invert"], OUT_OF_RANGE_KEY, "weights must be finite and lie in [-1, 1]"),
    (["eval", "--shots", "0"], VALID_KEY, "need at least one shot, got 0"),
    (["eval", "--shots", "10", "--seed", "-1"], VALID_KEY, "a seed must lie in [0, 2**128), got -1"),
    (["invert", "--density", "1.5"], VALID_KEY, "density must lie in [0, 1], got 1.5"),
    (["invert", "--density", "0.5", "--sigma", "-1"], VALID_KEY, f"{NOISE_LEVEL}, got -1.0"),
    (["invert", "--density", "0.5", "--sigma", "nan"], VALID_KEY, f"{NOISE_LEVEL}, got nan"),
    (["invert", "--density", "0.5", "--seed", "-1"], VALID_KEY, "a seed must lie in [0, 2**128), got -1"),
    (["invert", "--density", "0.5", "--seed", str(2**128 - 1)], VALID_KEY, f"lie in [0, 2**128), got {2**128}"),
    (["eval", "--seed", "-1"], VALID_KEY, "a seed must lie in [0, 2**128), got -1"),
    (["eval", "--seed", str(2**128)], VALID_KEY, f"a seed must lie in [0, 2**128), got {2**128}"),
    (["invert", "--seed", "-1"], VALID_KEY, "a seed must lie in [0, 2**128), got -1"),
    (["invert", "--seed", str(2**128)], VALID_KEY, f"a seed must lie in [0, 2**128), got {2**128}"),
], ids=["eval-missing-key", "invert-missing-key", "eval-key-scheme", "invert-key-scheme", "invert-missing-phi",
        "eval-key-weight", "invert-key-weight", "eval-no-shot", "eval-shot-seed", "invert-density", "invert-sigma",
        "invert-sigma-nan", "invert-mask-seed", "invert-noise-seed", "eval-unread-seed", "eval-unread-seed-top",
        "invert-unread-seed", "invert-unread-seed-top"])
def test_eval_and_invert_report_input_errors_before_the_draw(tmp_path, monkeypatch, capsys, argv, key_doc, message):
    # the K Haar unitaries are the costly part of a command, so --key and --phi are read, the key fitted to the
    # layout, and every other argument checked (the --density mask drawn), first
    monkeypatch.chdir(tmp_path)
    if key_doc is not None:
        (tmp_path / "k.json").write_text(json.dumps(key_doc))
    _no_draw(monkeypatch)
    assert main(["trapdoor", *argv, "--key", "k.json", "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.glob("o*")) == []


def test_attack_checks_the_seed_it_does_not_read(tmp_path, monkeypatch, capsys):
    # the attack draws nothing, but its --seed is checked as every trapdoor action checks it; a valid one is
    # accepted and changes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(key_to_json(keygen(4, "hadamard", 3)))
    assert main(["trapdoor", "eval", "--key", "k.json", "--dump", "amplitudes", "--out", "t"]) == 0
    _no_draw(monkeypatch)
    attack = ["trapdoor", "attack", "--phi", "t_amplitudes.csv"]
    for seed in (-1, 2**128):
        assert main([*attack, "--seed", str(seed), "--out", "bad"]) == 2
        assert capsys.readouterr().err == f"error: a seed must lie in [0, 2**128), got {seed}\n"
    assert list(tmp_path.glob("bad*")) == []
    assert main([*attack, "--out", "unseeded"]) == 0
    assert main([*attack, "--seed", "5", "--out", "seeded"]) == 0
    assert (tmp_path / "seeded_attack.json").read_bytes() == (tmp_path / "unseeded_attack.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify"], ["verify", "--config", "haar16.json"], ["trapdoor", "demo-involution", "--config", "haar16.json"],
], ids=["verify", "verify-n16", "demo-involution-n16"])
@pytest.mark.parametrize("seed, bad", [(-1, -1), (2**128 - 1, 2**128)], ids=["seed", "seed-plus-one"])
def test_verify_and_involution_refuse_a_bad_seed_before_the_draw(tmp_path, monkeypatch, capsys, argv, seed, bad):
    # both read seed and seed + 1 (psi and the second weights, or the two keys); at n = 16 the draw would need
    # 128 GiB, so a bad seed is refused first, as a usage error with no report
    monkeypatch.chdir(tmp_path)
    haar16 = {"K": 4, "n": 16, "unitaries": {"kind": "haar", "seed": 7}}
    extra = {"weights": [1.0, 0.8, 0.5, 0.3]} if argv[0] == "verify" else {"psi_seed": 3}
    (tmp_path / "haar16.json").write_text(json.dumps({**haar16, **extra}))
    _no_draw(monkeypatch)
    assert main([*argv, "--seed", str(seed), "--out", "o"]) == 2
    assert capsys.readouterr().err == f"error: a seed must lie in [0, 2**128), got {bad}\n"
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("change, message", [
    ({"extra": 1}, "config key 'extra' is not read by a circuit spec"), ({"variant": "spiral"}, "unknown variant"),
], ids=["unread-key", "unknown-variant"])
def test_verify_records_a_bad_sixteen_qubit_spec_without_a_draw(tmp_path, monkeypatch, capsys, change, message):
    # the draw would need 128 GiB; the document is refused first, as a failed spec-validation (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_VERIFY, "n": 16, **change}))
    _no_draw(monkeypatch)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    (check,) = json.loads((tmp_path / "v_verify.json").read_text())["checks"]
    assert check["name"] == "spec-validation" and not check["pass"] and message in check["error"]
    assert capsys.readouterr().out == "FAIL spec-validation\n"


@pytest.mark.parametrize("change, message", [
    ({"k": 3}, "power-of-two k, got 3"), ({"n": 0}, "at least one system qubit"),
    ({"unitary_seed": -1}, "a seed must lie in [0, 2**128)"), ({"psi_seed": None}, "psi_seed must be an integer"),
    ({"a_grid": []}, "at least one a_grid value"), ({"a_grid": ["0.5"]}, "must be a real number"),
], ids=["k", "n", "unitary-seed", "psi-seed", "empty-a-grid", "a-grid-string"])
def test_fig2_checks_its_config_before_the_draw(tmp_path, monkeypatch, capsys, change, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_FIG2, **change}))
    _no_draw(monkeypatch)
    assert main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("f*")) == []


def test_fig3_refuses_a_size_of_one_before_any_sweep(tmp_path, capsys):
    # 1 = 2**0 is a power of two, but a sweep needs n >= 1; N16 must not be written before the refusal
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_SWEEP, "sizes": [16, 1]}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == "error: need at least one system qubit, got n=0\n"
    assert list(tmp_path.glob("*_fig3_*")) == []


def test_verify_refuses_secret_mixing_at_a_k_that_is_not_a_power_of_two(tmp_path, capsys):
    # the first layer of secret mixing is the Hadamard matrix of order K, so K = 3 fails spec validation
    # (exit 1, with a report) instead of failing later inside hadamard_matrix (exit 2, no report)
    mix = np.fft.fft(np.eye(3)) / np.sqrt(3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_VERIFY, "K": 3, "weights": [1.0, 0.8, 0.5], "mixing": "secret",
                               "mixing_matrix": np.stack([mix.real, mix.imag], axis=-1).tolist()}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    (check,) = json.loads((tmp_path / "v_verify.json").read_text())["checks"]
    assert check["name"] == "spec-validation" and not check["pass"]
    assert check["error"] == "Secret mixing needs a power-of-two k, got 3"
    assert capsys.readouterr().out == "FAIL spec-validation\n"


def test_trapdoor_eval_and_invert_on_a_haar_public_never_form_a_dense_unitary(tmp_path, monkeypatch):
    # the public unitaries are drawn and applied as reflectors; only verify and the dense oracles read the dense
    # stack, so every trapdoor action the key holder runs on a Haar config must work with its builder broken
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**lcuout.cli.DEFAULT_TRAPDOOR, "n": 6}))
    (tmp_path / "k.json").write_text(key_to_json(keygen(4, "hadamard", 3)))

    def no_dense(self):
        raise RuntimeError("formed a dense unitary")

    monkeypatch.setattr(Reflectors, "dense", property(no_dense))
    with pytest.raises(RuntimeError, match="formed a dense unitary"):  # the spy sits where the dense form is built
        haar_reflectors(1, 2, rng(0)).dense
    common = ["--config", "cfg.json", "--key", "k.json"]
    assert main(["trapdoor", "eval", *common, "--dump", "amplitudes", "--out", "a"]) == 0
    assert main(["trapdoor", "eval", *common, "--shots", "1000", "--out", "s"]) == 0
    assert main(["trapdoor", "invert", *common, "--density", "0.7", "--sigma", "1e-3", "--out", "d"]) == 0
    assert main(["trapdoor", "invert", *common, "--phi", "a_amplitudes.csv", "--out", "p"]) == 0
    assert json.loads((tmp_path / "p_invert.json").read_text())["target_error"] < 1e-12
    with pytest.raises(RuntimeError, match="formed a dense unitary"):  # verify's structure battery does read it
        verify(CircuitSpec.from_json(json.dumps({**lcuout.cli.DEFAULT_VERIFY, "n": 6})), 0)


@pytest.mark.parametrize("scheme", ["hadamard", "secret_mixing"])
@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
def test_eval_amplitudes_are_the_keys_c_times_the_public_rows(tmp_path, monkeypatch, scheme, variant):
    # the dump has the bytes of output_matrix of the key holder's spec, yet builds no such spec: the key is fitted
    # once, by key_coefficients, whose C then multiplies the public rows U_t psi
    monkeypatch.chdir(tmp_path)
    config = {**lcuout.cli.DEFAULT_TRAPDOOR, "scheme": scheme, "variant": variant}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    key = keygen(4, scheme, 5)
    (tmp_path / "k.json").write_text(key_to_json(key))
    pub = PublicParams(k=4, n=4, scheme=scheme, variant=variant, unitaries=rng(42))
    expected = matrix_to_csv(output_matrix(key_spec(key, pub), random_state(16, 99)))

    def no_spec(*args, **kwargs):
        raise RuntimeError("built the key holder's spec")

    monkeypatch.setattr(CircuitSpec, "with_weights", no_spec)
    assert main(["trapdoor", "eval", "--config", "cfg.json", "--key", "k.json", "--dump", "amplitudes", "--out", "a"]) == 0
    assert read_body(tmp_path / "a_amplitudes.csv") + "\n" == expected


def test_demo_involution_refuses_a_haar_public_by_its_probe_before_any_dense_unitary(tmp_path, monkeypatch, capsys):
    # a Haar unitary is almost surely no involution: one O(K N^2) probe refuses it, with the dense builder broken,
    # while the monomial stacks the cipher is run with still decrypt
    monkeypatch.chdir(tmp_path)

    def no_dense(self):
        raise RuntimeError("formed a dense unitary")

    monkeypatch.setattr(Reflectors, "dense", property(no_dense))
    haar = {**lcuout.cli.DEFAULT_INVOLUTION, "n": 6, "unitaries": lcuout.cli.DEFAULT_TRAPDOOR["unitaries"]}
    swaps = {**lcuout.cli.DEFAULT_INVOLUTION, "unitaries": {"kind": "permutation", "data": [
        [1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]}}
    for name, config in (("haar", haar), ("pauli", lcuout.cli.DEFAULT_INVOLUTION), ("swaps", swaps)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["trapdoor", "demo-involution", "--config", "haar.json", "--out", "h"]) == 2
    assert "unitary 0 is not an involution" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["haar.json", "pauli.json", "swaps.json"]
    for name in ("pauli", "swaps"):
        assert main(["trapdoor", "demo-involution", "--config", f"{name}.json", "--out", name]) == 0
        assert abs(json.loads((tmp_path / f"{name}_involution.json").read_text())["fidelity"] - 1.0) < 1e-10


HAAR = lcuout.cli.DEFAULT_TRAPDOOR["unitaries"]
BAD_PUBLIC_CONFIGS = {
    "haar-seed-negative": ({"unitaries": {**HAAR, "seed": -1}}, "a seed must lie in [0, 2**128)"),
    "haar-seed-too-large": ({"unitaries": {**HAAR, "seed": 2**128}}, "a seed must lie in [0, 2**128)"),
    "haar-seed-bool": ({"unitaries": {**HAAR, "seed": True}}, "the Haar seed must be an integer"),
    "haar-seed-float": ({"unitaries": {**HAAR, "seed": 1.5}}, "the Haar seed must be an integer"),
    "source-kind": ({"unitaries": {"kind": "gaussian", "seed": 1}}, "unknown unitary source kind 'gaussian'"),
    "scheme": ({"scheme": "rsa"}, "unknown scheme 'rsa'"),
    "variant": ({"variant": "spiral"}, "unknown variant 'spiral'"),
    "K-not-a-power-of-two": ({"K": 3}, "power-of-two k, got 3"),
    "n-zero": ({"n": 0}, "at least one system qubit"),
    "psi-seed-negative": ({"psi_seed": -1}, "a seed must lie in [0, 2**128)"),
    "unread-key": ({"mixing": "dft"}, "config key 'mixing' is not read by trapdoor"),
    "pauli-letter": ({"n": 2, "unitaries": {"kind": "pauli_strings", "data": ["XZ", "ZI", "IQ", "YY"]}},
                     "unknown Pauli letter 'Q'"),
    "explicit-not-unitary": ({"K": 2, "n": 1, "unitaries": {"kind": "explicit", "data": [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0.3, 0]], [[0, 0], [1, 0]]]]}}, "matrix 1 is not unitary"),
}


@pytest.mark.parametrize("action", ["attack", "eval", "keygen"])
@pytest.mark.parametrize("case", BAD_PUBLIC_CONFIGS)
def test_attack_refuses_every_public_config_that_eval_refuses(tmp_path, capsys, action, case):
    # the attack and keygen skip the Haar draw, not a check of the config
    change, message = BAD_PUBLIC_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**lcuout.cli.DEFAULT_TRAPDOOR, **change}))
    key = tmp_path / "k.json"
    key.write_text(key_to_json(keygen(4, "hadamard", 0)))
    phi = tmp_path / "phi.csv"
    phi.write_text(matrix_to_csv(np.ones((8, 16))))
    extra = {"attack": ["--phi", str(phi)], "eval": ["--key", str(key)], "keygen": []}[action]
    assert main(["trapdoor", action, "--config", str(cfg), *extra, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.glob("o*")) == []


IGNORED_FLAGS = [
    (["invert", "--sigma", "0.5"], "--sigma"),
    (["invert", "--phi", "phi.csv", "--density", "0.5", "--sigma", "0.5"], "--density"),
    (["eval", "--dump", "amplitudes", "--shots", "10"], "--shots"),
]


@pytest.mark.parametrize("argv, flag", IGNORED_FLAGS, ids=["sigma-without-density", "phi-and-density",
                                                           "shots-with-amplitudes"])
def test_trapdoor_flag_the_command_would_ignore_exits_2(tmp_path, capsys, monkeypatch, argv, flag):
    # without the refusal each would exit 0 having dropped the flag: noiseless, from --phi alone, or exact amplitudes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(key_to_json(keygen(4, "hadamard", 0)))
    (tmp_path / "phi.csv").write_text(matrix_to_csv(np.ones((8, 16))))
    try:
        code = main(["trapdoor", *argv, "--key", "k.json", "--out", "o"])
    except SystemExit as exc:  # argparse refuses the pair itself
        code = exc.code
    assert code == 2
    assert any("error: " in line and flag in line for line in capsys.readouterr().err.splitlines())
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("change", [{"instances": 0}, {"masks_per_instance": 0}, {"methods": []}, {"fractions": []}])
def test_fig3_with_nothing_to_average_exits_2(tmp_path, capsys, change):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_SWEEP, **change}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    assert "at least one instance" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command, change", [(["fig3"], {**SMALL_SWEEP, "sizes": []}),
                                             (["fig2"], {**lcuout.cli.DEFAULT_FIG2, "a_grid": []})],
                         ids=["fig3-sizes", "fig2-a_grid"])
def test_fig3_without_sizes_and_fig2_without_a_grid_exit_2(tmp_path, capsys, command, change):
    # an empty grid outside sweep would otherwise write no file (fig3) or a header-only CSV (fig2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(change))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least one" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_missing_required_flags_exit_2(tmp_path, capsys):
    for argv, flag in [(["trapdoor", "eval"], "--key"), (["trapdoor", "invert"], "--key"),
                       (["trapdoor", "attack"], "--phi")]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert main(["fig2", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_readme_command_lines_parse():
    # every `lcuout ...` line of the README's command-line block names real subcommands and flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lcuout ")]
    assert len(lines) >= 10
    for argv in lines:
        args = lcuout.cli._parser().parse_args(argv)
        assert callable(args.run) and isinstance(args.default_config, dict)


def test_readme_library_block_runs_and_prints_what_it_says():
    # the "Library at a glance" block, run as a user would run it from a checkout
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library at a glance", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(lcuout.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    residual, probability = (float(line) for line in run.stdout.split())
    assert "# ~1e-15" in block and residual < 1e-14
    assert "# 0.0795" in block and abs(probability - 0.0795) < 5e-5


def test_main_builds_the_parser_once_and_survives_a_usage_error(tmp_path, capsys):
    lcuout.cli._parser.cache_clear()
    assert main(["trapdoor", "keygen", "--seed", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(["trapdoor", "keygen", "--seed", "2", "--out", str(tmp_path / "b")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["trapdoor", "eval", "--out", str(tmp_path / "c")])  # --key is required
    assert exc.value.code == 2 and "--key" in capsys.readouterr().err
    assert main(["trapdoor", "keygen", "--seed", "1", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d_key.json").read_bytes() == (tmp_path / "a_key.json").read_bytes()
    assert lcuout.cli._parser.cache_info().misses == 1


def test_key_file_round_trips_byte_identically(tmp_path):
    out1, out2 = str(tmp_path / "k1"), str(tmp_path / "k2")
    assert main(["trapdoor", "keygen", "--seed", "9", "--out", out1]) == 0
    assert main(["trapdoor", "keygen", "--seed", "9", "--out", out2]) == 0
    assert (tmp_path / "k1_key.json").read_bytes() == (tmp_path / "k2_key.json").read_bytes()


def test_secret_mixing_key_without_gamma_exits_2(tmp_path, capsys):
    key = tmp_path / "k_key.json"
    key.write_text(json.dumps({"scheme": "secret_mixing", "weights": [0.5, 0.5, 0.5, 0.5]}))
    assert main(["trapdoor", "eval", "--key", str(key), "--out", str(tmp_path / "e")]) == 2
    assert "gamma" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def no_convergence(a, rank):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(lcuout.recovery, "truncate_rank", no_convergence)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "n": 3, "fraction": 0.8, "seed": 1}))
    assert main(["complete", "svp", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_check_failed_exits_1(tmp_path, monkeypatch, capsys):
    def disagree(*args):
        raise CheckFailed("closed-form p00", 3e-9)

    monkeypatch.setattr(lcuout.cli, "success_probabilities", disagree)
    assert main(["fig2", "--out", str(tmp_path / "f")]) == 1
    assert "a check failed: closed-form p00 check failed: residual 3.000e-09" in capsys.readouterr().err


def test_an_allocation_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # numpy refuses an array that cannot be mapped; the size came from the config, so it is a usage error
    message = "Unable to allocate 2.00 PiB for an array with shape (16777216, 16777216)"

    def too_large(spec, seed):
        raise MemoryError(message)

    monkeypatch.setattr(lcuout.cli, "verify", too_large)
    assert main(["verify", "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seed", [-1, 2**128 - 1], ids=["negative", "2**128-1"])
def test_complete_refuses_a_seed_whose_derived_seeds_leave_the_seed_range(tmp_path, capsys, seed):
    # -1 derives only positive seeds, but a base seed is held to rng's range as well
    assert main(["complete", "factorized", "--seed", str(seed), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep seed {seed} ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


NOT_UNITARY = {"K": 1, "n": 1, "weights": [1.0], "unitaries": {"kind": "explicit", "data": [[[[1, 0], [1, 0]], [[0, 0], [1, 0]]]]}}


@pytest.mark.parametrize("config, code", [(None, 0), ("missing", 2), (NOT_UNITARY, 1)])
def test_module_entry_point_exits_with_the_command_code(tmp_path, config, code):
    # python -m lcuout.cli runs main() and hands its return value to sys.exit
    args = [sys.executable, "-m", "lcuout.cli", "verify", "--out", str(tmp_path / "v")]
    if config is not None:
        path = tmp_path / "cfg.json"
        if config != "missing":
            path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    src = str(Path(lcuout.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run(args, env=env, capture_output=True).returncode == code
