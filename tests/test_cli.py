import json

import numpy as np
import pytest

import lcuout.cli
import lcuout.recovery
from lcuout.circuit import CheckFailed, CircuitSpec
from lcuout.cli import main
from lcuout.outputs import matrix_from_csv, matrix_to_csv
from lcuout.trapdoor import key_to_json, keygen

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


def test_fig3_rejects_non_power_of_two_sizes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_SWEEP, "sizes": [100]}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


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


def test_trapdoor_full_chain(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "K": 4, "n": 4, "scheme": "hadamard", "variant": "reflection",
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


@pytest.mark.parametrize("change", [{"instances": 0}, {"masks_per_instance": 0}, {"methods": []}, {"fractions": []}])
def test_fig3_with_nothing_to_average_exits_2(tmp_path, capsys, change):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_SWEEP, **change}))
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 2
    assert "at least one instance" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_missing_required_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["trapdoor", "eval", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert main(["fig2", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2


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


def test_failed_self_check_exits_1(tmp_path, monkeypatch, capsys):
    def disagree(*args):
        raise AssertionError("closed-form p00 disagrees with simulation")

    monkeypatch.setattr(lcuout.cli, "success_probabilities", disagree)
    assert main(["fig2", "--out", str(tmp_path / "f")]) == 1
    assert "a check failed" in capsys.readouterr().err


def test_check_failed_exits_1(tmp_path, monkeypatch, capsys):
    def disagree(*args):
        raise CheckFailed("closed-form p00", 3e-9)

    monkeypatch.setattr(lcuout.cli, "success_probabilities", disagree)
    assert main(["fig2", "--out", str(tmp_path / "f")]) == 1
    assert "a check failed: closed-form p00 check failed: residual 3.000e-09" in capsys.readouterr().err
