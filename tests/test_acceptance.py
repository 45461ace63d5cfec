"""End-to-end acceptance gate.

One test per shipped guarantee, at the exact tolerances promised; each runs
from public entry points only.  Runtime-bounded tests measure wall time and
fail when the budget is exceeded.
"""

import json
import time

import numpy as np
import pytest

from lcuout.circuit import (
    CircuitSpec,
    circuit_unitary,
    output_states,
    scale_coefficients,
)
from lcuout.cli import main
from lcuout.linalg import haar_random_unitary, random_state, rng
from lcuout.outputs import coefficient_matrix, output_matrix, row_matrix
from lcuout.recovery import (
    factorized_complete,
    make_mask,
    observe,
    recovery_errors,
    sweep,
)
from lcuout.structure import verify
from lcuout.trapdoor import (
    PublicParams,
    hadamard_attack,
    invert_with_key,
    involution_encrypt_decrypt,
    key_spec,
    keygen,
)

from helpers import pauli_string_matrix, permutation_matrix, random_instance


def haar_spec(k, n, seed, mixing="hadamard", weights=None):
    gen = rng(seed)
    if weights is None:
        weights = gen.uniform(0.1, 1.0, k)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    return CircuitSpec(k=k, n=n, weights=np.asarray(weights, float), unitaries=unitaries,
                       mixing=mixing)


def test_criterion_01_success_probability_identities():
    t0 = time.perf_counter()
    k, n = 4, 4
    gen = rng(1001)
    unitaries = tuple(haar_random_unitary(16, gen) for _ in range(k))
    psi = random_state(16, 1002)
    for a in np.arange(0.1, 1.0 + 1e-9, 0.05):
        alpha = np.array([1.0, 1.0, a, a])
        c, beta = scale_coefficients(alpha)
        spec = CircuitSpec(k=k, n=n, weights=beta, unitaries=unitaries)
        out = output_states(spec, psi)
        p00_sim = out.probability(0, 0)
        t_psi = sum(x * (u @ psi) for x, u in zip(alpha, unitaries))
        p00_analytic = np.linalg.norm(t_psi) ** 2 / (c * k) ** 2
        p_std = np.linalg.norm(t_psi) ** 2 / np.sum(np.abs(alpha)) ** 2
        assert abs(p00_sim - p00_analytic) < 1e-10
        assert p_std >= p00_sim - 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_dual_construction_equivalence():
    t0 = time.perf_counter()
    for k in (1, 2, 4, 8):
        for n in (1, 2, 3, 4):
            spec = haar_spec(k, n, seed=2000 + 16 * k + n)
            big_n = spec.big_n
            psi = random_state(big_n, 2100 + 16 * k + n)
            ext = np.zeros(spec.extended_dim, dtype=complex)
            ext[:big_n] = psi
            full = circuit_unitary(spec) @ ext
            out = output_states(spec, psi)
            for i in range(k):
                for r in range(2):
                    slice_ = full[(i * 2 + r) * big_n : (i * 2 + r + 1) * big_n]
                    assert np.abs(out.state(i, r) - slice_).max() < 1e-12
    assert time.perf_counter() - t0 < 30.0


def _structure_suite_specs():
    cases = []
    grid = [(2, 2, "hadamard"), (4, 2, "hadamard"), (8, 1, "hadamard"), (4, 2, "dft")]
    for rep in range(5):
        for k, n, mixing in grid:
            cases.append(haar_spec(k, n, seed=3000 + 97 * rep + k, mixing=mixing))
    return cases


_BATTERY = {
    "unitarity", "block-structure", "similarity", "singular-multiset", "csd", "csd-sigma",
    "involution", "factorization", "column-orthogonality", "rank",
}


def assert_battery_passes(spec, seed):
    checks = verify(spec, seed)
    assert {c["name"] for c in checks} == _BATTERY
    for c in checks:
        assert not c["skipped"], c["name"]
        assert c["pass"], (c["name"], c["residual"], c["threshold"])


def test_criterion_03_block_structure_suite():
    t0 = time.perf_counter()
    specs = _structure_suite_specs()
    assert len(specs) == 20
    for idx, spec in enumerate(specs):
        # the involution check draws its second weight vector from rng(seed + 1) = rng(4000 + idx)
        assert_battery_passes(spec, 3999 + idx)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_factorization_and_rank():
    for idx, spec in enumerate(_structure_suite_specs()):
        # the factorization and rank checks draw psi from random_state(N, seed)
        assert_battery_passes(spec, 4100 + idx)


def test_criterion_05_exact_recovery_threshold():
    t0 = time.perf_counter()
    spec, psi = random_instance(4, 8, 4040)
    phi = output_matrix(spec, psi)
    c = coefficient_matrix(spec)
    # K observations per column pin every column exactly
    mask = make_mask(8, 256, 9001, "column_guaranteed", min_per_column=4)
    res = factorized_complete(observe(phi, mask, 0.0), c)
    err_phi, err_target = recovery_errors(res.phi, phi)
    assert res.underdetermined == ()
    assert err_phi < 1e-8
    assert err_target < 1e-8
    # dense uniform mask reaches the same plateau
    mask = make_mask(8, 256, 9001, "uniform", density=0.95)
    res = factorized_complete(observe(phi, mask, 0.0), c)
    assert recovery_errors(res.phi, phi)[0] < 1e-5
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_noise_scaling():
    t0 = time.perf_counter()
    sigmas = [1e-4, 1e-3, 1e-2]
    rows = sweep({
        "k": 4, "n": 8, "fraction": 0.7, "sigmas": sigmas,
        "instances": 10, "masks_per_instance": 5,
        "methods": ["svp", "factorized"],
        "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": 616,
    })
    svp_err = {r["param"]: r["mean_err_phi"] for r in rows if r["method"] == "svp"}
    fact_err = {r["param"]: r["mean_err_phi"] for r in rows if r["method"] == "factorized"}
    slope = np.polyfit(np.log10(sigmas), np.log10([svp_err[s] for s in sigmas]), 1)[0]
    assert 0.7 <= slope <= 1.3
    assert fact_err[1e-3] < 1.0
    assert time.perf_counter() - t0 < 600.0


def test_criterion_07_trapdoor_round_trip():
    gen = rng(5000)
    pub = PublicParams(k=4, n=8, unitaries=tuple(haar_random_unitary(256, gen) for _ in range(4)),
                       scheme="hadamard", variant="reflection")
    key = keygen(4, "hadamard", 5001)
    psi = random_state(256, 5002)
    spec = key_spec(key, pub)
    phi = output_matrix(spec, psi)
    truth = key.weights @ row_matrix(spec, psi)
    res = invert_with_key(key, pub, phi)
    assert np.linalg.norm(res.target - truth) / np.linalg.norm(truth) < 1e-10
    mask = make_mask(8, 256, 5003, "column_guaranteed", density=0.7, min_per_column=4)
    res = invert_with_key(key, pub, observe(phi, mask, 0.0))
    assert res.underdetermined == ()
    assert np.linalg.norm(res.target - truth) / np.linalg.norm(truth) < 1e-8


def test_criterion_08_attack_dichotomy():
    for seed in range(10):
        gen = rng(6000 + seed)
        pub = PublicParams(k=4, n=4, unitaries=tuple(haar_random_unitary(16, gen) for _ in range(4)),
                           scheme="hadamard", variant="reflection")
        key = keygen(4, "hadamard", 6100 + seed)
        psi = random_state(16, 6200 + seed)
        phi = output_matrix(key_spec(key, pub), psi)
        res = hadamard_attack(pub, phi)
        assert np.abs(res.weights - key.weights).max() < 1e-10
        # magnitudes alone (no phases) defeat the same attack
        blind = hadamard_attack(pub, np.abs(phi))
        assert np.abs(blind.weights - key.weights).max() > 1e-2


_PAULI_SETS = [
    ["XZ", "ZI", "IX", "YY"], ["IZ", "XX", "YI", "ZZ"], ["XI", "IY", "ZX", "YZ"],
    ["ZZ", "XY", "IX", "YI"], ["YX", "ZY", "XI", "IZ"],
]
_PERM_SETS = [
    ([1, 0, 2, 3], [0, 1, 3, 2], [3, 1, 2, 0], [0, 2, 1, 3]),
    ([2, 3, 0, 1], [1, 0, 3, 2], [0, 3, 2, 1], [3, 2, 1, 0]),
    ([0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [0, 1, 3, 2]),
    ([3, 1, 2, 0], [0, 2, 1, 3], [1, 0, 3, 2], [2, 3, 0, 1]),
    ([0, 3, 2, 1], [2, 1, 0, 3], [3, 2, 1, 0], [1, 0, 2, 3]),
]


def test_criterion_09_involution_encryption():
    for seed in range(10):
        if seed % 2 == 0:
            labels = _PAULI_SETS[seed // 2]
            unitaries = tuple(pauli_string_matrix(s) for s in labels)
        else:
            perms = _PERM_SETS[seed // 2]
            unitaries = tuple(permutation_matrix(p) for p in perms)
        pub = PublicParams(k=4, n=2, unitaries=unitaries, scheme="hadamard", variant="reflection")
        psi = random_state(4, 7000 + seed)
        key = keygen(4, "hadamard", 7100 + seed)
        key2 = keygen(4, "hadamard", 7200 + seed)
        fid = involution_encrypt_decrypt(pub, psi, key, key2)
        assert abs(fid - 1.0) < 1e-10


def test_criterion_10_cli_determinism(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "k": 4, "sizes": [64], "fractions": [0.6, 0.9], "sigma": 0.0,
        "instances": 2, "masks_per_instance": 2,
        "methods": ["svp", "als", "factorized"], "seed": 515,
    }))
    fig4_cfg = tmp_path / "fig4.json"
    fig4_cfg.write_text(json.dumps({
        "k": 4, "n": 6, "fraction": 0.7, "sigmas": [1e-3, 1e-2],
        "instances": 2, "masks_per_instance": 2, "methods": ["svp", "factorized"],
        "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": 616,
    }))
    complete_cfg = tmp_path / "complete.json"
    complete_cfg.write_text(json.dumps({
        "k": 4, "n": 6, "fraction": 0.8, "sigma": 0.0,
        "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": 77,
    }))
    trap_cfg = tmp_path / "trap.json"
    trap_cfg.write_text(json.dumps({
        "K": 4, "n": 4, "scheme": "hadamard", "variant": "reflection",
        "unitaries": {"kind": "haar", "seed": 42}, "psi_seed": 99,
    }))

    def body(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    key1 = tmp_path / "a_key.json"
    commands = [
        (["verify", "--out"], "_verify.json", None),
        (["fig2", "--out"], "_fig2.csv", None),
        (["fig3", "--config", str(sweep_cfg), "--out"], "_fig3_N64.csv", None),
        (["fig4", "--config", str(fig4_cfg), "--out"], "_fig4.csv", None),
        (["complete", "svp", "--config", str(complete_cfg), "--out"], "_complete_svp.csv", None),
        (["complete", "als", "--config", str(complete_cfg), "--out"], "_complete_als.csv", None),
        (["complete", "factorized", "--config", str(complete_cfg), "--out"], "_complete_factorized.csv", None),
        (["trapdoor", "keygen", "--seed", "9", "--out"], "_key.json", None),
        (["trapdoor", "eval", "--config", str(trap_cfg), "--key", str(key1), "--dump", "amplitudes", "--out"],
         "_amplitudes.csv", "keys"),
        (["trapdoor", "eval", "--config", str(trap_cfg), "--key", str(key1), "--shots", "5000", "--seed", "3",
          "--out"], "_magnitudes.csv", "keys"),
        (["trapdoor", "invert", "--config", str(trap_cfg), "--key", str(key1), "--density", "0.7", "--seed", "5",
          "--out"], "_target.csv", "keys"),
        (["trapdoor", "demo-involution", "--seed", "21", "--out"], "_involution.json", None),
    ]
    # keygen first so dependent commands can read the key file
    assert main(["trapdoor", "keygen", "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    for argv, suffix, _ in commands:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + [str(out_a)]) == 0
        assert main(argv + [str(out_b)]) == 0
        file_a = tmp_path / ("a" + suffix)
        file_b = tmp_path / ("b" + suffix)
        assert body(file_a) == body(file_b), f"bodies differ for {argv[0]} {suffix}"
    # attack consumes the amplitude dump produced above
    amp = tmp_path / "a_amplitudes.csv"
    for prefix in ("atk1", "atk2"):
        assert main(["trapdoor", "attack", "--config", str(trap_cfg), "--phi", str(amp),
                     "--out", str(tmp_path / prefix)]) == 0
    assert body(tmp_path / "atk1_attack.json") == body(tmp_path / "atk2_attack.json")
