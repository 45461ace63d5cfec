"""Golden aggregates of two reduced figure sweeps.

The literals are the ``sweep`` rows of the thin-SVD SVP and the batched
factorized solve, printed with 17 significant digits.  They gate numerical
refactors of the completion path: the factorized solve is direct and must
stay at rounding level, while SVP takes data-dependent backtracking branches,
so its rows get a wider (measured) band and its iteration counts may drift
slightly below the cap.
"""

import math

import pytest

from lcuout.recovery import sweep

FIG3 = {
    "k": 4, "n": 6, "fractions": [0.3, 0.6, 0.9, 0.95], "sigma": 0.0,
    "instances": 2, "masks_per_instance": 2, "methods": ["svp", "factorized"], "seed": 303,
}

FIG4 = {
    "k": 4, "n": 6, "fraction": 0.7, "sigmas": [1e-3, 1e-2],
    "instances": 2, "masks_per_instance": 2, "methods": ["svp", "factorized"],
    "mask_mode": "column_guaranteed", "min_per_column": 6, "seed": 404,
}

FIELDS = ("mean_err_phi", "std_err_phi", "mean_err_target", "std_err_target", "mean_iters")

# (method, param, mean_err_phi, std_err_phi, mean_err_target, std_err_target, mean_iters)
GOLDEN_FIG3 = [
    ("svp", 0.3, 0.73939144735175877, 0.033392700331461148, 0.64541495379737657, 0.036902539072085537, 500),
    ("svp", 0.6, 0.25384066932858784, 0.026386734379353873, 0.24039760816874189, 0.049900515450605559, 500),
    ("svp", 0.9, 0.0077158671303119526, 0.013364273787562836, 0.0057012264785645276, 0.0098748137050672456, 349.5),
    ("svp", 0.95, 1.8947510442677628e-15, 3.5076244060844423e-16, 1.3777380585940177e-15, 4.2371916759601444e-16, 132.25),
    ("factorized", 0.3, 0.64119642409040789, 0.015290911518956058, 0.58329740533880736, 0.012548154507991448, 1),
    ("factorized", 0.6, 0.24324686994453676, 0.021702906637113904, 0.23703226012708881, 0.045582524163665303, 1),
    ("factorized", 0.9, 1.0318454803542989e-15, 1.3770863542649192e-15, 5.4158107657763072e-16, 4.392126969081963e-16, 1),
    ("factorized", 0.95, 2.0565127697789918e-16, 2.6800773883572004e-17, 2.3063742243218479e-16, 2.745815091344532e-17, 1),
]

GOLDEN_FIG4 = [
    ("svp", 0.001, 0.024086412276763745, 0.0024730821965424431, 0.023085876640945711, 0.0021277711066744983, 216.75),
    ("svp", 0.01, 0.2451871483093479, 0.028704511739564426, 0.22706324298635711, 0.027782971268524328, 198.75),
    ("factorized", 0.001, 0.022659535265956821, 0.002306354791372952, 0.021603877973577455, 0.0019090816752076784, 1),
    ("factorized", 0.01, 0.22659535265956804, 0.023063547913729297, 0.21603877973577454, 0.019090816752076745, 1),
]

SVP_ITERATION_CAP = 500


def check_row(row, golden):
    method, param, *expected = golden
    assert (row["method"], row["param"]) == (method, param)
    for field, g in zip(FIELDS, expected):
        got = row[field]
        if method == "factorized":
            assert abs(got - g) <= 1e-12 * abs(g) + 1e-15, (method, param, field, got, g)
        elif field != "mean_iters":
            assert abs(got - g) <= 1e-9 * abs(g) + 1e-13, (method, param, field, got, g)
        elif g == SVP_ITERATION_CAP:
            assert got == g, (method, param, field, got, g)
        else:
            assert math.isclose(got, g, rel_tol=0.02), (method, param, field, got, g)


@pytest.mark.parametrize("config, golden", [(FIG3, GOLDEN_FIG3), (FIG4, GOLDEN_FIG4)], ids=["fig3", "fig4"])
def test_sweep_matches_golden_aggregates(config, golden):
    rows = sweep(config)
    assert len(rows) == len(golden)
    for row, g in zip(rows, golden):
        check_row(row, g)
