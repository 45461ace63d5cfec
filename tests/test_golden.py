"""Golden aggregates of two reduced figure sweeps.

The literals are the ``sweep`` rows of the thin-SVD SVP and the
per-pattern pseudo-inverse factorized solve, printed with 17 significant
digits.  They gate numerical
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
    ("svp", 0.3, 0.74210974917881889, 0.035738620629536699, 0.65174038061526796, 0.035788988304302598, 500),
    ("svp", 0.6, 0.22397194639754486, 0.036589150173055932, 0.17846206909867346, 0.023953993979675493, 500),
    ("svp", 0.9, 0.0098922705470705953, 0.017133914628427921, 0.0045507414146469596, 0.0078821152681502419, 354.25),
    ("svp", 0.95, 1.8190643930658444e-15, 3.1796364327292308e-16, 1.1769989426144059e-15, 2.9244591449407426e-16, 130.25),
    ("factorized", 0.3, 0.64255385206629678, 0.017199392844793829, 0.60673212338974192, 0.021648573215852673, 1),
    ("factorized", 0.6, 0.21167795164378439, 0.045962767827384884, 0.16993255622349457, 0.023023455704066484, 1),
    ("factorized", 0.9, 4.9031743487165481e-16, 1.537541872872112e-16, 4.3163266170777001e-16, 1.3701809412318769e-16, 1),
    ("factorized", 0.95, 2.0249352467861488e-16, 1.0040444747456135e-17, 2.1090323607629245e-16, 2.9814063220254116e-17, 1),
]

GOLDEN_FIG4 = [
    ("svp", 0.001, 0.023982501734639006, 0.0024315297075875584, 0.021430389387630401, 0.0031894024219258988, 203),
    ("svp", 0.01, 0.23947213221876404, 0.023368561996749609, 0.21780325781859383, 0.03097518655775652, 197),
    ("factorized", 0.001, 0.022504400320593313, 0.0024463239021959259, 0.019862007737443624, 0.0028997706706522025, 1),
    ("factorized", 0.01, 0.22504400320593299, 0.024463239021958967, 0.19862007737443615, 0.028997706706521745, 1),
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
