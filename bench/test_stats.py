"""Tests of the benchmark's own arithmetic: self time, tail rule, host scaling, failure counts.

    python3 -m pytest bench
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from stats import OpOutcome, Tail, covered, fail_frac, host_scaled, self_times, tail
from worker import FactorizedRecorder, check, run_op
from workloads import Op


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild: counts against the child, not the root
        (5.0, 6.0, 0),  # second child
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] inside the root
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered((0.0, 10.0), []) == 0.0


def test_tail_leaves_ten_operations_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    t = tail(values)
    assert t == Tail(value=90.0, percentile=90.0, count=100, beyond=10)
    assert sum(v > t.value for v in values) == 10


def test_tail_percentile_grows_with_sample_count():
    assert tail([float(v) for v in range(1000)]).percentile == pytest.approx(99.0)
    t = tail([float(v) for v in range(11)])
    assert (t.value, t.beyond) == (0.0, 10)
    assert t.percentile == pytest.approx(100 / 11)


def test_tail_without_enough_samples_reports_max_and_zero_beyond():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.count, t.beyond) == (3.0, 100.0, 3, 0)
    with pytest.raises(ValueError):
        tail([])


def test_host_scaled_uses_the_mean_of_the_bracketing_probes():
    # probes of 4 and 6 ms around a 100 ms operation: the host ran at 5 ms per
    # probe, half the reference speed of 2.5 ms, so it reads as 50 ms
    samples = [(0.0, 0.002), (0.990, 0.994), (1.100, 1.106), (2.0, 2.001)]
    assert host_scaled((1.0, 1.1), samples, 0.0025) == pytest.approx(0.050)


def test_host_scaled_takes_out_probes_inside_the_operation():
    # a 1 s operation holds two 10 ms probes; brackets take 10 ms too
    samples = [(-0.01, 0.0), (0.3, 0.31), (0.6, 0.61), (1.0, 1.01)]
    assert host_scaled((0.0, 1.0), samples, 0.005) == pytest.approx(0.98 * 0.5)
    with pytest.raises(ValueError):
        host_scaled((0.0, 1.0), samples[1:], 0.005)


def _op(tmp_path: Path, checker=lambda op, seen: []) -> Op:
    return Op("cmd", ["verify"], tmp_path / "out", check=checker)


def _run(tmp_path, main, checker=lambda op, seen: []) -> OpOutcome:
    op = _op(tmp_path, checker)
    outcome, seen = run_op(SimpleNamespace(main=main), op, FactorizedRecorder(), count_bytes=False)
    check(op, outcome, seen)
    return outcome


def test_fail_frac_counts_exceptions_exits_and_failed_checks(tmp_path):
    def boom(argv):
        raise ArithmeticError("numerical failure")

    def exit_two(argv):
        raise SystemExit(2)

    outcomes = [
        _run(tmp_path, lambda argv: 0),
        _run(tmp_path, boom),
        _run(tmp_path, lambda argv: 1),
        _run(tmp_path, exit_two),
        _run(tmp_path, lambda argv: 0, checker=lambda op, seen: ["wrong answer"]),
        _run(tmp_path, lambda argv: 0),
    ]
    assert [o.failed for o in outcomes] == [False, True, True, True, True, False]
    assert outcomes[1].error.startswith("ArithmeticError")
    assert outcomes[3].exit_code == 2
    assert outcomes[4].check_errors == ["wrong answer"]
    assert fail_frac(outcomes) == pytest.approx(4 / 6)


def test_unreadable_output_fails_the_check(tmp_path):
    def missing_file(op, seen):
        return [] if (tmp_path / "absent.json").read_text() else []

    outcome = _run(tmp_path, lambda argv: 0, checker=missing_file)
    assert outcome.failed and outcome.check_errors[0].startswith("unreadable output")


def test_checks_are_skipped_for_commands_that_already_failed(tmp_path):
    calls = []
    outcome = OpOutcome("cmd", 0.1, exit_code=1)
    check(_op(tmp_path, lambda op, seen: calls.append(1) or []), outcome, {})
    assert calls == [] and outcome.failed
