"""Tests of the benchmark itself: statistics, span accounting, op lists, checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Family  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail(list(range(100, 0, -1)))
    assert value == 90 and percentile == 90.0
    value, percentile = run.tail([5.0] * 20 + [9.0] * 10)
    assert value == 5.0 and percentile == pytest.approx(200 / 3)
    samples = [float(x) for x in range(37)]
    value, _ = run.tail(samples)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_needs_eleven_samples():
    assert run.tail(list(range(11))) == (0, 100 / 11)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_per_op_takes_each_ops_median_scaled_by_slowdown_and_skips_crashes():
    passes = [
        {"times": [1.0, 5.0, None], "slowdown": [1.0, 1.0, 1.0]},
        {"times": [6.0, 8.0, None], "slowdown": [2.0, 2.0, 2.0]},
        {"times": [2.0, None, None], "slowdown": [1.0, 1.0, 1.0]},
    ]
    assert run.per_op(passes) == [2.0, 4.5]
    assert run.per_op(passes, scaled=False) == [2.0, 6.5]


def test_clock_takes_the_samples_around_an_op():
    clock = speed.Clock(gap=0.0)
    clock.starts, clock.seconds = [0.0, 1.0, 2.0], [speed.REFERENCE_S, 3 * speed.REFERENCE_S, speed.REFERENCE_S]
    assert clock.factor(0.5, 0.9) == pytest.approx(2.0)
    assert clock.factor(1.5, 1.8) == pytest.approx(2.0)
    assert clock.factor(0.5, 1.8) == pytest.approx(1.0)


def test_self_time_subtracts_child_spans():
    # a(0..10) holds b(1..4) and c(5..9); c holds d(6..8); a second b is a root
    nested = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 5.0, 9.0),
        ("d", 2, 6.0, 8.0),
        ("b", -1, 20.0, 21.5),
    ]
    totals = spans.self_times(nested)
    assert totals == {"a": [3.0, 1], "b": [4.5, 2], "c": [2.0, 1], "d": [2.0, 1]}


def test_recorder_links_parents_and_counts_calls():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s[0], s[1]) for s in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    totals, _ = rec.drain()
    assert totals["inner"][1] == 2 and totals["outer"][1] == 1
    assert all(seconds >= 0 for seconds, _ in totals.values())
    assert rec.spans == []


def test_install_wraps_every_import_site_and_restores():
    import balchain.cli
    import balchain.steady
    import balchain.verify

    original = balchain.steady.solve_exact
    rec = spans.Recorder()
    restore, sites = spans.install(rec, "balchain", spans.TRACED)
    try:
        for module in (balchain, balchain.steady, balchain.verify, balchain.cli):
            assert module.solve_exact is not original
        assert {"balchain.verify.solve_exact", "balchain.cli.solve_exact"} <= set(sites)
        balchain.verify_family(balchain.balancing_chain(5))
    finally:
        restore()
    assert balchain.verify.solve_exact is original and balchain.cli.solve_exact is original
    totals, _ = rec.drain()
    assert totals["steady.solve_exact"][1] == 1 and totals["verify.verify_family"][1] == 1


def test_install_fails_loudly_when_a_traced_function_is_gone():
    import balchain  # noqa: F401

    with pytest.raises(spans.LayerMissing, match="steady.no_such_solver"):
        spans.install(spans.Recorder(), "balchain", {"steady": ("no_such_solver",)})


def _shape(op: workloads.Op) -> tuple:
    """What a seed may not change: the call, the check and every size."""
    sizes = tuple(a.n for a in op.args + op.expect if isinstance(a, Family))
    if op.call == "cli":
        flags = {"--n", "--count", "--steps", "--sizes", "--max-n", "--digits", "--method", "--format", "--all"}
        argv = op.args
        sizes += (argv[0],) + tuple(x for i, x in enumerate(argv) if x in flags or (i and argv[i - 1] in flags))
    return (op.call, op.check) + sizes


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_op_list(workload):
    assert workloads.ops_for(workload, 7) == workloads.ops_for(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_vary_choices_but_keep_sizes(workload):
    lists = [workloads.ops_for(workload, seed) for seed in range(4)]
    assert len({tuple(ops) for ops in lists}) == 4
    shapes = [sorted(map(_shape, ops)) for ops in lists]
    assert all(s == shapes[0] for s in shapes)
    # the tail percentile stays above the median
    assert len(lists[0]) >= 21


def test_term_indices_stay_near_their_nominal_size():
    nominal = sorted(k for k, _ in workloads.TERMS)
    for seed in range(5):
        picked = sorted(op.expect[1] for op in workloads.ops_for("ring-limit", seed) if op.call == "term")
        assert all(0 <= k0 - k < 1000 for k0, k in zip(nominal, picked))


def test_references_match_balchain_closed_forms():
    import balchain as bc

    rng = __import__("random").Random(3)
    for kind in workloads.KINDS:
        for n in (workloads.min_n(kind), 9, 30):
            fam = workloads.family(rng, kind, n)
            chain = bc.ChainFamily(kind, n, fam.a, fam.q)
            assert ref.stationary(kind, n, fam.a) == bc.closed_form(chain)


def test_checks_reject_wrong_outputs():
    b = ref.terms(ref.RECURRENCES["balancing"], 60)
    ref.check_term("balancing", 59, b[59])
    with pytest.raises(ref.CheckFailed):
        ref.check_term("balancing", 59, b[59] + 1)
    with pytest.raises(ref.CheckFailed):
        ref.check_term("balancing", 59, b[58])
    c = ref.terms(ref.RECURRENCES["lucas-cobalancing"], 30)
    ref.check_term("lucas-cobalancing", 29, c[29])
    with pytest.raises(ref.CheckFailed):
        ref.check_term("lucas-cobalancing", 29, c[28])
    rows = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    ref.check_stationary(rows, [Fraction(1, 3), Fraction(2, 3)])
    with pytest.raises(ref.CheckFailed):
        ref.check_stationary(rows, [Fraction(1, 2), Fraction(1, 2)])
    lo, hi = ref.ratio_gap(10, 40)
    ref.check_bound(float(hi), lo, hi, Fraction(1, 10**40), "ratio")
    with pytest.raises(ref.CheckFailed):
        ref.check_bound(float(lo) / 2, lo, hi, Fraction(0), "ratio")
    with pytest.raises(ref.CheckFailed):
        ref.check_sequence_text("balancing", 4, "0\n1\n6\n36")


def test_benchmark_json_lists_the_metrics_run_reports():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [f"{n}.ms" for n in run.LAYER_TIMES] + [f"{n}.calls" for n in run.LAYER_CALLS] + list(run.LAYER_EXTRA)
    assert [m["name"] for m in spec["per_layer"]] == layer
