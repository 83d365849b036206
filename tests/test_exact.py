"""evaluate's float figures against the exact-arithmetic rollup.

oracles.evaluate_exact reruns the engine's formulas on the same derived
tree in fractions.Fraction (pow through mpmath at 50 digits), so each
float figure's error is measured, not guessed, and the sign and range
invariants are checked on the exact values, where no rounding can
excuse them.
"""
import math
from fractions import Fraction

import pytest

import chipcost as cc
from gensys import EDGES, at_edge, make_layers, make_system, make_twins
from oracles import evaluate_exact

# Relative error bound on every float figure. Over 200 seeds of each
# generator, and 200 more on each range-edge library, the largest error
# seen was 3.6e-15 (quality_shipped and yield_chip of make_twins(162) at
# fault coverage 0); every other figure stayed under 1.6e-15.
BOUND = 1e-14

GENERATORS = (make_system, make_twins, make_layers)


def error(got: float, exact: Fraction, scale: Fraction) -> float:
    """|got - exact| / scale, 0 where both are exactly zero."""
    diff = abs(Fraction(got) - exact)
    return float(diff / scale) if diff else 0.0


def check_exact(system) -> None:
    """Every figure of evaluate within BOUND of the exact one, and every
    invariant held by the exact figures."""
    ds = cc.derive(system)
    report = cc.evaluate(ds)
    exact = evaluate_exact(ds)
    for node in report.nodes:
        want = exact[node.path]
        for name, value in want.items():
            got = getattr(node, name)
            if value is None:           # no wafer holds a die below it
                assert got == math.inf, (node.path, name)
                continue
            # scrap is a difference of costs near c_re: its rounding is a
            # share of c_re, not of itself, which can be exactly zero
            scale = want["cost_re"] if name == "cost_scrap" else abs(value)
            assert error(got, value, scale) <= BOUND, (node.path, name)
        if want["cost_re"] is None:
            continue
        for name in ("yield_die", "yield_tested_self", "quality_self",
                     "yield_assembly", "yield_child_quality",
                     "yield_tested_assembly", "yield_chip",
                     "quality_shipped"):
            assert 0 < want[name] <= 1, (node.path, name)
        assert want["yield_die"] <= want["yield_tested_self"]
        assert (want["yield_assembly"] * want["yield_child_quality"]
                <= want["yield_tested_assembly"])
        for name in ("cost_die", "cost_test_self", "cost_test_assembly",
                     "cost_assembly", "cost_nre_self", "cost_scrap"):
            assert want[name] >= 0, (node.path, name)
        assert want["cost_re"] >= want["cost_re_self"]
        assert want["cost_nre"] >= want["cost_nre_self"]
    totals = exact[""]
    for name, value in totals.items():
        got = (report.breakdown[name] if name in report.breakdown
               else getattr(report, name))
        if value is None:
            assert got == math.inf, name
            continue
        scale = totals["cost_total"] if name == "scrap" else abs(value)
        assert error(got, value, scale) <= BOUND, name


@pytest.mark.parametrize("make", GENERATORS, ids=lambda m: m.__name__)
def test_the_rollup_is_within_its_bound_of_exact_arithmetic(make):
    for seed in range(200):
        check_exact(make(seed))


@pytest.mark.parametrize("edge", EDGES)
def test_the_rollup_on_range_edge_libraries_is_within_its_bound(edge):
    for seed in range(25):
        for make in GENERATORS:
            check_exact(at_edge(make(seed), edge))

