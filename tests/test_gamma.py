"""Limit functional on step paths and its comparison with finite-temperature runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompath import (
    BVStepPath,
    CriticalPoint,
    DiscretePath,
    GammaReport,
    compare_with_eps,
    eval_I,
    eval_I0,
    optimize_support,
)

TWO27 = 2.0 / 27.0


def _named(graph, names, *keys):
    return [graph.cps[graph.cps.nearest(names[k])[0]] for k in keys]


class TestBVStepPath:
    def test_dwell_durations(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        bv = BVStepPath(jump_times=[0.25, 0.75], values=[s1, m0, s2])
        np.testing.assert_allclose(bv.dwell_durations, [0.25, 0.5, 0.25])

    def test_validation(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        with pytest.raises(ValueError):
            BVStepPath(jump_times=[0.5], values=[s1, m0, s2])  # count mismatch
        with pytest.raises(ValueError):
            BVStepPath(jump_times=[0.7, 0.3], values=[s1, m0, s2])  # not increasing
        with pytest.raises(ValueError):
            BVStepPath(jump_times=[0.3, 0.7], values=[s1, m0, m0])  # repeated value
        with pytest.raises(ValueError):
            BVStepPath(jump_times=[1.0], values=[s1, m0])  # jump at the boundary


class TestEvalI0:
    def test_two_jump_route_closed_form(self, graph_tw, names_tw):
        # jump cost 2/27 + 2/27, dwell Laplacian 4 at the middle well only
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        for t1, t2 in ((0.2, 0.9), (0.4, 0.6), (0.01, 0.99)):
            rep = eval_I0(graph_tw, BVStepPath([t1, t2], [s1, m0, s2]))
            assert rep.jump_cost == pytest.approx(2 * TWO27, abs=2e-3)
            assert rep.laplacian_integral == pytest.approx(4.0 * (t2 - t1), abs=1e-8)
            assert rep.i0 == pytest.approx(2 * TWO27 - 4.0 * (t2 - t1), abs=2e-3)

    def test_exact_resum(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        rep = eval_I0(graph_tw, BVStepPath([0.3, 0.8], [s1, m0, s2]))
        assert rep.i0 == rep.jump_cost - rep.laplacian_integral  # exact identity

    def test_jump_cost_additivity(self, graph_tw, names_tw):
        s1, m0, s2, m1 = _named(graph_tw, names_tw, "S1", "M0", "S2", "M1")
        whole = eval_I0(graph_tw, BVStepPath([0.2, 0.5, 0.8], [m1, s1, m0, s2]))
        first = eval_I0(graph_tw, BVStepPath([0.5], [m1, s1]))
        second = eval_I0(graph_tw, BVStepPath([0.5], [s1, m0]))
        third = eval_I0(graph_tw, BVStepPath([0.5], [m0, s2]))
        assert whole.jump_cost == pytest.approx(
            first.jump_cost + second.jump_cost + third.jump_cost, abs=1e-12
        )

    def test_foreign_point_rejected(self, graph_tw, names_tw):
        s1, m0 = _named(graph_tw, names_tw, "S1", "M0")
        from ompath import classify_point, TripleWell

        stranger = classify_point(TripleWell(), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            eval_I0(graph_tw, BVStepPath([0.5], [s1, stranger]))

    def test_nan_point_rejected(self, graph_tw, names_tw):
        # a NaN location is at a NaN distance from every point: no match,
        # not the first point of the graph
        (s1,) = _named(graph_tw, names_tw, "S1")
        nan_point = CriticalPoint(np.array([np.nan, np.nan]), 0.0, 0.0, np.array([1.0, 1.0]), 0, 0.0)
        with pytest.raises(ValueError, match="must belong to the graph's node set"):
            eval_I0(graph_tw, BVStepPath([0.5], [s1, nan_point]))
        with pytest.raises(ValueError, match="must belong to the graph's node set"):
            eval_I0(graph_tw, BVStepPath([0.5], [nan_point, s1]))


class TestOptimizeSupport:
    def test_middle_well_takes_all_dwell(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        bv = optimize_support(graph_tw, s1, s2, [s1, m0, s2])
        durations = bv.dwell_durations
        assert durations[1] > 0.999  # essentially everything at the middle well
        rep = eval_I0(graph_tw, bv)
        assert rep.i0 == pytest.approx(2 * TWO27 - 4.0, abs=2e-3)

    def test_tied_maxima_split_dwell(self, graph_tw, names_tw):
        m1, s1, m0, s2, m2 = _named(graph_tw, names_tw, "M1", "S1", "M0", "S2", "M2")
        bv = optimize_support(graph_tw, m1, m2, [m1, s1, m0, s2, m2])
        d = bv.dwell_durations
        assert d[0] == pytest.approx(d[4], abs=1e-12)  # the two deep wells tie
        assert d[0] + d[4] > 0.999
        rep = eval_I0(graph_tw, bv)
        assert rep.i0 == pytest.approx(4 * TWO27 - 8.0, abs=4e-3)

    def test_sequence_endpoint_check(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        with pytest.raises(ValueError):
            optimize_support(graph_tw, s1, s2, [m0, s1, s2])
        with pytest.raises(ValueError):
            optimize_support(graph_tw, s1, s1, [s1])

    @settings(max_examples=100, deadline=None)
    @given(
        t1=st.floats(min_value=0.01, max_value=0.49),
        t2=st.floats(min_value=0.51, max_value=0.99),
    )
    def test_random_reallocations_never_beat_optimum(self, graph_tw, names_tw, t1, t2):
        # moving dwell time away from the maximal-Laplacian point cannot help
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        best = eval_I0(graph_tw, optimize_support(graph_tw, s1, s2, [s1, m0, s2]))
        other = eval_I0(graph_tw, BVStepPath([t1, t2], [s1, m0, s2]))
        assert best.i0 <= other.i0 + 1e-9


class TestCompareWithEps:
    def test_constant_degenerate_comparison(self, tw, graph_tw, names_tw):
        # a path resting at the middle well has I_eps = -Lap V = -4 exactly,
        # matching a zero-jump step path to quadrature precision
        (m0,) = _named(graph_tw, names_tw, "M0")
        path = DiscretePath(np.tile(m0.location, (101, 1)))
        rep = eval_I(tw, path, 1e-3)
        predicted = GammaReport(jump_cost=0.0, laplacian_integral=4.0)
        cmp = compare_with_eps((path, rep), predicted, 1e-3, support=BVStepPath([], [m0]))
        assert cmp.discrepancy <= 1e-6
        assert cmp.support_score == 1.0

    def test_support_score(self, tw, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        bv = BVStepPath([0.4, 0.6], [s1, m0, s2])
        path = DiscretePath(np.tile(m0.location, (101, 1)))
        rep = eval_I(tw, path, 1e-3)
        cmp = compare_with_eps((path, rep), eval_I0(graph_tw, bv), 1e-3, support=bv)
        assert cmp.support_score == 1.0
        far = DiscretePath(np.tile([5.0, 5.0], (101, 1)))
        cmp2 = compare_with_eps(
            (far, eval_I(tw, far, 1e-3)), eval_I0(graph_tw, bv), 1e-3, support=bv
        )
        assert cmp2.support_score == 0.0

    def test_report_serialization(self, graph_tw, names_tw):
        s1, m0, s2 = _named(graph_tw, names_tw, "S1", "M0", "S2")
        rep = eval_I0(graph_tw, BVStepPath([0.3, 0.7], [s1, m0, s2]))
        doc = rep.to_dict()
        assert doc["I0"] == rep.i0
        assert set(doc) == {"jump_cost", "laplacian_integral", "I0"}
