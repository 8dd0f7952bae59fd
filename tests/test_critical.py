"""Critical-point search, classification and admissibility checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompath import (
    CriticalPointSet,
    CustomPotential,
    DoubleWell1D,
    NoCriticalPointsError,
    Quadratic,
    TripleWell,
    check_admissibility,
    classify_point,
    find_critical_points,
)
from ompath.critical import MERGE_TOL, _distinct_in_box, _newton_batch
from ompath.experiments import TRIPLE_WELL_NAMED, critical_index, named_points, write_json
from test_flow import CountingTripleWell

SQ2 = np.sqrt(2.0)
SADDLES = np.array(
    [
        [(2.0 - SQ2) / 6.0, (2.0 + SQ2) / 6.0],
        [(2.0 + SQ2) / 6.0, (2.0 - SQ2) / 6.0],
    ]
)
WELLS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestTripleWellRecovery:
    def test_exactly_five_points(self, cps_tw):
        assert len(cps_tw) == 5
        assert sum(c.index == 0 for c in cps_tw) == 3
        assert sum(c.index == 1 for c in cps_tw) == 2

    def test_well_locations(self, cps_tw):
        for w in WELLS:
            _, d = cps_tw.nearest(w)
            assert d < 1e-8

    def test_saddle_locations_to_1e8(self, cps_tw):
        for s in SADDLES:
            i, d = cps_tw.nearest(s)
            assert np.all(np.abs(cps_tw[i].location - s) < 1e-8)

    def test_saddle_value(self, cps_tw):
        for s in SADDLES:
            i, _ = cps_tw.nearest(s)
            assert abs(cps_tw[i].value - 2.0 / 27.0) < 1e-10

    def test_laplacian_values(self, cps_tw):
        expected = {(0.0, 0.0): 4.0, (1.0, 0.0): 8.0, (0.0, 1.0): 8.0}
        for loc, lap in expected.items():
            i, _ = cps_tw.nearest(np.array(loc))
            assert abs(cps_tw[i].laplacian - lap) < 1e-8
        for s in SADDLES:
            i, _ = cps_tw.nearest(s)
            assert abs(cps_tw[i].laplacian) < 1e-8

    def test_residuals_tiny(self, cps_tw):
        assert all(c.residual <= 1e-10 for c in cps_tw)


class TestOtherPotentials:
    def test_double_well_1d(self):
        cps = find_critical_points(DoubleWell1D(), [(-2.0, 2.0)], 20)
        locs = sorted(float(c.location[0]) for c in cps)
        np.testing.assert_allclose(locs, [-1.0, 0.0, 1.0], atol=1e-10)
        idx = {round(float(c.location[0])): c.index for c in cps}
        assert idx[-1] == 0 and idx[0] == 1 and idx[1] == 0

    def test_quadratic_single_minimum(self):
        cps = find_critical_points(Quadratic(2), ((-1, 1), (-1, 1)), 8)
        assert len(cps) == 1
        assert cps[0].index == 0
        np.testing.assert_allclose(cps[0].location, 0.0, atol=1e-12)

    def test_empty_box_raises(self, tw):
        with pytest.raises(NoCriticalPointsError):
            find_critical_points(tw, ((5.0, 6.0), (5.0, 6.0)), 5)

    def test_bad_box_rejected(self, tw):
        with pytest.raises(ValueError):
            find_critical_points(tw, ((1.0, -1.0), (0.0, 1.0)), 5)
        with pytest.raises(ValueError):
            find_critical_points(tw, ((0.0, 1.0),), 5)
        with pytest.raises(ValueError):
            find_critical_points(tw, ((-1.0, 1.0), (-1.0, 1.0)), 1)


def _distinct_in_box_per_seed(xs, converged, box):
    """The per-seed merge loop of find_critical_points before it became an
    array greedy, frozen as the oracle."""
    found = []
    for x, ok in zip(xs, converged):
        if not ok:
            continue
        if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
            continue
        if any(np.linalg.norm(x - y) <= MERGE_TOL for y in found):
            continue
        found.append(x)
    return found


def _awkward_seeds(p, box, grid, rng):
    """Newton's end points from a seed grid, plus exact and near duplicates
    (inside and outside MERGE_TOL, and a chain whose third link is further
    than MERGE_TOL from the first), points on and beyond the box, and
    converged flags turned off, in shuffled order."""
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.dim)
    xs, converged = _newton_batch(p, seeds)
    base = xs[converged][:: max(1, int(converged.sum()) // 20)]
    unit = rng.standard_normal(base.shape)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    extra = [base.copy()]
    for r in (1e-9, 0.5 * MERGE_TOL, 0.8 * MERGE_TOL, 1.6 * MERGE_TOL, 3.0 * MERGE_TOL):
        extra.append(base + r * unit)
    edge = base.copy()
    edge[:, 0] = box[0, 1]
    beyond = base.copy()
    beyond[::2, -1] = box[-1, 0] - 0.1
    beyond[1::2, -1] = box[-1, 1] + 0.1
    xs = np.concatenate([xs, *extra, edge, beyond])
    converged = np.concatenate([converged, np.ones(len(xs) - len(converged), dtype=bool)])
    converged[rng.random(len(xs)) < 0.1] = False
    order = rng.permutation(len(xs))
    return xs[order], converged[order]


class TestMergeOracle:
    @pytest.mark.parametrize(
        "p, box, grid",
        [
            (TripleWell(), ((-0.5, 1.5), (-0.5, 1.5)), 40),
            (DoubleWell1D(), ((-2.0, 2.0),), 20),
            (Quadratic(3), ((-1.0, 1.0),) * 3, 6),
        ],
        ids=["triple-well", "double-well-1d", "quadratic-3"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_greedy_matches_per_seed_loop(self, p, box, grid, seed):
        box = np.asarray(box, dtype=float)
        xs, converged = _awkward_seeds(p, box, grid, np.random.default_rng(seed))
        want = _distinct_in_box_per_seed(xs, converged, box)
        got = _distinct_in_box(xs, converged, box)
        assert len(want) > 1
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestClassification:
    def test_classify_saddle(self, tw):
        c = classify_point(tw, SADDLES[1])
        assert c.index == 1
        assert c.eigenvalues[0] < 0 < c.eigenvalues[1]

    def test_classify_minimum(self, tw):
        c = classify_point(tw, np.array([0.0, 0.0]))
        assert c.index == 0 and np.all(c.eigenvalues > 0)


class TestAdmissibility:
    def test_triple_well_admissible(self, tw, cps_tw):
        rep = check_admissibility(tw, cps_tw, 3.0)
        assert rep.admissible
        assert rep.min_abs_eigenvalue > 1.0  # nondegenerate spectrum
        assert rep.coercivity_inf > 1.0  # |grad V| grows like |x|^5

    def test_needs_points(self, tw):
        with pytest.raises(ValueError):
            check_admissibility(tw, CriticalPointSet([]), 3.0)


class TestNamedPoints:
    def test_coordinates_without_kernel_calls(self):
        p = CountingTripleWell()
        names = named_points(p)
        assert all(n == 0 for n in p.calls.values())
        assert list(names) == list(TRIPLE_WELL_NAMED)
        for k, v in TRIPLE_WELL_NAMED.items():
            assert names[k].tobytes() == np.array(v).tobytes()

    @pytest.mark.parametrize(
        "p, names",
        [
            (DoubleWell1D(), ["Mminus", "S", "Mplus"]),
            (CustomPotential(1, lambda x: 0.5 * x @ x, lambda x: x), []),
            (Quadratic(1), []),
        ],
        ids=["double-well-1d", "custom-1d", "quadratic-1d"],
    )
    def test_names_come_from_the_class(self, p, names):
        assert list(named_points(p)) == names

    def test_lookup_is_checked(self, tw, cps_tw):
        m0 = critical_index(cps_tw, "M0", tw)
        assert np.linalg.norm(cps_tw[m0].location) <= 1e-6
        without_m0 = CriticalPointSet([c for i, c in enumerate(cps_tw) if i != m0])
        with pytest.raises(ValueError, match="not a critical point"):
            critical_index(without_m0, "M0", tw)


# coordinates of any kind, the non-finite ones drawn often
_COORDS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats())


class TestCriticalIndex:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_token_names_a_critical_point_or_raises(self, tw, cps_tw, data):
        kind = data.draw(st.sampled_from(["name", "near", "coordinates", "word"]))
        if kind == "name":
            token = data.draw(st.sampled_from(sorted(TRIPLE_WELL_NAMED)))
            x = np.array(TRIPLE_WELL_NAMED[token])
        elif kind == "near":
            # within 1e-6 of a critical point: |offset| < sqrt(2) * 7e-7
            k = data.draw(st.integers(0, len(cps_tw) - 1))
            offset = data.draw(st.lists(st.floats(-7e-7, 7e-7), min_size=2, max_size=2))
            x = cps_tw[k].location + np.array(offset)
            token = ",".join(repr(float(v)) for v in x)
        elif kind == "coordinates":
            x = np.array(data.draw(st.lists(_COORDS, min_size=2, max_size=2)))
            token = ",".join(repr(float(v)) for v in x)
        else:
            # no name, and without a comma no point of the plane: "M3", "nan", "1e0"
            words = st.text("MSabnfi0123e.", min_size=1, max_size=4)
            token = data.draw(words.filter(lambda t: t not in TRIPLE_WELL_NAMED))
            x = np.full(2, np.nan)
        # a distance to a point near the largest floats overflows to inf
        with np.errstate(over="ignore"):
            close = [i for i, c in enumerate(cps_tw) if np.linalg.norm(c.location - x) <= 1e-6]
            assert len(close) <= 1 and (kind != "near" or close == [k])
            if close:
                assert critical_index(cps_tw, token, tw) == close[0]
            else:
                with pytest.raises(ValueError):
                    critical_index(cps_tw, token, tw)


class TestSerialization:
    def test_json_roundtrip(self, cps_tw, tmp_path):
        target = write_json(tmp_path, "critical_points.json", [c.to_dict() for c in cps_tw])
        with open(target) as f:
            back = json.load(f)
        # every field comes back, floats bitwise
        assert back == [c.to_dict() for c in cps_tw]

    def test_nearest(self, cps_tw):
        i, d = cps_tw.nearest(np.array([0.05, 0.0]))
        np.testing.assert_allclose(cps_tw[i].location, [0.0, 0.0], atol=1e-10)
        assert abs(d - 0.05) < 1e-12
