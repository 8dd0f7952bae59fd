"""Discrete path container: construction, immutability of endpoints, I/O."""

import csv
import io

import numpy as np
import pytest

from ompath import DiscretePath
from ompath.experiments import write_text
from ompath.paths import interpolate


def test_from_waypoints_basic():
    path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 2.0]], 10)
    assert path.M == 10
    assert path.dim == 2
    assert path.h == pytest.approx(0.1)
    np.testing.assert_array_equal(path.left, [0.0, 0.0])
    np.testing.assert_array_equal(path.right, [1.0, 2.0])
    # straight segment: nodes sit on the line
    np.testing.assert_allclose(path.nodes[:, 1], 2.0 * path.nodes[:, 0], atol=1e-15)


def test_from_waypoints_equal_parameter_knots():
    path = DiscretePath.from_waypoints([[0.0], [1.0], [0.0]], 100)
    assert path.nodes[50, 0] == pytest.approx(1.0)  # middle waypoint at s=1/2


def test_with_interior_preserves_endpoints_bitwise():
    path = DiscretePath.from_waypoints([[0.3, -0.7], [1.1, 0.2]], 8)
    new = path.with_interior(np.zeros((7, 2)))
    assert new.nodes[0].tobytes() == path.nodes[0].tobytes()
    assert new.nodes[-1].tobytes() == path.nodes[-1].tobytes()
    np.testing.assert_array_equal(new.interior, 0.0)


def test_with_interior_shape_check():
    path = DiscretePath.from_waypoints([[0.0], [1.0]], 5)
    with pytest.raises(ValueError):
        path.with_interior(np.zeros((3, 1)))


def test_times_and_interval():
    path = DiscretePath(np.zeros((5, 1)), a=-2.0, b=2.0)
    np.testing.assert_allclose(path.times, [-2, -1, 0, 1, 2])
    assert path.h == 1.0


def test_one_dimensional_input_promoted():
    path = DiscretePath(np.linspace(0, 1, 6))
    assert path.dim == 1
    assert path.nodes.shape == (6, 1)


def test_validation():
    with pytest.raises(ValueError):
        DiscretePath(np.zeros((2, 1)))  # too few nodes
    with pytest.raises(ValueError):
        DiscretePath(np.zeros((5, 1)), a=1.0, b=0.0)
    with pytest.raises(ValueError):
        DiscretePath.from_waypoints([[0.0, 0.0]], 10)


def test_csv_roundtrip_exact():
    rng = np.random.default_rng(1)
    path = DiscretePath(rng.standard_normal((9, 3)), a=-1.5, b=2.5)
    data = np.array(list(csv.reader(io.StringIO(path.to_csv())))[1:], dtype=float)
    np.testing.assert_array_equal(data[:, 1:], path.nodes)  # %.17g is lossless
    assert data[0, 0] == path.a and data[-1, 0] == path.b


def test_csv_header(tmp_path):
    path = DiscretePath.from_waypoints([[0.0, 0.0], [1.0, 1.0]], 4)
    target = write_text(tmp_path / "new", "p.csv", path.to_csv())
    with open(target, "rb") as f:
        data = f.read()
    assert data == path.to_csv().encode()  # the csv module's \r\n kept
    lines = data.decode().splitlines()
    assert lines[0] == "s,x1,x2"
    assert len(lines) == 1 + 5


def test_interpolate_holds_the_end_rows_beyond_the_knots():
    # padding a path to a longer interval keeps its endpoints bitwise
    values = np.random.default_rng(1).standard_normal((8, 2))
    out = interpolate(np.linspace(-6.0, 6.0, 15), np.linspace(-3.0, 3.0, 8), values)
    assert out[:4].tobytes() == np.repeat(values[:1], 4, axis=0).tobytes()
    assert out[-4:].tobytes() == np.repeat(values[-1:], 4, axis=0).tobytes()
