"""Geometry construction and XYZ text round-trips."""

import numpy as np
import pytest

from hcbmeasure.geometry import Geometry, build_geometry, from_xyz, to_xyz


def test_line_spacing():
    geom = build_geometry(4, 1.5, "line")
    coords = np.asarray(geom.coordinates)
    gaps = np.linalg.norm(np.diff(coords, axis=0), axis=1)
    assert np.allclose(gaps, 1.5)


def test_ring_neighbor_spacing():
    geom = build_geometry(6, 1.2, "ring")
    coords = np.asarray(geom.coordinates)
    for i in range(6):
        gap = np.linalg.norm(coords[i] - coords[(i + 1) % 6])
        assert gap == pytest.approx(1.2, abs=1e-12)


def test_square_shape():
    geom = build_geometry(4, 1.0, "square")
    distances = geom.distances()
    assert np.array_equal(distances, distances.T)
    assert not np.any(np.diag(distances))
    # 2x2 grid: four unit nearest-neighbor distances, diagonal sqrt(2)
    dists = sorted(distances[np.triu_indices(4, 1)])
    assert np.allclose(dists, [1, 1, 1, 1, np.sqrt(2), np.sqrt(2)])


def test_random_deterministic_and_spaced():
    a = build_geometry(6, 1.5, "random", seed=42)
    b = build_geometry(6, 1.5, "random", seed=42)
    assert np.array_equal(a.coordinates, b.coordinates)
    coords = np.asarray(a.coordinates)
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.linalg.norm(coords[i] - coords[j]) >= 0.8


def test_random_seeds_differ():
    a = build_geometry(4, 1.5, "random", seed=1)
    b = build_geometry(4, 1.5, "random", seed=2)
    assert not np.allclose(a.coordinates, b.coordinates)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_geometry(1, 1.0, "line")
    with pytest.raises(ValueError):
        build_geometry(4, -1.0, "line")
    for spacing in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^spacing must be finite and positive, got "):
            build_geometry(4, spacing, "random", seed=0)
    with pytest.raises(ValueError):
        build_geometry(4, 0.1, "line")  # unphysically tight
    with pytest.raises(ValueError):
        build_geometry(3, 1.0, "square")  # odd count
    with pytest.raises(ValueError):
        build_geometry(4, 1.0, "helix")


def test_xyz_round_trip():
    geom = build_geometry(5, 1.31, "ring")
    back = from_xyz(to_xyz(geom))
    assert back.symbols == geom.symbols
    assert np.allclose(back.coordinates, geom.coordinates, atol=1e-10)


def test_from_xyz_with_header_and_blank_lines():
    text = "2\ncomment line\nH 0.0 0.0 0.0\nH 0.0 0.0 0.7414\n\n"
    geom = from_xyz(text)
    assert len(geom.symbols) == 2
    assert geom.coordinates[1][2] == pytest.approx(0.7414)


def test_geometry_shape_validation():
    with pytest.raises(ValueError):
        Geometry(("H", "H"), np.zeros((3, 3)))


def test_geometry_names_the_first_pair_of_atoms_too_close():
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.05, 0.0, 0.0], [1.0, 0.08, 0.0]])
    with pytest.raises(ValueError, match=r"atoms 1 and 2 are 0\.050 A apart \(<= 0\.1 A\)"):
        Geometry(("H",) * 4, coords)
