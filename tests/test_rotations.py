"""Orbital rotations: Givens factors, pairing graphs, integral transforms."""

import numpy as np
import pytest
from conftest import tensor_gap

from hcbmeasure.rotations import (
    OrbitalRotation,
    PairingGraph,
    distance_ranked_matchings,
    givens_factorize,
    givens_matrix,
    givens_rotation,
    graph_rotation,
    identity_rotation,
    parse_graph,
    perfect_matchings,
    random_orthogonal_rotation,
    rotate_integrals,
)


def test_givens_zero_angle_is_identity():
    assert np.allclose(givens_matrix(3, 0, 1, 0.0), np.eye(3))


def test_givens_quarter_turn_entries():
    m = givens_matrix(2, 0, 1, np.pi / 2)
    s = 1.0 / np.sqrt(2.0)
    assert abs(m[0, 0] - s) < 1e-15
    assert abs(m[1, 1] - s) < 1e-15
    assert abs(abs(m[0, 1]) - s) < 1e-15
    assert abs(m[0, 1] + m[1, 0]) < 1e-15  # antisymmetric off-diagonal pair
    assert np.allclose(m @ m.T, np.eye(2), atol=1e-15)


def test_rotation_composition_and_inverse():
    r = givens_rotation(4, 0, 2, 0.3)
    rt = r.transpose()
    prod = r.matrix @ rt.matrix
    assert np.allclose(prod, np.eye(4), atol=1e-14)


def test_graph_rotation_blocks(h4_graphs):
    g1, g2, _ = h4_graphs
    m1 = graph_rotation(g1).matrix
    # (0,1) and (2,3) blocks rotated by pi/2 -> equal-weight mixing
    s = 1.0 / np.sqrt(2.0)
    for p, q in ((0, 1), (2, 3)):
        assert abs(abs(m1[p, q]) - s) < 1e-14
        assert abs(abs(m1[p, p]) - s) < 1e-14
    assert m1[0, 2] == 0.0 and m1[1, 3] == 0.0
    m2 = graph_rotation(g2).matrix
    assert abs(abs(m2[0, 3]) - s) < 1e-14
    assert abs(abs(m2[1, 2]) - s) < 1e-14


def test_empty_graph_gives_identity():
    rot = graph_rotation(PairingGraph(4, ()))
    assert np.allclose(rot.matrix, np.eye(4))


def test_overlapping_edges_rejected():
    with pytest.raises(ValueError):
        PairingGraph(4, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        PairingGraph(4, ((0, 4),))
    with pytest.raises(ValueError):
        PairingGraph(4, ((2, 2),))


def test_parse_graph():
    g = parse_graph("0-1, 2-3", 4)
    assert g.edges == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        parse_graph("0-9", 4)


def test_random_orthogonal_determinism_and_orthogonality():
    a = random_orthogonal_rotation(5, seed=7)
    b = random_orthogonal_rotation(5, seed=7)
    c = random_orthogonal_rotation(5, seed=8)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert np.max(np.abs(a.matrix @ a.matrix.T - np.eye(5))) < 1e-10
    assert abs(abs(np.linalg.det(a.matrix)) - 1.0) < 1e-10


def test_perfect_matchings_count():
    m4 = perfect_matchings(4)
    assert len(m4) == 3
    assert set(m4) == {
        ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))}
    assert len(perfect_matchings(6)) == 15
    with pytest.raises(ValueError):
        perfect_matchings(3)


def test_distance_ranked_matchings_h6(h6_distances):
    graphs = distance_ranked_matchings(h6_distances, 5)
    assert [g.edges for g in graphs] == [
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1), (2, 4), (3, 5)),
        ((0, 1), (2, 5), (3, 4)),
        ((0, 2), (1, 3), (4, 5)),
        ((0, 3), (1, 2), (4, 5)),
    ]


def test_rotate_integrals_identity(h4_tensors):
    rotated = rotate_integrals(h4_tensors, identity_rotation(4))
    assert tensor_gap(h4_tensors, rotated) < 1e-14


def test_rotate_integrals_round_trip(h4_tensors):
    r = random_orthogonal_rotation(4, seed=3)
    back = rotate_integrals(rotate_integrals(h4_tensors, r), r.transpose())
    assert tensor_gap(h4_tensors, back) < 1e-10


def test_rotate_integrals_group_action(h4_tensors):
    ra = random_orthogonal_rotation(4, seed=1)
    rb = random_orthogonal_rotation(4, seed=2)
    once = rotate_integrals(rotate_integrals(h4_tensors, ra), rb)
    both = rotate_integrals(h4_tensors, rb.matrix @ ra.matrix)
    assert tensor_gap(once, both) < 1e-10


def test_rotation_preserves_spectrum(h2_tensors):
    from hcbmeasure.encoding import build_qubit_hamiltonian
    from hcbmeasure.simulator import ground_state

    r = random_orthogonal_rotation(2, seed=5)
    e0, _ = ground_state(build_qubit_hamiltonian(h2_tensors, "interleaved"), 2)
    e1, _ = ground_state(
        build_qubit_hamiltonian(
            rotate_integrals(h2_tensors, r), "interleaved"), 2)
    assert abs(e0 - e1) < 1e-9


def test_rotation_preserves_eightfold_symmetry(h4_tensors):
    r = random_orthogonal_rotation(4, seed=9)
    g = rotate_integrals(h4_tensors, r).two_body
    chem = np.einsum("ikjl->ijkl", g)
    assert np.max(np.abs(chem - chem.transpose(1, 0, 2, 3))) < 1e-12
    assert np.max(np.abs(chem - chem.transpose(2, 3, 0, 1))) < 1e-12


def test_givens_factorize_round_trip():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    factors, signs = givens_factorize(q)
    recon = np.diag(signs)
    for p, qq, theta in factors:
        assert 0 <= p < qq < 5
        recon = givens_matrix(5, p, qq, theta) @ recon
    assert np.max(np.abs(recon - q)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotation_rejects_non_finite_entries(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="^rotation matrix must be finite$"):
        OrbitalRotation(matrix)


def test_givens_factorize_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        givens_factorize(np.ones((3, 3)))
