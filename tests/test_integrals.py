"""Minimal-basis integral tensors: values, symmetries, error handling."""

import hashlib

import numpy as np
import pytest

import hcbmeasure.integrals as integrals
from conftest import H2_FCI_ENERGY
from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.geometry import Geometry, build_geometry
from hcbmeasure.integrals import (
    BOHR_PER_ANGSTROM,
    SCF_COMMUTATOR_TOL,
    IntegralTensors,
    _ao_integrals,
    _fock,
    _scf_iterations,
    chemist_to_internal,
    internal_to_chemist,
    lowdin_matrix,
    minimal_basis_integrals,
    restricted_hartree_fock,
)
from hcbmeasure.simulator import ground_state

# Isolated-atom STO-3G energy <T+V> of the normalized contracted s function,
# frozen from an independent closed-form evaluation (hyp1f1-based).
ISOLATED_ATOM_ENERGY = -0.46658184955727566


def test_h2_fci_anchor(h2_ground):
    energy, _ = h2_ground
    assert energy == pytest.approx(H2_FCI_ENERGY, abs=1e-9)


def test_isolated_atom_limit():
    # two hydrogens far apart: h_00 is the one-atom energy plus the
    # monopole attraction -1/R to the distant nucleus (exact for an
    # s-symmetric charge cloud), so adding 1/R recovers the atom limit
    tensors = minimal_basis_integrals(build_geometry(2, 50.0, "line"))
    r_bohr = 50.0 / 0.529177210903
    assert tensors.one_body[0, 0] + 1.0 / r_bohr == pytest.approx(
        ISOLATED_ATOM_ENERGY, abs=1e-8)
    assert abs(tensors.one_body[0, 1]) < 1e-6


def test_mirror_symmetry_h4(h4_tensors):
    perm = np.array([3, 2, 1, 0])
    h = h4_tensors.one_body
    g = h4_tensors.two_body
    assert np.allclose(h[np.ix_(perm, perm)], h, atol=1e-12)
    assert np.allclose(g[np.ix_(perm, perm, perm, perm)], g, atol=1e-12)


# the 8-fold symmetry of a real (ij|kl): the seven index permutations
# besides the identity
ERI_PERMUTATIONS = [(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]


@pytest.mark.parametrize("shape,seed", [("line", None), ("ring", None), ("random", 7)])
def test_ao_integrals_are_exactly_symmetric(shape, seed):
    coords = build_geometry(5, 1.1, shape, seed).coordinates * BOHR_PER_ANGSTROM
    S, T, V, eri = _ao_integrals(coords, np.ones(5))
    for matrix in (S, T, V):
        assert np.array_equal(matrix, matrix.T)
    assert len(np.unique(eri)) > 1
    for perm in ERI_PERMUTATIONS:
        assert np.array_equal(eri, eri.transpose(perm)), perm


# sha256 of the one_body, two_body and e_nuc bytes (Lowdin orbitals) off the
# line, where the AO arrays are most sensitive to the rounding of r^2
PINNED_TENSORS = [
    ((4, 1.0, "square", None),
     "c23583224b2dcc415e55bbb55738d6648a9d40c6a35d61a8360cea0743d0796d"),
    ((6, 1.5, "ring", None),
     "2520e5b36375fa816f6c0489bb82f17bbf34a0fc72c4c335884e833efaa33c85"),
    ((6, 1.5, "random", 1),
     "0c8c1695a11b4669a9d6ae7152ff8dd9deb815804f952e70f5b04083f6b3c081"),
]


@pytest.mark.parametrize("system,digest", PINNED_TENSORS,
                         ids=["h4-square", "h6-ring", "h6-random-seed1"])
def test_tensors_are_pinned(system, digest):
    tensors = minimal_basis_integrals(build_geometry(*system))
    sha = hashlib.sha256()
    for array in (tensors.one_body, tensors.two_body, np.array([tensors.e_nuc])):
        sha.update(array.tobytes())
    assert sha.hexdigest() == digest


def test_nuclear_repulsion_h2(h2_tensors):
    bohr = 0.7414 / 0.529177210903
    assert h2_tensors.e_nuc == pytest.approx(1.0 / bohr, abs=1e-12)


def test_rejects_non_hydrogen():
    geom = Geometry(("H", "He"), np.array([[0.0, 0, 0], [0, 0, 1.0]]))
    with pytest.raises(ValueError, match="[Hh]ydrogen"):
        minimal_basis_integrals(geom)


def test_rejects_near_singular_overlap():
    # the geometry type already rejects overlapping nuclei; the
    # orthogonalizer's own eigenvalue guard is exercised directly
    from hcbmeasure.integrals import lowdin_matrix

    with pytest.raises(ValueError):
        Geometry(("H", "H"), np.array([[0.0, 0, 0], [0, 0, 1e-5]]))
    singular = np.array([[1.0, 1.0 - 1e-10], [1.0 - 1e-10, 1.0]])
    with pytest.raises(ValueError, match="singular|eigenvalue"):
        lowdin_matrix(singular)


def test_tensor_invariants_enforced():
    with pytest.raises(ValueError):
        IntegralTensors(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4))
    bad_g = np.zeros((2,) * 4)
    bad_g[0, 0, 0, 1] = 0.5  # breaks the real-orbital symmetry set
    with pytest.raises(ValueError):
        IntegralTensors(2, np.zeros((2, 2)), bad_g)
    with pytest.raises(ValueError):
        IntegralTensors(3, np.zeros((2, 2)), np.zeros((2,) * 4))


def test_chemist_internal_conversion_is_involution():
    rng = np.random.default_rng(5)
    eri = rng.normal(size=(3,) * 4)
    assert np.array_equal(internal_to_chemist(chemist_to_internal(eri)), eri)


def test_hartree_fock_mode_same_spectrum(h2_tensors, h2_natural_tensors, h2_ground):
    energy, _ = h2_ground
    op = build_qubit_hamiltonian(h2_natural_tensors, "interleaved")
    hf_energy, _ = ground_state(op, 2)
    assert hf_energy == pytest.approx(energy, abs=1e-9)
    assert h2_natural_tensors.basis != h2_tensors.basis


def test_hartree_fock_mode_h2_symmetric_split():
    # for H2 the canonical orbitals are the symmetric/antisymmetric pair,
    # so the one-body matrix comes out diagonal
    tensors = minimal_basis_integrals(build_geometry(2, 0.7414, "line"),
                                      mode="hartree-fock")
    assert abs(tensors.one_body[0, 1]) < 1e-10


# electronic RHF energies (Ha) of random clusters at 1.5 A on which the
# damped SCF flips between two densities; a 1.0 Ha level shift reaches these
# (a 0.5 Ha one stops H8 seed 7 at a higher solution, -8.40922)
LEVEL_SHIFTED_SCF = [((4, 1), -3.2129482), ((6, 1), -6.1172391),
                     ((8, 1), -8.8711416), ((8, 7), -8.4134716)]


@pytest.mark.parametrize("cluster,energy", LEVEL_SHIFTED_SCF,
                         ids=["h4-seed1", "h6-seed1", "h8-seed1", "h8-seed7"])
def test_level_shifted_scf_converges_where_damping_oscillates(cluster, energy):
    n, seed = cluster
    geom = build_geometry(n, 1.5, "random", seed)
    S, T, V, eri = _ao_integrals(geom.coordinates * BOHR_PER_ANGSTROM, np.ones(n))
    hcore = T + V
    assert _scf_iterations(lowdin_matrix(S), hcore, eri, n // 2) is None
    C, got = restricted_hartree_fock(S, hcore, eri, n)
    assert got == pytest.approx(energy, abs=1e-7)
    density = 2.0 * C[:, :n // 2] @ C[:, :n // 2].T
    fock = _fock(density, hcore, eri)
    assert np.linalg.norm(fock @ density @ S - S @ density @ fock) <= SCF_COMMUTATOR_TOL
    assert np.allclose(C.T @ S @ C, np.eye(n), atol=1e-12)
    assert minimal_basis_integrals(geom, mode="hartree-fock").basis == "sto3g-rhf"


def test_level_shifted_scf_is_checked_and_can_still_fail(monkeypatch):
    """A level-shifted result above the commutator bound is rejected, and
    with both iterations cut short the error names them both."""
    geom = build_geometry(4, 1.5, "random", 1)
    monkeypatch.setattr(integrals, "SCF_COMMUTATOR_TOL", 1e-9)
    with pytest.raises(ValueError, match=r"^level-shifted SCF stopped at a non-stationary "
                                         r"density \(\|\|FDS - SDF\|\| = 1\.\d{3}e-05\)$"):
        minimal_basis_integrals(geom, mode="hartree-fock")
    monkeypatch.setattr(integrals, "SCF_MAX_ITER", 3)
    with pytest.raises(ValueError, match="^SCF did not converge in 3 iterations, "
                                         "damped or level-shifted$"):
        minimal_basis_integrals(geom, mode="hartree-fock")


# sha256 of the one_body, two_body and e_nuc bytes in canonical RHF orbitals,
# which the damped SCF converges on the line without the fallback
PINNED_HF_TENSORS = [
    ((2, 0.7414, "line"),
     "47cd3808b38d21c2487246989656b71a6ff271fbf9305a5162be30af080bad54"),
    ((4, 1.5, "line"),
     "61724981e2f80edf2f84361d4cd9d9edb2ca83abf38bae83c29ef6938f7a2858"),
]


@pytest.mark.parametrize("system,digest", PINNED_HF_TENSORS, ids=["h2", "h4-line"])
def test_hartree_fock_tensors_are_pinned(system, digest):
    tensors = minimal_basis_integrals(build_geometry(*system), mode="hartree-fock")
    sha = hashlib.sha256()
    for array in (tensors.one_body, tensors.two_body, np.array([tensors.e_nuc])):
        sha.update(array.tobytes())
    assert sha.hexdigest() == digest


def test_unknown_mode_rejected(h2_geometry):
    with pytest.raises(ValueError):
        minimal_basis_integrals(h2_geometry, mode="huckel")


@pytest.mark.parametrize("field,index,bad", [
    ("one_body", (0, 0), np.nan),
    ("one_body", (0, 1), np.inf),
    ("two_body", (0, 1, 0, 1), np.inf),
    ("two_body", (1, 1, 1, 1), np.nan),
])
def test_tensors_reject_non_finite_entries(field, index, bad):
    """Checked before the symmetry test, which would only warn on inf - inf."""
    arrays = {"one_body": np.eye(2), "two_body": np.zeros((2,) * 4)}
    arrays[field][index] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        IntegralTensors(2, arrays["one_body"], arrays["two_body"])


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_tensors_reject_non_finite_nuclear_energy(bad):
    with pytest.raises(ValueError, match="^e_nuc must be finite$"):
        IntegralTensors(1, np.eye(1), np.zeros((1,) * 4), bad)
