"""Minimal-basis integral tensors: values, symmetries, error handling."""

import numpy as np
import pytest

from conftest import H2_FCI_ENERGY
from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.geometry import Geometry, build_geometry
from hcbmeasure.integrals import (
    IntegralTensors,
    chemist_to_internal,
    internal_to_chemist,
    minimal_basis_integrals,
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
