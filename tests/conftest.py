"""Shared fixtures: expensive systems built once per session."""

import numpy as np
import pytest

from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.geometry import build_geometry
from hcbmeasure.integrals import IntegralTensors, minimal_basis_integrals
from hcbmeasure.rotations import PairingGraph, graph_rotation
from hcbmeasure.simulator import ground_state

# Lowest eigenvalue of the 2-electron sector at 0.7414 A, STO-3G, frozen
# from an independent determinant-CI evaluation (tests/data/ fixture docs).
H2_FCI_ENERGY = -1.137270174661


def tensor_gap(a, b) -> float:
    """Largest absolute difference between two IntegralTensors."""
    return max(float(np.max(np.abs(a.one_body - b.one_body))),
               float(np.max(np.abs(a.two_body - b.two_body))),
               abs(a.e_nuc - b.e_nuc))


def full_vector_expectation(state, string) -> float:
    """<P> as phase * <psi[b ^ x] | (-1)^|b & z| psi[b]> over all 2^n basis states."""
    amps = state.amplitudes
    idx = np.arange(len(amps))
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & string.z_mask) & 1)
    phase = 1j ** ((string.x_mask & string.z_mask).bit_count() % 4)
    return float((phase * np.vdot(amps[idx ^ string.x_mask], signs * amps)).real)


def random_tensors(n, seed, e_nuc=0.0):
    """Random real tensors with the full 8-fold two-body symmetry."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2
    chem = rng.normal(size=(n, n, n, n)) * 0.1
    chem = chem + chem.transpose(1, 0, 2, 3)
    chem = chem + chem.transpose(0, 1, 3, 2)
    chem = chem + chem.transpose(2, 3, 0, 1)
    return IntegralTensors(n, h, np.einsum("ijkl->ikjl", chem), e_nuc)


@pytest.fixture(scope="session")
def h2_geometry():
    return build_geometry(2, 0.7414, "line")


@pytest.fixture(scope="session")
def h2_tensors(h2_geometry):
    return minimal_basis_integrals(h2_geometry)


@pytest.fixture(scope="session")
def h2_natural_tensors(h2_geometry):
    return minimal_basis_integrals(h2_geometry, mode="hartree-fock")


@pytest.fixture(scope="session")
def h2_operator(h2_tensors):
    return build_qubit_hamiltonian(h2_tensors, "interleaved")


@pytest.fixture(scope="session")
def h2_ground(h2_operator):
    return ground_state(h2_operator, 2)


@pytest.fixture(scope="session")
def h4_geometry():
    return build_geometry(4, 1.5, "line")


@pytest.fixture(scope="session")
def h4_tensors(h4_geometry):
    return minimal_basis_integrals(h4_geometry)


@pytest.fixture(scope="session")
def h4_operator(h4_tensors):
    return build_qubit_hamiltonian(h4_tensors, "interleaved")


@pytest.fixture(scope="session")
def h4_ground(h4_operator):
    return ground_state(h4_operator, 4)


@pytest.fixture(scope="session")
def h4_graphs():
    return (
        PairingGraph(4, ((0, 1), (2, 3))),
        PairingGraph(4, ((0, 3), (1, 2))),
        PairingGraph(4, ((0, 2), (1, 3))),
    )


@pytest.fixture(scope="session")
def h4_rotations(h4_graphs):
    return [graph_rotation(g) for g in h4_graphs]


@pytest.fixture(scope="session")
def h6_geometry():
    return build_geometry(6, 1.5, "line")


@pytest.fixture(scope="session")
def h6_tensors(h6_geometry):
    return minimal_basis_integrals(h6_geometry)


@pytest.fixture(scope="session")
def h6_operator(h6_tensors):
    return build_qubit_hamiltonian(h6_tensors, "interleaved")


@pytest.fixture(scope="session")
def h6_ground(h6_operator):
    return ground_state(h6_operator, 6)


@pytest.fixture(scope="session")
def h6_distances(h6_geometry):
    coords = np.asarray(h6_geometry.coordinates)
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=-1))
