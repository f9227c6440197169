"""Shared fixtures: expensive systems built once per session."""

import numpy as np
import pytest

from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.geometry import build_geometry
from hcbmeasure.integrals import minimal_basis_integrals
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
