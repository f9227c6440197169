"""Clifford conjugation and diagonalizing circuits for commuting groups."""

import numpy as np
import pytest

from hcbmeasure.groups import (
    CliffordCircuit,
    CommutingGroup,
    conjugate_pauli,
    diagonalized_members,
    diagonalizing_circuit,
)
from hcbmeasure.hcb import extract_hcb, hcb_to_groups
from hcbmeasure.paulis import PauliString

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense_string(string) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for qubit in range(string.n_qubits):
        out = np.kron(_MATS[string.letter(qubit)], out)
    return out


def _embed_one(n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(mat if k == qubit else _I, out)
    return out


def _embed_two(n: int, control: int, target: int, kind: str) -> np.ndarray:
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        c = (basis >> control) & 1
        t = (basis >> target) & 1
        if kind == "CNOT":
            image = basis ^ (c << target)
            out[image, basis] = 1.0
        else:  # CZ
            out[basis, basis] = -1.0 if c and t else 1.0
    return out


def _dense_circuit(circuit: CliffordCircuit) -> np.ndarray:
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for gate in circuit.gates:
        if gate.name == "H":
            u = _embed_one(n, gate.qubits[0], _H) @ u
        elif gate.name == "S":
            u = _embed_one(n, gate.qubits[0], _S) @ u
        elif gate.name == "X":
            u = _embed_one(n, gate.qubits[0], _X) @ u
        else:
            u = _embed_two(n, gate.qubits[0], gate.qubits[1], gate.name) @ u
    return u


def test_conjugate_pauli_matches_dense_unitary():
    rng = np.random.default_rng(5)
    n = 3
    for trial in range(30):
        circuit = CliffordCircuit(n)
        for _ in range(6):
            pick = rng.integers(0, 5)
            if pick == 0:
                circuit.add("H", int(rng.integers(0, n)))
            elif pick == 1:
                circuit.add("S", int(rng.integers(0, n)))
            elif pick == 2:
                circuit.add("X", int(rng.integers(0, n)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                circuit.add("CNOT" if pick == 3 else "CZ", int(a), int(b))
        u = _dense_circuit(circuit)
        string = PauliString(
            n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        image, sign = conjugate_pauli(string, circuit)
        assert sign in (1, -1)
        lhs = u @ _dense_string(string) @ u.conj().T
        rhs = sign * _dense_string(image)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_diagonal_group_needs_no_gates():
    group = CommutingGroup(2, (
        (PauliString.from_label(2, "Z0"), 1.0),
        (PauliString.from_label(2, "Z0 Z1"), -0.5),
    ), kind="diagonal_z")
    assert len(diagonalizing_circuit(group)) == 0


def test_single_x_needs_one_hadamard():
    group = CommutingGroup(1, ((PauliString.from_label(1, "X0"), 1.0),))
    circuit = diagonalizing_circuit(group)
    assert [g.name for g in circuit.gates] == ["H"]
    members = diagonalized_members(group, circuit)
    assert members[0][0].label() == "Z0"
    assert members[0][1] == 1.0


def test_hcb_group_diagonalization_certified(h4_tensors):
    decomposition = extract_hcb(h4_tensors)
    groups = hcb_to_groups(decomposition)
    for group in groups:
        circuit = diagonalizing_circuit(group)
        members = diagonalized_members(group, circuit)  # certifies diagonality
        assert len(members) == len(group.members)
        # signs folded into coefficients, images all Z-type
        for image, _coeff in members:
            assert image.is_diagonal()


def test_diagonalization_preserves_spectrum(h4_tensors):
    """Conjugation by the dense circuit reproduces the diagonalized sum."""
    decomposition = extract_hcb(h4_tensors)
    group = hcb_to_groups(decomposition)[1]
    circuit = diagonalizing_circuit(group)
    u = _dense_circuit(circuit)
    original = sum(c * _dense_string(s) for s, c in group.members)
    rotated = u @ original @ u.conj().T
    diag = sum(c * _dense_string(s) for s, c in diagonalized_members(group, circuit))
    assert np.max(np.abs(rotated - diag)) < 1e-10


def test_non_commuting_group_rejected():
    group = CommutingGroup(1, (
        (PauliString.from_label(1, "X0"), 1.0),
        (PauliString.from_label(1, "Z0"), 1.0),
    ))
    with pytest.raises(ValueError, match="commute"):
        diagonalizing_circuit(group)
    with pytest.raises(ValueError, match="commute"):
        group.check_commuting()
    group = CommutingGroup(2, tuple(
        (PauliString.from_label(2, label), 1.0) for label in ("Z0", "Z1", "X0", "X1")
    ), label="g")
    with pytest.raises(ValueError, match="^group 'g': Z0 and X0 do not commute$"):
        group.check_commuting()


def test_group_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        CommutingGroup(1, (), kind="sideways")


def test_group_to_sum_round_trip():
    group = CommutingGroup(2, (
        (PauliString.from_label(2, "Z0"), 0.25),
        (PauliString.from_label(2, "Z1"), -0.75),
    ))
    total = group.to_sum()
    assert total.coefficient(PauliString.from_label(2, "Z0")) == 0.25
    assert total.coefficient(PauliString.from_label(2, "Z1")) == -0.75


def test_circuit_add_validates_qubits():
    circuit = CliffordCircuit(2)
    with pytest.raises(ValueError):
        circuit.add("H", 5)
    with pytest.raises(ValueError):
        circuit.add("T", 0)
