"""Clifford conjugation and diagonalizing circuits for commuting groups."""

import hashlib

import numpy as np
import pytest

from hcbmeasure.circuits import Circuit
from hcbmeasure.groups import (
    CommutingGroup,
    conjugate_pauli,
    diagonalized_members,
    diagonalizing_circuit,
)
from hcbmeasure.grouping import lf_grouping, rlf_grouping, si_grouping
from hcbmeasure.hcb import extract_hcb, hcb_to_groups, run_protocol
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.simulator import Statevector, apply_circuit

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _group(n: int, *terms: tuple[str, float], **kwargs) -> CommutingGroup:
    return CommutingGroup(
        PauliSum(n, {PauliString.from_label(n, label): c for label, c in terms}), **kwargs)


def _conjugate_one(string: PauliString, circuit: Circuit) -> tuple[PauliString, float]:
    """conjugate_pauli of one string: (image, sign)."""
    x, z, signs = conjugate_pauli(PauliSum(string.n_qubits, {string: 1.0}), circuit)
    return PauliString(string.n_qubits, int(x[0]), int(z[0])), float(signs[0])


def _diagonal_members(group, circuit) -> list[tuple[PauliString, float]]:
    """diagonalized_members as (image, folded coefficient) pairs."""
    z, signs = diagonalized_members(group, circuit)
    return [(PauliString(group.n_qubits, 0, image), sign * c)
            for image, sign, c in zip(z.tolist(), signs.tolist(), group.op.coeffs.tolist())]


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


def _dense_circuit(circuit: Circuit) -> np.ndarray:
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for gate in circuit.gates:
        if gate.name == "H":
            u = _embed_one(n, gate.qubits[0], _H) @ u
        elif gate.name == "S":
            u = _embed_one(n, gate.qubits[0], _S) @ u
        elif gate.name == "X":
            u = _embed_one(n, gate.qubits[0], _X) @ u
        elif gate.name == "Z":
            u = _embed_one(n, gate.qubits[0], _Z) @ u
        else:
            u = _embed_two(n, gate.qubits[0], gate.qubits[1], gate.name) @ u
    return u


def _random_circuit(rng, n, n_gates):
    circuit = Circuit(n)
    for _ in range(n_gates):
        pick = rng.integers(0, 5) if n > 1 else rng.integers(0, 3)
        if pick < 3:
            circuit.add(("H", "S", "X")[pick], int(rng.integers(0, n)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.add("CNOT" if pick == 3 else "CZ", int(a), int(b))
    return circuit


def test_conjugate_pauli_matches_dense_unitary():
    rng = np.random.default_rng(5)
    n = 3
    for trial in range(30):
        circuit = _random_circuit(rng, n, 6)
        u = _dense_circuit(circuit)
        string = PauliString(
            n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        image, sign = _conjugate_one(string, circuit)
        assert sign in (1, -1)
        lhs = u @ _dense_string(string) @ u.conj().T
        rhs = sign * _dense_string(image)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("name,qubits", [("H", (1,)), ("S", (1,)), ("X", (1,)), ("Z", (1,)),
                                          ("CNOT", (1, 0)), ("CZ", (0, 1))])
def test_conjugate_pauli_matches_each_dense_gate(name, qubits):
    circuit = Circuit(2)
    circuit.add(name, *qubits)
    u = _dense_circuit(circuit)
    for x in range(4):
        for z in range(4):
            string = PauliString(2, x, z)
            image, sign = _conjugate_one(string, circuit)
            lhs = u @ _dense_string(string) @ u.conj().T
            assert np.max(np.abs(lhs - sign * _dense_string(image))) < 1e-12


def _edge_gates(n):
    """Every gate on the first and last qubit, two-qubit gates both ways round."""
    circuit = Circuit(n)
    for q in {0, n - 1}:
        for name in ("H", "S", "X", "Z"):
            circuit.add(name, q)
    if n > 1:
        for name in ("CNOT", "CZ"):
            circuit.add(name, 0, n - 1)
            circuit.add(name, n - 1, 0)
    return circuit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_clifford_matches_the_dense_circuit(n):
    """apply_circuit on Clifford gate lists, against dense matrices."""
    rng = np.random.default_rng(100 + n)
    circuits = [_edge_gates(n)] + [_random_circuit(rng, n, 12) for _ in range(20)]
    for circuit in circuits:
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = Statevector(n, amps / np.linalg.norm(amps))
        before = state.amplitudes.copy()
        got = apply_circuit(state, circuit).amplitudes
        assert np.max(np.abs(got - _dense_circuit(circuit) @ before)) < 1e-12
        assert np.array_equal(state.amplitudes, before)  # the input is left alone


def test_diagonal_group_needs_no_gates():
    group = _group(2, ("Z0", 1.0), ("Z0 Z1", -0.5), kind="diagonal_z")
    assert len(diagonalizing_circuit(group)) == 0


def test_single_x_needs_one_hadamard():
    group = _group(1, ("X0", 1.0))
    circuit = diagonalizing_circuit(group)
    assert [g.name for g in circuit.gates] == ["H"]
    z, signs = diagonalized_members(group, circuit)
    assert z.tolist() == [1]
    assert signs.tolist() == [1.0]


def test_hcb_group_diagonalization_certified(h4_tensors):
    groups = hcb_to_groups(extract_hcb(h4_tensors)[0])
    for group in groups:
        circuit = diagonalizing_circuit(group)
        z, signs = diagonalized_members(group, circuit)  # certifies diagonality
        assert len(z) == len(signs) == len(group.members)
        assert set(signs.tolist()) <= {1.0, -1.0}


def _assert_diagonalizes_spectrum(group):
    """Conjugation by the dense circuit reproduces the diagonalized sum."""
    circuit = diagonalizing_circuit(group)
    u = _dense_circuit(circuit)
    original = sum(c * _dense_string(s) for s, c in group.members)
    rotated = u @ original @ u.conj().T
    diag = sum(c * _dense_string(s) for s, c in _diagonal_members(group, circuit))
    assert np.max(np.abs(rotated - diag)) < 1e-10


def test_diagonalization_preserves_spectrum(h4_tensors):
    _assert_diagonalizes_spectrum(hcb_to_groups(extract_hcb(h4_tensors)[0])[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diagonalization_preserves_spectrum_of_random_commuting_groups(n):
    """Random Z-strings conjugated by a random Clifford circuit commute."""
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        size = int(rng.integers(1, min(8, 1 << n) + 1))
        z_masks = rng.choice(1 << n, size=size, replace=False)
        scramble = _random_circuit(rng, n, 4 * n)
        members = []
        for z in z_masks:
            image, sign = _conjugate_one(PauliString(n, 0, int(z)), scramble)
            members.append((image, sign * float(rng.normal())))
        _assert_diagonalizes_spectrum(CommutingGroup(PauliSum(n, dict(members))))


def _diagonalization_digest(groups):
    data = []
    for group in groups:
        circuit = diagonalizing_circuit(group)
        members = _diagonal_members(group, circuit)
        data.append(([(gate.name, gate.qubits) for gate in circuit.gates],
                     [(image.z_mask, folded.hex()) for image, folded in members]))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _groups(request, system, method):
    if method == "protocol":
        _, state = request.getfixturevalue(f"{system}_ground")
        records = run_protocol(request.getfixturevalue(f"{system}_tensors"),
                               request.getfixturevalue(f"{system}_rotations"), state)
        return [group for record in records for group in record.groups]
    grouping = {"lf": lf_grouping, "rlf": rlf_grouping, "si": si_grouping}[method]
    return grouping(request.getfixturevalue(f"{system}_operator")).groups


# sha256 of every group's gate list, diagonal z-masks and folded-coefficient
# bits: a change to the elimination, the pivot choice or the sign rules shows
PINNED_DIAGONALIZATIONS = [
    ("h4", "lf", 29, "483a67bdbc0b9ebf9b2f4930923554dd7813adc82767b0c414280806afbedeed"),
    ("h4", "rlf", 19, "7d6c7d984e7d9f4c76dc21c3f2a1c5fe4e21dbd05047cb842b3b373a6aed4778"),
    ("h4", "si", 19, "b1e7efb85b04a5c810cebf3ddb8c19c1106b279ead4ae5e5e61fe14857e42fad"),
    ("h6", "lf", 101, "c4dc46b26899538f42268bef2a86a3f606b557f1f50f59a68bddd65f8335cbe0"),
    ("h6", "rlf", 62, "275066b56a9170d62eac26d3671a151cf43c5b6f80fc0d04a217886452414783"),
    ("h6", "si", 70, "49681ab52ded554ba239bfd54ed390594f2d99949eb2997af7c0b7f795992143"),
    ("h4", "protocol", 9, "d2f24dbaff3da99ad4a91e125b51a1e2439f055eca0c5323634988698ae0013f"),
]


@pytest.mark.parametrize("system,method,count,digest", PINNED_DIAGONALIZATIONS,
                         ids=[f"{s}-{m}" for s, m, _, _ in PINNED_DIAGONALIZATIONS])
def test_diagonalizations_are_pinned(request, system, method, count, digest):
    groups = _groups(request, system, method)
    assert len(groups) == count
    assert _diagonalization_digest(groups) == digest


def test_non_commuting_group_rejected():
    group = _group(1, ("X0", 1.0), ("Z0", 1.0))
    with pytest.raises(ValueError, match="commute"):
        diagonalizing_circuit(group)
    with pytest.raises(ValueError, match="commute"):
        group.check_commuting()
    group = _group(2, *((label, 1.0) for label in ("Z0", "Z1", "X0", "X1")), label="g")
    with pytest.raises(ValueError, match="^group 'g': Z0 and X0 do not commute$"):
        group.check_commuting()


def test_group_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        CommutingGroup(PauliSum(1), kind="sideways")


def test_group_to_sum_round_trip():
    """A group is its sum: members are the sum's terms, as Python ints and floats."""
    group = _group(2, ("Z1", -0.75), ("Z0", 0.25))
    assert group.n_qubits == 2
    assert group.op.coefficient(PauliString.from_label(2, "Z0")) == 0.25
    assert group.op.coefficient(PauliString.from_label(2, "Z1")) == -0.75
    assert group.members == tuple(group.op.terms())
    assert [(s.label(), c) for s, c in group.members] == [("Z0", 0.25), ("Z1", -0.75)]
    for string, coeff in group.members:
        assert type(string.x_mask) is int and type(string.z_mask) is int
        assert type(coeff) is float


def test_circuit_add_validates_qubits():
    circuit = Circuit(2)
    with pytest.raises(ValueError):
        circuit.add("H", 5)
    with pytest.raises(ValueError):
        circuit.add("T", 0)
