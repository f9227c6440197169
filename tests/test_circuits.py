"""The one circuit model: gate checks, apply_circuit against dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hcbmeasure.circuits import ARITY, CLIFFORD_GATES, Circuit, Gate
from hcbmeasure.encoding import jw_encode
from hcbmeasure.groups import CommutingGroup, conjugate_pauli, diagonalized_members
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.simulator import Statevector, apply_circuit

_I = np.eye(2, dtype=complex)
_MATS = {
    "I": _I,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}


def _dense_sum(op: PauliSum) -> np.ndarray:
    total = np.zeros((1 << op.n_qubits,) * 2, dtype=complex)
    for string, coeff in op.terms():
        m = np.array([[1.0 + 0j]])
        for q in range(op.n_qubits):
            m = np.kron(_MATS[string.letter(q)], m)
        total += coeff * m
    return total


def _excitation_ops(gate: Gate):
    """Ladder products of A and A^dagger, the gate being exp[angle/2 (A - A^dagger)]."""
    half = len(gate.qubits) // 2
    created, annihilated = gate.qubits[:half], gate.qubits[half:]
    a = tuple((q, True) for q in created) + tuple((q, False) for q in reversed(annihilated))
    a_dagger = tuple((q, not creation) for q, creation in reversed(a))
    return a, a_dagger


def _dense_gate(gate: Gate, n: int) -> np.ndarray:
    if gate.name in ("GIVENS", "PAIR_HOP"):
        a, a_dagger = _excitation_ops(gate)
        # i (A - A^dagger) is Hermitian, as jw_encode requires
        hermitian = _dense_sum(jw_encode(n, [(1j, a), (-1j, a_dagger)]))
        return expm(-0.5j * gate.angle * hermitian)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    if gate.name in ("CNOT", "CZ"):
        c, t = gate.qubits
        for basis in range(dim):
            both = (basis >> c) & 1
            if gate.name == "CNOT":
                out[basis ^ (both << t), basis] = 1.0
            else:
                out[basis, basis] = -1.0 if both and (basis >> t) & 1 else 1.0
        return out
    m = np.array([[1.0 + 0j]])
    for q in range(n):
        m = np.kron(_MATS[gate.name] if q == gate.qubits[0] else _I, m)
    return m


@st.composite
def _mixed_circuits(draw):
    n = draw(st.integers(2, 4))
    circuit = Circuit(n)
    names = [name for name, arity in ARITY.items() if arity <= n]
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(names))
        qubits = draw(st.permutations(range(n)))[:ARITY[name]]
        angle = 0.0 if name in CLIFFORD_GATES else draw(st.floats(-np.pi, np.pi))
        circuit.add(name, *qubits, angle=angle)
    return circuit, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_mixed_circuits())
def test_apply_circuit_matches_the_product_of_dense_gates(case):
    circuit, seed = case
    n = circuit.n_qubits
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = Statevector(n, amps / np.linalg.norm(amps))
    unitary = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        unitary = _dense_gate(gate, n) @ unitary
    got = apply_circuit(state, circuit).amplitudes
    assert np.max(np.abs(got - unitary @ state.amplitudes)) < 1e-12


@pytest.mark.parametrize("name", sorted(ARITY))
def test_circuit_add_rejects_bad_gates_of_every_kind(name):
    arity = ARITY[name]
    circuit = Circuit(5)
    fine = tuple(range(arity))
    circuit.add(name, *fine)
    with pytest.raises(ValueError, match=f"{name} takes {arity} qubit"):
        circuit.add(name, *range(arity + 1))
    with pytest.raises(ValueError, match="out of range for 5 qubits"):
        circuit.add(name, *fine[:-1], 5)
    with pytest.raises(ValueError, match="out of range for 5 qubits"):
        circuit.add(name, -1, *fine[1:])
    if arity > 1:
        with pytest.raises(ValueError, match="must be distinct"):
            circuit.add(name, *fine[:-1], 0)
    if name in CLIFFORD_GATES:
        with pytest.raises(ValueError, match="takes no angle"):
            circuit.add(name, *fine, angle=0.5)
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, [Gate(name, tuple(range(3, 3 + arity)))])
    assert circuit.gates == [Gate(name, fine)]


def test_circuit_add_rejects_unknown_names_and_empty_circuits():
    with pytest.raises(ValueError, match="unknown gate 'T'"):
        Circuit(2).add("T", 0)
    with pytest.raises(ValueError, match="unknown gate 'XGate'"):
        Circuit(2, [Gate("XGate", (0,))])
    with pytest.raises(ValueError, match="at least one qubit"):
        Circuit(0)


def test_circuits_wider_than_the_simulator_still_build():
    circuit = Circuit(40)
    circuit.add("CNOT", 0, 39)
    circuit.add("PAIR_HOP", 36, 37, 38, 39, angle=0.1)
    assert len(circuit) == 2


def test_conjugation_rejects_fermionic_gates():
    circuit = Circuit(2)
    circuit.add("H", 0)
    circuit.add("GIVENS", 0, 1, angle=0.3)
    with pytest.raises(ValueError, match="through a GIVENS gate"):
        conjugate_pauli(PauliSum(2, {PauliString.from_label(2, "X0"): 1.0}), circuit)
    group = CommutingGroup(PauliSum(2, {PauliString.from_label(2, "Z0 Z1"): 1.0}))
    with pytest.raises(ValueError, match="through a GIVENS gate"):
        diagonalized_members(group, circuit)
