"""Clifford conjugation and diagonalizing circuits for commuting groups."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcbmeasure.circuits import Circuit
from hcbmeasure.groups import (
    CommutingGroup,
    canonical_diagonalizer,
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


def _random_commuting_group(n: int, seed: int, style: str) -> CommutingGroup:
    """Distinct Z strings, the identity among them half the time, sent
    through one Clifford: a random circuit ("scrambled"), CNOTs then H and S
    on every qubit, which turns each Z string into a Y string ("y-heavy"),
    or nothing ("z-only")."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(12, 1 << n) + 1))
    z_masks = set(rng.choice(1 << n, size=size, replace=False).tolist())
    if rng.integers(2):
        z_masks.add(0)
    scramble = Circuit(n)
    if style == "scrambled":
        scramble = _random_circuit(rng, n, 4 * n)
    elif style == "y-heavy":
        for _ in range(n if n > 1 else 0):
            a, b = rng.choice(n, size=2, replace=False)
            scramble.add("CNOT", int(a), int(b))
        for q in range(n):
            scramble.add("H", q)
            scramble.add("S", q)
    members = {}
    for z in sorted(z_masks):
        image, sign = _conjugate_one(PauliString(n, 0, z), scramble)
        members[image] = sign * float(rng.normal())
    return CommutingGroup(PauliSum(n, members))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       style=st.sampled_from(["scrambled", "y-heavy", "z-only"]))
def test_canonical_images_match_the_conjugation_oracle(n, seed, style):
    """The closed-form images and signs are diagonalized_members on the
    returned circuit, which is the canonical form: CNOT fan-out from the
    pivots, then CZ/S among them, then H on each pivot once."""
    group = _random_commuting_group(n, seed, style)
    form = canonical_diagonalizer(group)
    circuit = diagonalizing_circuit(group)
    assert circuit.gates == form.circuit().gates
    layers = [{"CNOT": 0, "CZ": 1, "S": 1, "H": 2}[gate.name] for gate in circuit.gates]
    assert layers == sorted(layers)
    for gate in circuit.gates:
        on_pivots = [q in form.pivots for q in gate.qubits]
        assert on_pivots == ([True, False] if gate.name == "CNOT" else [True] * len(on_pivots))
    assert [gate.qubits[0] for gate in circuit.gates if gate.name == "H"] == list(form.pivots)
    if style == "z-only":
        assert len(circuit) == 0
    z, signs = diagonalized_members(group, circuit)
    images, image_signs = form.images(group.op)
    assert np.array_equal(images, z)
    assert np.array_equal(image_signs, signs)
    if n <= 4:
        _assert_diagonalizes_spectrum(group)


def test_canonical_form_certifies_without_the_commutation_check(monkeypatch):
    """With check_commuting off, the symmetry of the pivot matrix and the
    diagonal images still reject groups that do not commute."""
    monkeypatch.setattr(CommutingGroup, "check_commuting", lambda self: None)
    with pytest.raises(ValueError, match="^group 'g': the pivot matrix of qubits 0 and 1 "
                                         "is not symmetric$"):
        canonical_diagonalizer(_group(2, ("X0", 1.0), ("Z0 X1", 1.0), label="g"))
    group = _group(1, ("X0", 1.0), ("Z0", 1.0))
    with pytest.raises(ValueError, match="^canonical form failed to diagonalize Z0$"):
        canonical_diagonalizer(group).images(group.op)


def test_canonical_images_reject_other_qubit_counts():
    form = canonical_diagonalizer(_group(2, ("X0 X1", 1.0)))
    with pytest.raises(ValueError, match="qubit counts differ"):
        form.images(_group(3, ("X0 X1", 1.0)).op)


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
# bits: a change to the canonical form, the pivot choice or the sign rules shows
PINNED_DIAGONALIZATIONS = [
    ("h4", "lf", 29, "e9dc21152619e7506cfb4dc38fcd941ce68a78e134e8da4c255fc4591b65dfcc"),
    ("h4", "rlf", 19, "35e90a459255e32799f25ef253b8ecdb55942c5dbd295f6de67962d9945046f8"),
    ("h4", "si", 19, "739b381fa70e12ff59d354d0b76cdad27c7cb443746cc4543e4fc87c9331e695"),
    ("h6", "lf", 101, "6c429d225175b1bb0093ca2489ac6b43a16f4ba14336b4881414c8e05db400de"),
    ("h6", "rlf", 62, "2bcb6f692cbd223a4c823186e448bb6a505a2c36802897410992537b5b8a27ec"),
    ("h6", "si", 70, "0c0d9429d0f0d3b66bfc615d96788805cbe2915346b0ce1ad818a18caae35f61"),
    ("h4", "protocol", 9, "70927c1319b63615d18a0d00540c1e46b3ade031fc64baffacf8692490a632cc"),
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
