"""Pauli strings and sums: algebra, commutation, text round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcbmeasure.paulis as paulis
from hcbmeasure.paulis import PauliString, PauliSum, anticommutation_matrix, multiply

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense(string: PauliString) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for qubit in range(string.n_qubits):
        out = np.kron(_MATS[string.letter(qubit)], out)
    return out


def _random_string(rng, n_qubits):
    return PauliString(
        n_qubits,
        int(rng.integers(0, 1 << n_qubits)),
        int(rng.integers(0, 1 << n_qubits)),
    )


def test_label_round_trip():
    for label in ("X0 Y1 Z2", "Z0 Z1 Z2 Z3", "", "X1 Y3", "Z5"):
        n = 6
        assert PauliString.from_label(n, label).label() == label
    with pytest.raises(ValueError, match="bad Pauli token"):
        PauliString.from_label(2, "Q0")
    with pytest.raises(ValueError, match="out of range"):
        PauliString.from_label(2, "X5")
    with pytest.raises(ValueError, match="duplicate"):
        PauliString.from_label(2, "X0 Z0")


def test_letter_decoding():
    s = PauliString.from_label(4, "X0 Y1 Z2")
    assert [s.letter(k) for k in range(4)] == ["X", "Y", "Z", "I"]
    assert s.weight == 3
    assert not s.is_identity()
    assert PauliString(4).is_identity()
    assert PauliString.from_label(4, "Z0 Z3").is_diagonal()
    assert not s.is_diagonal()


def test_multiply_single_qubit():
    x = PauliString.from_label(1, "X0")
    z = PauliString.from_label(1, "Z0")
    prod, phase = multiply(x, z)
    assert prod.label() == "Y0"
    assert phase == -1j
    prod, phase = multiply(z, x)
    assert prod.label() == "Y0"
    assert phase == 1j


def test_multiply_self_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = _random_string(rng, 5)
        prod, phase = multiply(s, s)
        assert prod.is_identity()
        assert phase == 1


@st.composite
def _string_pairs(draw):
    n_qubits = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << n_qubits) - 1)
    return tuple(PauliString(n_qubits, draw(masks), draw(masks)) for _ in range(2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pair=_string_pairs())
def test_multiply_matches_kronecker_oracle(pair):
    a, b = pair
    prod, phase = multiply(a, b)
    assert phase in (1, -1, 1j, -1j)
    assert np.max(np.abs(_dense(a) @ _dense(b) - phase * _dense(prod))) < 1e-12


def test_multiply_associative():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, b, c = (_random_string(rng, 8) for _ in range(3))
        ab, pab = multiply(a, b)
        left, pl = multiply(ab, c)
        bc, pbc = multiply(b, c)
        right, pr = multiply(a, bc)
        assert left == right
        assert pab * pl == pbc * pr


def test_commutation_modes():
    """Commutation is full, not qubitwise: XX and ZZ commute."""
    xx = PauliString.from_label(2, "X0 X1")
    zz = PauliString.from_label(2, "Z0 Z1")
    x0 = PauliString.from_label(2, "X0")
    z0 = PauliString.from_label(2, "Z0")
    assert xx.commutes_with(zz)
    assert not x0.commutes_with(z0)
    assert anticommutation_matrix([xx, zz, x0, z0]).tolist() == [
        [False, False, False, True],
        [False, False, True, False],
        [False, True, False, True],
        [True, False, True, False],
    ]


def test_commutation_exhaustive_against_dense():
    strings = [PauliString(3, x, z) for x in range(8) for z in range(8)]
    dense = [_dense(s) for s in strings]
    expected = np.array(
        [[np.max(np.abs(da @ db - db @ da)) > 1e-12 for db in dense] for da in dense])
    np.testing.assert_array_equal(anticommutation_matrix(strings), expected)
    for i, a in enumerate(strings):
        for j, b in enumerate(strings):
            assert a.commutes_with(b) == (not expected[i, j])


@st.composite
def _string_lists(draw):
    n_qubits = draw(st.integers(1, 16))
    masks = st.integers(0, (1 << n_qubits) - 1)
    pairs = draw(st.lists(st.tuples(masks, masks), max_size=12))
    return [PauliString(n_qubits, x, z) for x, z in pairs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(strings=_string_lists())
def test_anticommutation_matrix_is_the_popcount_parity(strings):
    anti = anticommutation_matrix(strings)
    parity = [
        [((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 1
         for b in strings]
        for a in strings
    ]
    assert anti.dtype == bool
    assert anti.shape == (len(strings), len(strings))
    assert anti.tolist() == parity
    assert (anti == anti.T).all()
    assert not anti.diagonal().any()


@pytest.mark.parametrize("block", [1, 7, paulis.ANTICOMMUTE_BLOCK])
def test_anticommutation_matrix_row_blocks_agree(monkeypatch, block):
    """A small ANTICOMMUTE_BLOCK splits the matrix into row blocks (down to
    one row each) without changing an entry."""
    monkeypatch.setattr(paulis, "ANTICOMMUTE_BLOCK", block)
    rng = np.random.default_rng(3)
    strings = [PauliString(10, int(x), int(z))
               for x, z in rng.integers(0, 1 << 10, size=(40, 2))]
    parity = [
        [((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 1
         for b in strings]
        for a in strings
    ]
    assert anticommutation_matrix(strings).tolist() == parity


def test_anticommutation_matrix_rejects_mixed_and_wide_strings():
    with pytest.raises(ValueError, match="different qubit counts"):
        anticommutation_matrix([PauliString(2), PauliString(3)])
    with pytest.raises(ValueError, match="at most 64 qubits"):
        anticommutation_matrix([PauliString(65, 1 << 64, 0)])
    top = [PauliString(64, 1 << 63, 0), PauliString(64, 0, 1 << 63)]
    assert anticommutation_matrix(top).tolist() == [[False, True], [True, False]]


def test_pauli_sum_merges_and_pops_zero():
    op = PauliSum(2)
    s = PauliString.from_label(2, "X0 Z1")
    op.add_term(s, 0.5)
    op.add_term(s, 0.25)
    assert len(op) == 1
    assert op.coefficient(s) == 0.75
    op.add_term(s, -0.75)
    assert len(op) == 0
    assert s not in op


def test_prune_thresholds():
    op = PauliSum(1)
    op.add_term(PauliString.from_label(1, "X0"), 1e-15)
    op.add_term(PauliString.from_label(1, "Z0"), 0.5)
    kept = op.prune(0.0)
    assert len(kept) == 2  # threshold 0 keeps everything with |c| > 0
    kept = op.prune(1e-12)
    assert len(kept) == 1
    assert kept.prune(1e-12).to_text() == kept.to_text()  # idempotent


def test_dropped_weight_bounds_expectation_shift():
    rng = np.random.default_rng(3)
    op = PauliSum(4)
    for _ in range(60):
        op.add_term(_random_string(rng, 4), float(rng.normal(scale=1e-3)))
    threshold = 5e-4
    pruned = op.prune(threshold)
    bound = sum(abs(c) for _, c in op.terms() if abs(c) <= threshold)
    assert bound > 0.0
    dense_full = sum(c * _dense(s) for s, c in op.terms())
    dense_kept = sum(c * _dense(s) for s, c in pruned.terms())
    for _ in range(5):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        shift = abs(np.vdot(v, (dense_full - dense_kept) @ v))
        assert shift <= bound + 1e-12


def test_text_round_trip():
    rng = np.random.default_rng(4)
    op = PauliSum(3)
    for _ in range(12):
        op.add_term(_random_string(rng, 3), float(rng.normal()))
    back = PauliSum.from_text(op.to_text())
    diff = op - back
    assert diff.max_abs_coefficient() < 1e-10


def test_size_mismatch_errors():
    op = PauliSum(2)
    with pytest.raises(ValueError):
        op.add_term(PauliString.from_label(3, "X0 X1 X2"), 1.0)
    a = PauliString.from_label(1, "X0")
    b = PauliString.from_label(2, "X0 X1")
    with pytest.raises(ValueError):
        multiply(a, b)
    with pytest.raises(ValueError):
        a.commutes_with(b)
