"""Pauli strings and sums: algebra, commutation, the array container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcbmeasure.paulis as paulis
from conftest import multiply
from hcbmeasure.paulis import PauliString, PauliSum, anticommutation_matrix

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
    assert (s.x_mask, s.z_mask) == (0b011, 0b110)
    assert (PauliString(4).x_mask, PauliString(4).z_mask) == (0, 0)


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
        assert prod == PauliString(5)
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


def _sum(strings) -> PauliSum:
    """Unit-coefficient sum of distinct strings."""
    return PauliSum(strings[0].n_qubits, {s: 1.0 for s in strings})


def _parity_matrix(op: PauliSum) -> list[list[bool]]:
    strings = [s for s, _ in op.terms()]
    return [[((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 1
             for b in strings]
            for a in strings]


def test_commutation_modes():
    """Commutation is full, not qubitwise: XX and ZZ commute."""
    op = _sum([PauliString.from_label(2, label) for label in ("X0 X1", "Z0 Z1", "X0", "Z0")])
    assert [s.label() for s, _ in op.terms()] == ["Z0", "Z0 Z1", "X0", "X0 X1"]
    assert anticommutation_matrix(op).tolist() == [
        [False, False, True, True],
        [False, False, True, False],
        [True, True, False, False],
        [True, False, False, False],
    ]


def test_commutation_exhaustive_against_dense():
    strings = [PauliString(3, x, z) for x in range(8) for z in range(8)]
    dense = [_dense(s) for s in strings]
    expected = np.array(
        [[np.max(np.abs(da @ db - db @ da)) > 1e-12 for db in dense] for da in dense])
    op = _sum(strings)
    assert [s for s, _ in op.terms()] == strings  # already in (x, z) order
    np.testing.assert_array_equal(anticommutation_matrix(op), expected)


@st.composite
def _string_sums(draw):
    n_qubits = draw(st.integers(1, 16))
    masks = st.integers(0, (1 << n_qubits) - 1)
    pairs = draw(st.lists(st.tuples(masks, masks), max_size=12))
    return PauliSum(n_qubits, {PauliString(n_qubits, x, z): 1.0 for x, z in pairs})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(op=_string_sums())
def test_anticommutation_matrix_is_the_popcount_parity(op):
    anti = anticommutation_matrix(op)
    assert anti.dtype == bool
    assert anti.shape == (len(op), len(op))
    assert anti.tolist() == _parity_matrix(op)
    assert (anti == anti.T).all()
    assert not anti.diagonal().any()


@pytest.mark.parametrize("block", [1, 7, paulis.ANTICOMMUTE_BLOCK])
def test_anticommutation_matrix_row_blocks_agree(monkeypatch, block):
    """A small ANTICOMMUTE_BLOCK splits the matrix into row blocks (down to
    one row each) without changing an entry."""
    monkeypatch.setattr(paulis, "ANTICOMMUTE_BLOCK", block)
    rng = np.random.default_rng(3)
    op = _sum([PauliString(10, int(x), int(z))
               for x, z in rng.integers(0, 1 << 10, size=(40, 2))])
    assert anticommutation_matrix(op).tolist() == _parity_matrix(op)


def test_anticommutation_matrix_rejects_mixed_and_wide_strings():
    """A sum holds one qubit count, at most 64; the top mask bit still counts."""
    with pytest.raises(ValueError, match="term qubit count does not match"):
        _sum([PauliString(2), PauliString(3)])
    with pytest.raises(ValueError, match="1 to 64 qubits"):
        _sum([PauliString(65, 1 << 64, 0)])
    top = _sum([PauliString(64, 1 << 63, 0), PauliString(64, 0, 1 << 63)])
    assert anticommutation_matrix(top).tolist() == [[False, True], [True, False]]


def test_pauli_sum_merges_and_pops_zero():
    """Both constructors drop zero coefficients, of either sign."""
    s = PauliString.from_label(2, "X0 Z1")
    t = PauliString.from_label(2, "Z0")
    op = PauliSum(2, {s: 0.75, t: 0.0})
    assert len(op) == 1
    assert op.coefficient(s) == 0.75
    assert s in op and t not in op
    assert op.coefficient(t) == 0.0
    op = PauliSum.from_arrays(2, [1, 1], [0, 2], [-0.0, 0.5])
    assert [(p.label(), c) for p, c in op.terms()] == [("X0 Z1", 0.5)]
    assert len(PauliSum.from_arrays(2, [0], [1], [0.0])) == 0


_DIGITS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _mappings(draw):
    """({string: coefficient}, probe string, prune threshold); zeros of both
    signs are common, and so are masks with the top bit of 64 qubits."""
    n_qubits = draw(st.sampled_from([1, 3, 16, 63, 64]))
    masks = st.integers(0, (1 << n_qubits) - 1)
    strings = st.builds(PauliString, st.just(n_qubits), masks, masks)
    coeffs = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), _DIGITS)
    mapping = draw(st.dictionaries(strings, coeffs, max_size=12))
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), _DIGITS.map(abs)))
    return n_qubits, mapping, draw(strings), threshold


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_mappings())
def test_pauli_sum_matches_a_dict_oracle(case):
    n_qubits, mapping, probe, threshold = case
    want = {s: c for s, c in mapping.items() if c != 0.0}
    ordered = sorted(want.items(), key=lambda kv: (kv[0].x_mask, kv[0].z_mask))
    op = PauliSum(n_qubits, mapping)
    assert op.terms() == ordered
    assert len(op) == len(want)
    for string in [*mapping, probe]:
        assert (string in op) == (string in want)
        assert op.coefficient(string) == want.get(string, 0.0)
    for string, coeff in op.terms():
        assert type(string.x_mask) is int and type(string.z_mask) is int
        assert type(coeff) is float
    assert op.x.dtype == op.z.dtype == np.uint64 and op.coeffs.dtype == np.float64
    again = PauliSum.from_arrays(n_qubits, op.x, op.z, op.coeffs)
    assert again.terms() == ordered
    assert op.prune(threshold).terms() == [(s, c) for s, c in ordered if abs(c) > threshold]


@pytest.mark.parametrize("n_qubits,x,z,coeffs,message", [
    (2, [1, 0], [0, 0], [1.0, 1.0], "not sorted"),
    (2, [1, 1], [2, 1], [1.0, 1.0], "not sorted"),
    (2, [1, 1], [0, 0], [1.0, 2.0], "duplicate string X0"),
    (2, [0, 1], [0, 0], [1.0, np.nan], "non-finite"),
    (2, [0], [0], [np.inf], "non-finite"),
    (2, [4], [0], [1.0], "out of range for 2 qubits"),
    (2, [0], [-1], [1.0], "out of range for 2 qubits"),
    (64, [1 << 64], [0], [1.0], "masks must be an array of integers"),
    (2, [0.5], [0], [1.0], "masks must be an array of integers"),
    (65, [1], [0], [1.0], "1 to 64 qubits"),
    (0, [], [], [], "1 to 64 qubits"),
    (2, [0, 1], [0, 0], [1.0], r"shapes differ: \(2,\), \(2,\), \(1,\)"),
], ids=["unsorted-x", "unsorted-z", "duplicate", "nan", "inf", "wide-mask", "negative-mask",
        "mask-beyond-uint64", "float-mask", "65-qubits", "0-qubits", "length-mismatch"])
def test_from_arrays_rejects_bad_terms(n_qubits, x, z, coeffs, message):
    with pytest.raises(ValueError, match=message):
        PauliSum.from_arrays(n_qubits, x, z, coeffs)


def test_pauli_sum_arrays_are_read_only():
    op = PauliSum(1, {PauliString.from_label(1, "Z0"): 0.5})
    for array in (op.x, op.z, op.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_prune_thresholds():
    op = PauliSum(1, {PauliString.from_label(1, "X0"): 1e-15,
                      PauliString.from_label(1, "Z0"): 0.5})
    kept = op.prune(0.0)
    assert len(kept) == 2  # threshold 0 keeps everything with |c| > 0
    kept = op.prune(1e-12)
    assert len(kept) == 1
    assert kept.prune(1e-12).terms() == kept.terms()  # idempotent


def test_dropped_weight_bounds_expectation_shift():
    rng = np.random.default_rng(3)
    terms = {}
    for _ in range(60):
        string = _random_string(rng, 4)
        terms[string] = terms.get(string, 0.0) + float(rng.normal(scale=1e-3))
    op = PauliSum(4, terms)
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


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        PauliSum(2, {PauliString.from_label(3, "X0 X1 X2"): 1.0})
    a = PauliString.from_label(1, "X0")
    b = PauliString.from_label(2, "X0 X1")
    with pytest.raises(ValueError):
        multiply(a, b)
    assert PauliSum(2, {b: 1.0}).coefficient(a) == 0.0
    assert a not in PauliSum(2, {b: 1.0})
