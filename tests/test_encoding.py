"""Fermion-to-qubit encoding: orderings, ladder algebra, Hamiltonian build."""

from pathlib import Path

import numpy as np
import pytest
from conftest import ladder_terms, multiply, random_tensors
from hypothesis import given, settings
from hypothesis import strategies as st

from hcbmeasure.encoding import (
    IMAG_TOL,
    ORDERINGS,
    ZERO_TOL,
    _hamiltonian_batches,
    build_qubit_hamiltonian,
    check_ordering,
    jw_encode,
    qubit_table,
    spin_orbital_index,
)
from hcbmeasure.fcidump import read_fcidump, write_fcidump
from hcbmeasure.integrals import IntegralTensors
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.rotations import random_orthogonal_rotation, rotate_integrals

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense_string(string) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for qubit in range(string.n_qubits):
        out = np.kron(_MATS[string.letter(qubit)], out)
    return out


def _dense_sum(op: PauliSum) -> np.ndarray:
    dim = 2 ** op.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for string, coeff in op.terms():
        total += coeff * _dense_string(string)
    return total


def _dense_annihilator(n_qubits: int, j: int) -> np.ndarray:
    """Matrix of the fermionic annihilator under the encoding's chain rule."""
    lower = (_X + 1j * _Y) / 2.0
    out = np.array([[1.0 + 0j]])
    for qubit in range(n_qubits):
        if qubit < j:
            factor = _Z
        elif qubit == j:
            factor = lower
        else:
            factor = _I
        out = np.kron(factor, out)
    return out


def test_orderings_and_check():
    assert set(ORDERINGS) == {"interleaved", "reordered"}
    check_ordering("interleaved")
    with pytest.raises(ValueError):
        check_ordering("scrambled")


def test_spin_orbital_index():
    n = 3
    assert [spin_orbital_index(p, 0, n, "interleaved") for p in range(n)] == [0, 2, 4]
    assert [spin_orbital_index(p, 1, n, "interleaved") for p in range(n)] == [1, 3, 5]
    assert [spin_orbital_index(p, 0, n, "reordered") for p in range(n)] == [0, 1, 2]
    assert [spin_orbital_index(p, 1, n, "reordered") for p in range(n)] == [3, 4, 5]


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_qubit_table_is_the_spin_orbital_index(ordering):
    for n in range(1, 9):
        table = qubit_table(n, ordering)
        assert table.shape == (n, 2)
        assert table.tolist() == [[spin_orbital_index(k, s, n, ordering) for s in (0, 1)]
                                  for k in range(n)]
        assert sorted(table.ravel().tolist()) == list(range(2 * n))
        for orbital, spin in ((-1, 0), (n, 0), (0, 2)):
            with pytest.raises(ValueError, match="out of range|spin must be"):
                spin_orbital_index(orbital, spin, n, ordering)


def test_ladder_terms_match_dense():
    n = 4
    for j in range(n):
        for creation in (False, True):
            dense = _dense_annihilator(n, j)
            if creation:
                dense = dense.conj().T
            encoded = np.zeros_like(dense)
            for string, coeff in ladder_terms(n, j, creation):
                encoded += coeff * _dense_string(string)
            assert np.max(np.abs(encoded - dense)) < 1e-14


def test_number_operator():
    op = jw_encode(2, [(1.0, ((0, True), (0, False)))])
    assert len(op) == 2
    identity = [s for s, _ in op.terms() if s == PauliString(2)]
    assert identity and abs(op.coefficient(identity[0]) - 0.5) < 1e-15
    z0 = [s for s, _ in op.terms() if s.label() == "Z0"]
    assert z0 and abs(op.coefficient(z0[0]) + 0.5) < 1e-15


def test_adjacent_hop():
    op = jw_encode(
        2, [(1.0, ((0, True), (1, False))), (1.0, ((1, True), (0, False)))])
    labels = {s.label(): c for s, c in op.terms()}
    assert labels == pytest.approx({"X0 X1": 0.5, "Y0 Y1": 0.5})


def test_distant_hop_carries_parity_chain():
    op = jw_encode(
        3, [(1.0, ((0, True), (2, False))), (1.0, ((2, True), (0, False)))])
    labels = {s.label(): c for s, c in op.terms()}
    assert labels == pytest.approx({"X0 Z1 X2": 0.5, "Y0 Z1 Y2": 0.5})


def test_canonical_anticommutator():
    for n in (2, 3, 4):
        for p in range(n):
            for q in range(n):
                op = jw_encode(n, [
                    (1.0, ((p, False), (q, True))),
                    (1.0, ((q, True), (p, False))),
                ])
                if p == q:
                    assert len(op) == 1
                    string, coeff = next(iter(op.terms()))
                    assert string == PauliString(n)
                    assert abs(coeff - 1.0) < 1e-12
                else:
                    assert len(op) == 0


def test_jw_encode_random_one_body_against_dense():
    rng = np.random.default_rng(7)
    n = 4
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0
    terms = [
        (h[p, q], ((p, True), (q, False)))
        for p in range(n) for q in range(n)]
    op = jw_encode(n, terms)
    dense_ladder = [_dense_annihilator(n, j) for j in range(n)]
    dense = sum(
        h[p, q] * dense_ladder[p].conj().T @ dense_ladder[q]
        for p in range(n) for q in range(n))
    assert np.max(np.abs(_dense_sum(op) - dense)) < 1e-12


def test_jw_encode_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jw_encode(2, [(1.0, ((0, True), (1, False)))])  # bare hop, no h.c.


def test_h4_term_count(h4_operator):
    assert len(h4_operator) == 361


def test_diagonal_one_body_maps_to_z_strings():
    n = 2
    h = np.diag([-1.25, 0.5])
    g = np.zeros((n, n, n, n))
    tensors = IntegralTensors(n, h, g, e_nuc=0.3)
    op = build_qubit_hamiltonian(tensors, "interleaved")
    assert not np.any(op.x)


def test_ground_energy_matches_between_orderings(h2_tensors):
    from hcbmeasure.simulator import ground_state

    e_int, _ = ground_state(build_qubit_hamiltonian(h2_tensors, "interleaved"), 2)
    e_reo, _ = ground_state(build_qubit_hamiltonian(h2_tensors, "reordered"), 2,
                            ordering="reordered")
    assert abs(e_int - e_reo) < 1e-10


def test_hamiltonian_against_dense_fock_oracle(h2_tensors):
    """Full two-electron build reproduced by a dense ladder-operator sum."""
    n = h2_tensors.n_orbitals
    nq = 2 * n
    op = build_qubit_hamiltonian(h2_tensors, "interleaved", prune_threshold=0.0)
    ladders = [_dense_annihilator(nq, j) for j in range(nq)]

    def so(p, s):
        return spin_orbital_index(p, s, n, "interleaved")

    dim = 2 ** nq
    dense = h2_tensors.e_nuc * np.eye(dim, dtype=complex)
    for p in range(n):
        for q in range(n):
            for s in (0, 1):
                dense += (
                    h2_tensors.one_body[p, q]
                    * ladders[so(p, s)].conj().T @ ladders[so(q, s)])
    g = h2_tensors.two_body  # ⟨kl|mn⟩: 0.5 Σ g a†_k a†_l a_n a_m, spins (k,m)/(l,n)
    for k in range(n):
        for l in range(n):
            for m in range(n):
                for nn in range(n):
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            dense += 0.5 * g[k, l, m, nn] * (
                                ladders[so(k, s1)].conj().T
                                @ ladders[so(l, s2)].conj().T
                                @ ladders[so(nn, s2)]
                                @ ladders[so(m, s1)])
    assert np.max(np.abs(_dense_sum(op) - dense)) < 1e-10


# ---------------------------------------------------------------------------
# the dict-based encoder, one multiply per (string, ladder part): the
# oracle the array encoder must match bit for bit


def _oracle_product_terms(n_qubits, ops):
    acc = {PauliString(n_qubits): 1.0 + 0.0j}
    for index, creation in ops:
        factor = ladder_terms(n_qubits, index, creation)
        nxt = {}
        for left, cl in acc.items():
            for right, cr in factor:
                prod, phase = multiply(left, right)
                val = nxt.get(prod, 0.0) + cl * cr * phase
                if val == 0.0:
                    nxt.pop(prod, None)
                else:
                    nxt[prod] = val
        acc = nxt
    return acc


def _oracle_hamiltonian_terms(tensors, ordering):
    """The spin-summed term list as (coefficient, ladder tuple), one loop per
    index: the entry order the encoder's array table must reproduce."""
    n = tensors.n_orbitals
    so = [[spin_orbital_index(k, s, n, ordering) for s in range(2)] for k in range(n)]
    terms = []
    if tensors.e_nuc != 0.0:
        terms.append((tensors.e_nuc, ()))
    h = tensors.one_body
    g = tensors.two_body
    for k in range(n):
        for l in range(n):
            if abs(h[k, l]) <= ZERO_TOL:
                continue
            for s in range(2):
                terms.append((h[k, l], ((so[k][s], True), (so[l][s], False))))
    for k in range(n):
        for l in range(n):
            for m in range(n):
                for nn in range(n):
                    coeff = 0.5 * g[k, l, m, nn]
                    if abs(coeff) <= ZERO_TOL:
                        continue
                    for s1 in range(2):
                        for s2 in range(2):
                            ops = (
                                (so[k][s1], True),
                                (so[l][s2], True),
                                (so[nn][s2], False),
                                (so[m][s1], False),
                            )
                            terms.append((coeff, ops))
    return terms


def _oracle_jw_encode(n_qubits, terms):
    acc = {}
    for coeff, ops in terms:
        for string, val in _oracle_product_terms(n_qubits, ops).items():
            acc[string] = acc.get(string, 0.0) + coeff * val
    for string, val in acc.items():
        if abs(val.imag) > IMAG_TOL:
            raise ValueError(f"term {string} has imaginary part {val.imag:.3e}")
    return PauliSum(n_qubits, {string: val.real for string, val in acc.items()})


def _bits(op):
    return [(s.x_mask, s.z_mask, c.hex()) for s, c in op.terms()]


def _assert_build_matches_oracle(tensors, ordering, prune_threshold=1e-12):
    want = _oracle_jw_encode(2 * tensors.n_orbitals,
                             _oracle_hamiltonian_terms(tensors, ordering))
    got = build_qubit_hamiltonian(tensors, ordering, prune_threshold)
    assert _bits(got) == _bits(want.prune(prune_threshold))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h4", "random"])
def test_hamiltonian_table_lists_the_loop_entries_in_order(h4_tensors, system, ordering):
    """The array table holds the loop's entries, coefficients and positions."""
    tensors = h4_tensors if system == "h4" else random_tensors(3, 2, e_nuc=0.25)
    got = {}
    for positions, coeffs, index, creation in _hamiltonian_batches(tensors, ordering):
        for p, c, i, f in zip(positions.tolist(), coeffs.tolist(), index.tolist(),
                              creation.tolist()):
            got[p] = (c, tuple(zip(i, f)))
    want = _oracle_hamiltonian_terms(tensors, ordering)
    assert [got[p] for p in range(len(got))] == [(complex(c), ops) for c, ops in want]


@pytest.mark.parametrize("rotated", [False, True], ids=["unrotated", "rotated"])
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6"])
def test_build_matches_dict_oracle_bit_for_bit(request, system, ordering, rotated):
    tensors = request.getfixturevalue(f"{system}_tensors")
    if rotated:
        rotation = random_orthogonal_rotation(tensors.n_orbitals, seed=17)
        tensors = rotate_integrals(tensors, rotation)
    _assert_build_matches_oracle(tensors, ordering)


def test_build_matches_dict_oracle_on_fcidump_tensors(h4_tensors, tmp_path):
    path = tmp_path / "h4.fcidump"
    write_fcidump(h4_tensors, path)
    external = Path(__file__).parent / "data" / "h4_line_1p5_external.fcidump"
    for tensors in (read_fcidump(path), read_fcidump(external)):
        for ordering in ORDERINGS:
            _assert_build_matches_oracle(tensors, ordering)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_build_matches_dict_oracle_on_random_tensors(n, seed):
    tensors = random_tensors(n, seed, e_nuc=0.25)
    for ordering in ORDERINGS:
        _assert_build_matches_oracle(tensors, ordering, prune_threshold=0.0)


def test_jw_encode_edge_cases_match_the_oracle():
    identity = jw_encode(3, [(0.7, ())])
    assert _bits(identity) == [(0, 0, (0.7).hex())]
    for ops in (((1, True), (1, True)), ((2, False), (2, False)),
                ((0, True), (1, True), (0, True), (2, False))):
        assert len(jw_encode(3, [(1.0, ops)])) == 0  # a repeated mode cancels
    mixed = [(0.3, ()), (1.5, ((0, True), (0, False))), (-0.25, ((2, True), (2, False)))]
    assert _bits(jw_encode(3, mixed)) == _bits(_oracle_jw_encode(3, mixed))
    assert len(jw_encode(3, [])) == 0


@pytest.mark.parametrize("ops", [
    ((0, True),),  # odd
    ((1, False),),
    ((0, True), (1, False)),  # bare hop
    ((0, True), (1, True), (2, False)),
])
def test_jw_encode_rejects_odd_and_bare_products(ops):
    with pytest.raises(ValueError, match="not Hermitian"):
        jw_encode(3, [(1.0, ops)])
    with pytest.raises(ValueError):
        _oracle_jw_encode(3, [(1.0, ops)])


@pytest.mark.parametrize("index", [-1, 3, 7])
def test_jw_encode_rejects_out_of_range_spin_orbitals(index):
    for ops in (((index, True), (index, False)), ((0, True), (index, False))):
        with pytest.raises(ValueError, match=f"spin orbital {index} out of range for 3 qubits"):
            jw_encode(3, [(1.0, ops)])


def _dagger(coeff, ops):
    return np.conj(coeff), tuple((index, not creation) for index, creation in reversed(ops))


@st.composite
def _hermitian_combinations(draw):
    """1-3 random ladder products of 1-4 ops on 1-4 modes, each plus its h.c."""
    n = draw(st.integers(1, 4))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    product = st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), min_size=1, max_size=4)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = complex(draw(parts), draw(parts))
        ops = tuple(draw(product))
        terms += [(coeff, ops), _dagger(coeff, ops)]
    return n, terms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_hermitian_combinations())
def test_jw_encode_of_term_plus_hc_is_the_hermitian_dense_operator(case):
    n, terms = case
    ladders = [_dense_annihilator(n, j) for j in range(n)]
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        product = np.eye(2**n, dtype=complex)
        for index, creation in ops:
            product = product @ (ladders[index].conj().T if creation else ladders[index])
        dense += coeff * product
    encoded = _dense_sum(jw_encode(n, terms))
    assert np.max(np.abs(encoded - dense)) < 1e-12
    assert np.max(np.abs(encoded - encoded.conj().T)) < 1e-12
