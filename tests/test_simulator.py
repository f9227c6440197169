"""Statevector simulation: gates, ansatz, eigensolver, finite-shot sampling."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from conftest import (
    block_operator_oracle,
    circuit_unitary,
    complex_pauli_expectations,
    full_vector_expectation,
    reference_pauli_expectations,
    spin_block_scan,
    x_patterns,
    y_phase,
)
from scipy.linalg import expm

import hcbmeasure.simulator as simulator
from hcbmeasure.circuits import Circuit, Gate
from hcbmeasure.encoding import (
    ORDERINGS,
    build_qubit_hamiltonian,
    jw_encode,
    spin_orbital_index,
)
from hcbmeasure.grouping import estimate_shots, lf_grouping, rlf_grouping, si_grouping
from hcbmeasure.hcb import run_protocol
from hcbmeasure.groups import (
    CommutingGroup,
    canonical_diagonalizer,
    diagonalized_members,
    diagonalizing_circuit,
)
from hcbmeasure.integrals import IntegralTensors
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.rotations import (
    distance_ranked_matchings,
    givens_matrix,
    givens_rotation,
    rotate_integrals,
)
from hcbmeasure.simulator import (
    DENSE_EIG_LIMIT,
    MAX_QUBITS,
    PairAnsatz,
    Statevector,
    _block_operator,
    _lowest_eigenpair,
    _parity,
    _row_sums,
    _sector_cost,
    _spin_block,
    _support,
    _support_probabilities,
    _PreparedGroup,
    apply_circuit,
    build_pair_ansatz,
    exact_plan_energy,
    expectation,
    finite_sample_experiment,
    ground_state,
    ground_state_and_ansatz_optimum,
    optimize_ansatz,
    pauli_expectations,
    rotation_circuit,
    sample_group,
    spin_blocks,
    spin_rdms,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def _dense_annihilator(n_qubits: int, j: int) -> np.ndarray:
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


def _dense_sum(op: PauliSum) -> np.ndarray:
    mats = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}
    dim = 2 ** op.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s, c in op.terms():
        m = np.array([[1.0 + 0j]])
        for q in range(s.n_qubits):
            m = np.kron(mats[s.letter(q)], m)
        total += c * m
    return total


def _group(n: int, *terms: tuple[str, float]) -> CommutingGroup:
    return CommutingGroup(
        PauliSum(n, {PauliString.from_label(n, label): c for label, c in terms}))


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return Statevector(n_qubits, v / np.linalg.norm(v))


def test_statevector_guards():
    with pytest.raises(ValueError, match="norm"):
        Statevector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        Statevector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="n_qubits"):
        Statevector.computational_basis(MAX_QUBITS + 1)
    for bits in (-1, 4, 7):
        with pytest.raises(ValueError, match=f"^basis state {bits} out of range for 2 qubits$"):
            Statevector.computational_basis(2, bits)
    assert Statevector.computational_basis(2, np.int64(3)).amplitudes[3] == 1.0
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            Statevector(2, [bad, 0, 0, 0])


def test_pair_rotation_zero_angle_is_identity():
    u = circuit_unitary(rotation_circuit(givens_rotation(2, 0, 1, 0.0), 2, "interleaved"))
    assert np.max(np.abs(u - np.eye(16))) < 1e-14


def test_pair_rotation_transports_hamiltonian():
    """Conjugating H(T) by the gate equals building H in the rotated basis."""
    rng = np.random.default_rng(1)
    n, theta = 2, 0.37
    h = rng.normal(size=(n, n))
    tensors = IntegralTensors(n, (h + h.T) / 2, np.zeros((n,) * 4))
    u = circuit_unitary(rotation_circuit(givens_rotation(n, 0, 1, theta), n, "interleaved"))
    r = givens_matrix(n, 0, 1, theta)
    lhs = u @ _dense_sum(
        build_qubit_hamiltonian(tensors, "interleaved", 0.0)) @ u.conj().T
    rhs = _dense_sum(build_qubit_hamiltonian(
        rotate_integrals(tensors, r), "interleaved", 0.0))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _pair_hop_generator():
    nq = 4
    ladders = [_dense_annihilator(nq, j) for j in range(nq)]
    so = lambda p, s: spin_orbital_index(p, s, 2, "interleaved")
    return (ladders[so(0, 0)].conj().T @ ladders[so(0, 1)].conj().T
            @ ladders[so(1, 1)] @ ladders[so(1, 0)])


def test_pair_givens_matches_expm_oracle():
    phi = 0.53
    a = _pair_hop_generator()
    so = lambda p, s: spin_orbital_index(p, s, 2, "interleaved")
    hop = Gate("PAIR_HOP", (so(0, 0), so(0, 1), so(1, 0), so(1, 1)), phi)
    u = circuit_unitary(Circuit(4, [hop]))
    oracle = expm(phi / 2 * (a - a.conj().T))
    assert np.max(np.abs(u - oracle)) < 1e-12


def test_pair_gates_conserve_particle_number():
    circuit = Circuit(4)
    circuit.add("X", 0)
    circuit.add("X", 1)
    circuit.add("PAIR_HOP", 0, 1, 2, 3, angle=0.8)
    circuit.add("GIVENS", 0, 2, angle=0.4)
    circuit.add("GIVENS", 1, 3, angle=0.4)
    state = apply_circuit(Statevector.computational_basis(4), circuit)
    for basis, amp in enumerate(state.amplitudes):
        if abs(amp) > 1e-12:
            assert bin(basis).count("1") == 2


def test_ansatz_zero_parameters_is_reference_determinant(h4_graphs):
    ansatz = build_pair_ansatz([h4_graphs[0]], "interleaved")
    state = ansatz.prepare(np.zeros(ansatz.n_parameters))
    amps = state.amplitudes
    occupied = np.flatnonzero(np.abs(amps) > 1e-12)
    assert len(occupied) == 1
    assert bin(int(occupied[0])).count("1") == 4  # one pair per edge


def test_ansatz_conserves_particle_number(h4_graphs):
    rng = np.random.default_rng(9)
    ansatz = build_pair_ansatz(list(h4_graphs[:2]), "interleaved",
                               extra_pairs=list(h4_graphs[2].edges))
    params = rng.uniform(-1, 1, size=ansatz.n_parameters)
    state = ansatz.prepare(params)
    for basis, amp in enumerate(state.amplitudes):
        if abs(amp) > 1e-12:
            assert bin(basis).count("1") == 4


def test_optimized_ansatz_reaches_chemical_scale(h4_operator, h4_graphs,
                                                 h4_ground):
    exact, _ = h4_ground
    g1, g2, g3 = h4_graphs
    ansatz = build_pair_ansatz([g1, g2, g1], "interleaved",
                               extra_pairs=list(g3.edges))
    _, energy = optimize_ansatz(ansatz, h4_operator, restarts=6, seed=11)
    assert energy - exact < 15e-3  # pair-correlated states level off ~10 mHa


@pytest.mark.xfail(
    strict=False,
    reason="two-graph pair ansatz plateaus near 35 mHa above the exact "
    "ground energy for the 4-atom chain; the three-graph form with extra "
    "pair rotations in test_optimized_ansatz_reaches_chemical_scale levels "
    "off near 10 mHa",
)
def test_two_graph_ansatz_below_five_millihartree(h4_operator, h4_graphs,
                                                  h4_ground):
    exact, _ = h4_ground
    ansatz = build_pair_ansatz(list(h4_graphs[:2]), "interleaved")
    _, energy = optimize_ansatz(ansatz, h4_operator, restarts=6, seed=11)
    assert energy - exact < 5e-3


class _LeakyAnsatz(PairAnsatz):
    """A pair ansatz that mixes a little vacuum into every prepared state."""

    def prepare(self, params):
        amps = super().prepare(params).amplitudes.copy()
        amps[0] = 1e-3
        return Statevector(2 * self.n_orbitals, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("ordering", ["interleaved", "reordered"])
def test_sector_cost_matches_expectation(ordering, h4_tensors, h4_graphs,
                                         h6_tensors, h6_distances):
    g1, g2, g3 = h4_graphs
    cases = [
        (h4_tensors, build_pair_ansatz([g1, g2, g1], ordering, extra_pairs=list(g3.edges))),
        (h6_tensors, build_pair_ansatz(distance_ranked_matchings(h6_distances, 2), ordering)),
    ]
    rng = np.random.default_rng(5)
    for tensors, ansatz in cases:
        op = build_qubit_hamiltonian(tensors, ordering)
        cost = _sector_cost(ansatz, op)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, ansatz.n_parameters)
            assert abs(cost(params) - expectation(ansatz.prepare(params), op)) < 1e-12


def test_sector_cost_rejects_states_outside_the_sector(h4_operator, h4_graphs):
    cost = _sector_cost(_LeakyAnsatz(4, (h4_graphs[0],)), h4_operator)
    with pytest.raises(ValueError, match="leaves the 4-electron sector"):
        cost(np.zeros(3))


def test_optimize_ansatz_is_deterministic_in_seed(h4_operator, h4_graphs):
    ansatz = build_pair_ansatz([h4_graphs[0]], "interleaved")
    params, energy = optimize_ansatz(ansatz, h4_operator, restarts=2, seed=3)
    again, energy_again = optimize_ansatz(ansatz, h4_operator, restarts=2, seed=3)
    assert np.array_equal(params, again)
    assert energy == energy_again


def test_optimize_ansatz_rejects_mismatched_operator(h2_operator, h4_graphs):
    ansatz = build_pair_ansatz([h4_graphs[0]], "interleaved")
    with pytest.raises(ValueError, match="operator acts on 4 qubits, the ansatz prepares 8"):
        optimize_ansatz(ansatz, h2_operator, restarts=1)


@pytest.mark.parametrize("restarts", [0, -3])
def test_optimizer_rejects_restarts_below_one(h4_operator, h4_graphs, restarts):
    ansatz = build_pair_ansatz([h4_graphs[0]], "interleaved")
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}$"):
        optimize_ansatz(ansatz, h4_operator, restarts=restarts)
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}$"):
        ground_state_and_ansatz_optimum(ansatz, h4_operator, restarts=restarts)


def test_ground_state_and_optimum_share_one_sector_build(h4_operator, h4_graphs):
    ansatz = build_pair_ansatz([h4_graphs[0]], "interleaved")
    (energy, state), (params, optimum) = ground_state_and_ansatz_optimum(
        ansatz, h4_operator, restarts=2, seed=3)
    want_energy, want_state = ground_state(h4_operator, 4)
    want_params, want_optimum = optimize_ansatz(ansatz, h4_operator, restarts=2, seed=3)
    assert energy == want_energy
    assert np.array_equal(state.amplitudes, want_state.amplitudes)
    assert np.array_equal(params, want_params)
    assert optimum == want_optimum


def test_lanczos_branch_is_deterministic_and_matches_dense():
    """Above the dense cutoff: the same bits on every call, and the dense energy.

    The matrix is a permuted direct sum of small random Hermitian blocks, so
    dense eigh on the blocks is the oracle; the first block is shifted down
    to keep its lowest eigenvalue well separated.
    """
    rng = np.random.default_rng(0)
    size = 20
    blocks = []
    for k in range(DENSE_EIG_LIMIT // size + 1):
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        blocks.append((a + a.conj().T) / 2 - (30.0 if k == 0 else 0.0) * np.eye(size))
    perm = rng.permutation(size * len(blocks))
    mat = scipy.sparse.block_diag(blocks, format="csr")[perm][:, perm]
    assert mat.shape[0] > DENSE_EIG_LIMIT
    energy, vec = _lowest_eigenpair(mat)
    energy_again, vec_again = _lowest_eigenpair(mat)
    assert energy == energy_again
    assert np.array_equal(vec, vec_again)
    assert abs(energy - min(np.linalg.eigvalsh(b)[0] for b in blocks)) < 1e-10


def test_ground_state_h2_anchor(h2_operator):
    from conftest import H2_FCI_ENERGY

    energy, state = ground_state(h2_operator, 2)
    assert abs(energy - H2_FCI_ENERGY) < 1e-9
    assert abs(expectation(state, h2_operator) - energy) < 1e-10


def _n_sector_matrix(op: PauliSum, n_electrons: int):
    """Oracle: the basis states with n_electrons set bits, ascending, and
    op's matrix on all of them, whatever their spin counts."""
    idx = np.arange(1 << op.n_qubits, dtype=np.int64)
    sector = idx[np.bitwise_count(idx) == n_electrons]
    rows, cols, vals = [], [], []
    coeffs = op.coeffs.tolist()
    for x_mask, by_z in x_patterns(op.x, op.z).items():
        target = sector ^ x_mask
        src = np.flatnonzero(np.bitwise_count(target) == n_electrons)
        amp = np.zeros(len(src), dtype=complex)
        for z_mask, (i,) in by_z.items():
            phased = coeffs[i] * y_phase(x_mask, z_mask)
            amp += phased * (1.0 - 2.0 * _parity(sector[src], z_mask))
        rows.append(np.searchsorted(sector, target[src]))
        cols.append(src)
        vals.append(amp)
    dim = len(sector)
    mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    assert abs(mat - mat.getH()).max() <= 1e-9
    return sector, mat


def _n_sector_ground_state(op: PauliSum, n_electrons: int):
    """Oracle: the lowest eigenpair of op on the whole n_electrons sector."""
    sector, mat = _n_sector_matrix(op, n_electrons)
    energy, vec = _lowest_eigenpair(mat)
    full = np.zeros(1 << op.n_qubits, dtype=complex)
    full[sector] = vec
    return energy, full


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6"])
def test_ground_state_matches_the_n_sector_oracle(request, system, ordering):
    tensors = request.getfixturevalue(f"{system}_tensors")
    op = build_qubit_hamiltonian(tensors, ordering)
    n = tensors.n_orbitals
    energy, state = ground_state(op, n, ordering=ordering)
    want_energy, want_vec = _n_sector_ground_state(op, n)
    assert abs(energy - want_energy) < 1e-10
    assert abs(np.vdot(want_vec, state.amplitudes)) >= 1 - 1e-12
    assert spin_blocks(state, ordering) == [(n // 2, n // 2)]


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_ground_state_of_odd_n_is_an_eigenvector_of_the_n_sector(h4_tensors, ordering):
    """N = 3 on the H4 line: the doublet's M_s = +1/2 member, N_alpha = N_beta + 1.

    The ground level is degenerate on the N sector, so the oracle vector may
    be any member; the block vector must be an eigenvector of the whole
    sector matrix with the oracle's energy.
    """
    op = build_qubit_hamiltonian(h4_tensors, ordering)
    energy, state = ground_state(op, 3, ordering=ordering)
    want_energy, _ = _n_sector_ground_state(op, 3)
    assert abs(energy - want_energy) < 1e-10
    assert spin_blocks(state, ordering) == [(2, 1)]
    sector, mat = _n_sector_matrix(op, 3)
    v = state.amplitudes[sector]
    assert np.linalg.norm(mat @ v - energy * v) < 1e-8


def test_ground_state_respects_sector(h2_operator):
    energy0, state0 = ground_state(h2_operator, 0)
    assert np.flatnonzero(state0.amplitudes).tolist() == [0]
    assert energy0 == pytest.approx(_n_sector_ground_state(h2_operator, 0)[0], abs=1e-12)
    for n_electrons in (-1, 5):
        with pytest.raises(ValueError, match=f"n_electrons {n_electrons} out of range"):
            ground_state(h2_operator, n_electrons)


def test_ground_state_rejects_an_operator_read_in_the_wrong_layout(h4_tensors):
    """A reordered H4 operator moves interleaved N_alpha = N_beta states elsewhere."""
    op = build_qubit_hamiltonian(h4_tensors, "reordered")
    with pytest.raises(ValueError, match=r"leaks 1\.428e-01 out of the interleaved "
                                         r"layout's \(N_alpha, N_beta\) = \(2, 2\) block"):
        ground_state(op, 4)
    with pytest.raises(ValueError, match="unknown ordering"):
        ground_state(op, 4, ordering="scrambled")


@pytest.mark.parametrize("system", ["h4", "h6"])
def test_ground_state_is_bit_identical_across_calls(request, system):
    op = request.getfixturevalue(f"{system}_operator")
    n = op.n_qubits // 2
    energy, state = ground_state(op, n)
    again, state_again = ground_state(op, n)
    assert energy == again
    assert np.array_equal(state.amplitudes, state_again.amplitudes)


@pytest.mark.parametrize("columns", [1, 2])
def test_row_sums_add_the_rows_in_order(columns):
    """Row by row, first row first, also for one column: each 1e-16 is lost
    against the leading 1.0 one at a time, but not when summed pairwise."""
    rows = np.full((300, columns), 1e-16)
    rows[0] = 1.0
    assert np.array_equal(_row_sums(rows), np.ones(columns))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6"])
def test_block_operator_is_the_oracle_in_real_arithmetic(request, system, ordering):
    """No string of a Hamiltonian has an odd Y count, so the oracle's
    imaginary parts are all 0 and the block is float64.  The builder sums
    each X-pattern's rows in the oracle's term order, so its entries are the
    oracle's real parts bit for bit, for even N and for odd N."""
    tensors = request.getfixturevalue(f"{system}_tensors")
    op = build_qubit_hamiltonian(tensors, ordering)
    n = tensors.n_orbitals
    for n_electrons in (n - 1, n):
        block, mat = _block_operator(op, n_electrons, ordering)
        want_block, want = block_operator_oracle(op, n_electrons, ordering)
        assert np.array_equal(block, want_block)
        assert mat.dtype == np.float64
        assert mat.has_canonical_format
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
        assert want.dtype == np.complex128 and not np.any(want.data.imag)
        assert np.array_equal(mat.indptr, want.indptr)
        assert np.array_equal(mat.indices, want.indices)
        assert np.array_equal(mat.data, want.data.real)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("n_orbitals", [2, 4, 6, 8])
def test_spin_block_is_the_basis_scan(n_orbitals, ordering):
    """At the H2 to H8 sizes, for N and N - 1 electrons, the block built from
    the layout's spin strings is the one a scan of all 2^n basis states reads."""
    op = PauliSum(2 * n_orbitals, {})
    for n_electrons in (n_orbitals - 1, n_orbitals):
        block, n_up = _spin_block(op, n_electrons, ordering)
        want, want_up = spin_block_scan(op, n_electrons, ordering)
        assert n_up == want_up
        assert block.dtype == want.dtype
        assert np.array_equal(block, want)


def _imaginary_hop() -> PauliSum:
    """i t (a+_0s a_2s - a+_2s a_0s) on both spins of H4, interleaved: Hermitian,
    spin-free, and every string has one Y."""
    so = [[spin_orbital_index(k, s, 4, "interleaved") for s in (0, 1)] for k in range(4)]
    return jw_encode(8, [(c, ((so[p][s], True), (so[q][s], False)))
                         for s in (0, 1) for p, q, c in ((0, 2, 0.3j), (2, 0, -0.3j))])


def test_an_odd_y_operator_builds_complex_and_keeps_its_eigenpair(h4_operator):
    """i t (a+_0s a_2s - a+_2s a_0s) on both spins is Hermitian, spin-free and
    JW-encodes to strings with one Y each, so the H4 block goes complex; its
    entries are the oracle's and its eigenpair the dense N-sector one's."""
    hop = _imaginary_hop()
    assert any((s.x_mask & s.z_mask).bit_count() % 2 for s, _ in hop.terms())
    terms = dict(h4_operator.terms())
    assert terms.keys().isdisjoint(dict(hop.terms()))
    op = PauliSum(8, {**terms, **dict(hop.terms())})
    block, mat = _block_operator(op, 4, "interleaved")
    _, want = block_operator_oracle(op, 4, "interleaved")
    assert mat.dtype == np.complex128 and np.any(mat.data.imag)
    assert mat.has_canonical_format
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    assert np.array_equal(mat.indptr, want.indptr)
    assert np.array_equal(mat.indices, want.indices)
    assert np.array_equal(mat.data, want.data)
    energy, state = ground_state(op, 4)
    want_energy, want_vec = _n_sector_ground_state(op, 4)
    assert abs(energy - want_energy) < 1e-10
    assert abs(np.vdot(want_vec, state.amplitudes)) >= 1 - 1e-12


def test_block_operator_reports_the_hermiticity_gap(monkeypatch, h4_operator):
    """With the phase of a one-Y string read as 1 instead of i, the odd-Y
    strings turn anti-Hermitian and the builder raises with the largest
    |M - M^H| of the block, as a dense sum of the same strings gives it."""
    op = PauliSum(8, {**dict(h4_operator.terms()), **dict(_imaginary_hop().terms())})
    wrong_powers = np.array([1, 1, -1, -1j])
    block, _ = _block_operator(op, 4, "interleaved")
    dense = np.zeros((256, 256), dtype=complex)
    basis = np.arange(256)
    for x_mask, z_mask, coeff in zip(op.x.tolist(), op.z.tolist(), op.coeffs):
        phase = wrong_powers[(x_mask & z_mask).bit_count() % 4]
        dense[basis ^ x_mask, basis] += coeff * phase * (1.0 - 2.0 * _parity(basis, z_mask))
    sub = dense[np.ix_(block, block)]
    gap = np.abs(sub - sub.conj().T).max()
    assert gap > 0.1
    monkeypatch.setattr(simulator, "_I_POWERS", wrong_powers)
    with pytest.raises(ValueError, match=rf"^operator is not Hermitian on the block "
                                         rf"\(gap {gap:.3e}\)$"):
        _block_operator(op, 4, "interleaved")


# sha256 of indptr, indices and data of the H8 line's interleaved block
# matrices, as the COO builder this one replaced returned them; the per-term
# oracle is too slow at 16 qubits
H8_BLOCK_PINS = {
    7: "aa0b38b72ddebb9d6f2f94fb97b096f29c2f2ecb6821f5b637b38dfb5060e684",
    8: "4c92dd5a33624ecee83798d43dc8265c5abbf6478f94f8e1d9c772676e9013ed",
}


@pytest.mark.parametrize("n_electrons", [7, 8])
def test_h8_block_operator_is_pinned(h8_operator, n_electrons):
    _, mat = _block_operator(h8_operator, n_electrons, "interleaved")
    assert mat.dtype == np.float64
    assert mat.has_canonical_format
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    sha = hashlib.sha256()
    for array in (mat.indptr, mat.indices, mat.data):
        sha.update(array.tobytes())
    assert sha.hexdigest() == H8_BLOCK_PINS[n_electrons]


def test_h8_block_build_peaks_below_twice_its_csr_arrays(h8_operator):
    """The builder writes straight into the CSR arrays, so its traced peak
    is those arrays plus one X-pattern's working arrays (1.5x at H8); a COO build
    with a transpose for the Hermiticity check peaked at 7x."""
    tracemalloc.start()
    try:
        _, mat = _block_operator(h8_operator, 8, "interleaved")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 2 * csr_bytes


_REAL_LANCZOS_CHILD = """
import hashlib
import hcbmeasure.simulator as simulator
from hcbmeasure import build_geometry, build_qubit_hamiltonian, minimal_basis_integrals

op = build_qubit_hamiltonian(minimal_basis_integrals(build_geometry(6, 1.5, "line")))
dense_energy, _ = simulator.ground_state(op, 6)
simulator.DENSE_EIG_LIMIT = 100  # the 400-state block goes to eigsh
dtype = simulator._block_operator(op, 6, "interleaved")[1].dtype
energy, state = simulator.ground_state(op, 6)
print(dtype, energy.hex(), hashlib.sha256(state.amplitudes.tobytes()).hexdigest(),
      abs(energy - dense_energy))
"""


def test_real_lanczos_is_bit_identical_across_processes():
    """Two fresh processes put the H6 line's float64 block on the eigsh branch
    and return the same energy and vector bits, within 1e-10 of dense eigh."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    children = [subprocess.Popen([sys.executable, "-c", _REAL_LANCZOS_CHILD], env=env,
                                 stdout=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        outputs = [child.communicate(timeout=120)[0].split() for child in children]
    finally:
        for child in children:
            child.kill()
    assert [child.returncode for child in children] == [0, 0]
    (dtype, energy, digest, gap), again = outputs
    assert dtype == "float64"
    assert again[:3] == [dtype, energy, digest]
    assert float(gap) < 1e-10


def test_expectation_basics():
    state = Statevector.computational_basis(2, 0b00)
    assert pauli_expectations(state, [0], [1])[0] == pytest.approx(1.0)  # Z0
    state1 = Statevector.computational_basis(2, 0b01)
    assert pauli_expectations(state1, [0], [1])[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("block", [simulator.SIGN_BLOCK, 5])
@pytest.mark.parametrize("seed,zeros", [(0, 0), (1, 6)])
def test_pauli_expectations_match_the_full_vector_path(monkeypatch, seed, zeros, block):
    """Every string on 3 qubits (identity included), repeats, shuffled, on a
    random complex state; some states have zero amplitudes, and a small
    SIGN_BLOCK splits the sign matrices."""
    monkeypatch.setattr(simulator, "SIGN_BLOCK", block)
    n = 3
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps[rng.permutation(2**n)[:zeros]] = 0.0
    state = Statevector(n, amps / np.linalg.norm(amps))
    every = [PauliString(n, x, z) for x in range(2**n) for z in range(2**n)]
    strings = [every[i] for i in rng.permutation(len(every))] + every[:9]
    want = np.array([full_vector_expectation(state, s) for s in strings])
    x = np.array([s.x_mask for s in strings], dtype=np.uint64)
    z = np.array([s.z_mask for s in strings], dtype=np.uint64)
    assert np.max(np.abs(pauli_expectations(state, x, z) - want)) < 1e-12
    assert pauli_expectations(state, [], []).shape == (0,)
    with pytest.raises(ValueError, match="out of range for the state's 3 qubits"):
        pauli_expectations(state, [8], [0])


@pytest.mark.parametrize("system", ["h4", "h6"])
def test_pauli_expectations_equal_the_complex_path(request, monkeypatch, system):
    """The real path on the ground state, and the complex path on a
    global-phase copy of it and on a scattered random state, against the
    all-complex evaluation: the Hamiltonian's strings and the LF groups'
    members.

    Every sign matrix of at least two rows goes through one matrix-vector
    product on both paths, so those values agree bit for bit.  A one-row
    matrix goes through a dot product, which NumPy sums in another order for
    the complex path's strided real part, so with every block cut to one
    row the values agree to rounding only.
    """
    op = request.getfixturevalue(f"{system}_operator")
    _, ground = request.getfixturevalue(f"{system}_ground")
    groups = lf_grouping(op).groups
    x = np.concatenate([op.x, *(g.op.x for g in groups)])
    z = np.concatenate([op.z, *(g.op.z for g in groups)])
    phased = Statevector(op.n_qubits, np.exp(0.3j) * ground.amplitudes)
    states = (ground, phased, _scattered_state(op.n_qubits, 2))
    for state in states:
        assert np.array_equal(pauli_expectations(state, x, z),
                              complex_pauli_expectations(state, x, z))
    monkeypatch.setattr(simulator, "SIGN_BLOCK", 1)
    for state in states:
        got, want = pauli_expectations(state, x, z), complex_pauli_expectations(state, x, z)
        assert np.max(np.abs(got - want)) <= 1e-14


SIGN_BLOCKS = (1 << 21, 257, 64, 1)


def _bit_equal(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h4", "h6"])
def test_pauli_expectations_are_the_bucketed_reference(request, monkeypatch, system, ordering):
    """The runs of the sorted distinct strings hold each X-pattern's rows in
    the order the x_patterns buckets held them, so every value is the
    reference's bit for bit, signed zeros included, with SIGN_BLOCK cutting
    the sign matrices inside the runs: on the ground state and a pair-ansatz
    state (real path) and a global-phase copy of the ground state (complex
    path).  The masks are the Hamiltonian's strings, a third of them again
    and odd-Y strings on the same X-patterns, shuffled."""
    geometry = request.getfixturevalue(f"{system}_geometry")
    tensors = request.getfixturevalue(f"{system}_tensors")
    op = build_qubit_hamiltonian(tensors, ordering)
    _, ground = ground_state(op, tensors.n_orbitals, ordering)
    ansatz = build_pair_ansatz(distance_ranked_matchings(geometry.distances(), 2), ordering)
    rng = np.random.default_rng(len(op))
    paired = ansatz.prepare(rng.uniform(-1.0, 1.0, ansatz.n_parameters))
    phased = Statevector(op.n_qubits, np.exp(0.4j) * ground.amplitudes)
    picks = rng.permutation(np.concatenate([np.arange(len(op)),
                                            rng.integers(len(op), size=len(op) // 3)]))
    x, z = op.x[picks], op.z[picks]
    odd = np.flatnonzero(x)[::3]
    x = np.concatenate([x, x[odd]])
    z = np.concatenate([z, z[odd] ^ (x[odd] & -x[odd])])  # flip the Z on the lowest X bit
    assert len(np.unique(x)) > 1 and np.any(np.bitwise_count(x & z) & 1)
    for block in SIGN_BLOCKS:
        monkeypatch.setattr(simulator, "SIGN_BLOCK", block)
        for state in (ground, paired, phased):
            assert _bit_equal(pauli_expectations(state, x, z),
                              reference_pauli_expectations(state, x, z))


@pytest.mark.parametrize("block", SIGN_BLOCKS)
def test_finite_sample_experiment_is_the_chunked_reference(monkeypatch, h4_operator,
                                                          h4_ground, block):
    """On an SI plan, the exact reference is the bucketed reference's sum
    and each draw's member means are the chunked members x outcomes product
    sampling took before _signed_sums, bit for bit."""
    monkeypatch.setattr(simulator, "SIGN_BLOCK", block)
    _, state = h4_ground
    grouping = si_grouping(h4_operator)
    plan = [(group, state, shots) for group, shots in
            zip(grouping.groups, estimate_shots(grouping, state, 3e-3).per_group)]
    result = finite_sample_experiment(plan, repetitions=3, seed=5)
    groups = grouping.groups
    values = reference_pauli_expectations(state, np.concatenate([g.op.x for g in groups]),
                                          np.concatenate([g.op.z for g in groups]))
    exact = 0.0
    for group, members in zip(groups, np.split(values, np.cumsum([len(g.op) for g in groups]))):
        exact += float(group.op.coeffs @ members)
    rng = np.random.default_rng(5)
    prepared = [(_PreparedGroup.build(state, group, _support(state)), max(1, int(np.ceil(shots))))
                for group, state, shots in plan]
    energies = []
    for _ in range(3):
        total = 0.0
        for entry, shots in prepared:
            outcomes, counts = np.unique(entry.outcomes(shots, rng), return_counts=True)
            means = np.empty(len(entry.z_masks))
            step = max(1, simulator.SIGN_BLOCK // len(outcomes))
            for lo in range(0, len(means), step):
                signs = 1.0 - 2.0 * _parity(outcomes, entry.z_masks[lo:lo + step, None])
                means[lo:lo + step] = signs @ (counts / shots)
            total += float(entry.folded @ means)
        energies.append(total)
    assert result.exact == exact
    assert result.energies.tolist() == energies
    assert max(len(g.op) for g in groups) > 1 and result.total_shots > 100


@pytest.mark.parametrize("x,z", [([0, 1], [1]), ([1], []), ([[0, 1]], [[1, 0]]), (1, 1)])
def test_pauli_expectations_reject_mask_arrays_of_other_shapes(x, z):
    state = Statevector.computational_basis(2)
    with pytest.raises(ValueError, match="^x and z must be 1-D mask arrays of equal length"):
        pauli_expectations(state, x, z)


def test_spin_blocks_and_rdms_reject_odd_qubit_counts():
    """An electron on the top qubit of five has no orbital pair."""
    state = Statevector.computational_basis(5, 1 << 4)
    for read in (spin_blocks, spin_rdms):
        with pytest.raises(ValueError, match="^state has 5 qubits, expected two per orbital$"):
            read(state)


def test_expectation_linearity():
    rng = np.random.default_rng(3)
    state = _random_state(3, 4)
    terms1, terms2 = {}, {}
    for _ in range(10):
        s = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        terms1[s] = terms1.get(s, 0.0) + float(rng.normal())
        s = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        terms2[s] = terms2.get(s, 0.0) + float(rng.normal())
    total = {s: terms1.get(s, 0.0) + terms2.get(s, 0.0) for s in terms1.keys() | terms2.keys()}
    op1, op2 = PauliSum(3, terms1), PauliSum(3, terms2)
    lhs = expectation(state, PauliSum(3, total))
    rhs = expectation(state, op1) + expectation(state, op2)
    assert abs(lhs - rhs) < 1e-12


def test_expectation_matches_dense(h2_operator):
    state = _random_state(4, 8)
    dense = _dense_sum(h2_operator)
    oracle = float(np.real(np.vdot(state.amplitudes, dense @ state.amplitudes)))
    assert abs(expectation(state, h2_operator) - oracle) < 1e-10


def test_sample_group_stabilizer_is_exact():
    group = _group(2, ("Z0", 1.5), ("Z0 Z1", -0.5))
    state = Statevector.computational_basis(2, 0b01)
    rng = np.random.default_rng(0)
    sample = sample_group(state, group, shots=3, rng=rng)
    # eigenstate: every shot returns the same outcome, estimate is exact
    assert sample.energy == pytest.approx(-1.5 + 0.5)
    for shots in (0, -2, 2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="^shots must be a positive integer, got "):
            sample_group(state, group, shots=shots, rng=rng)
    assert sample_group(state, group, shots=np.int64(3), rng=rng).energy == sample.energy


def test_sample_group_unbiased_on_superposition():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    group = _group(1, ("Z0", 1.0))
    rng = np.random.default_rng(123)
    estimates = [
        sample_group(plus, group, shots=10_000, rng=rng).energy
        for _ in range(20)]
    # <Z> = 0; the averaged estimate should sit within 3 sigma of 0
    sigma = 1.0 / np.sqrt(10_000 * 20)
    assert abs(np.mean(estimates)) < 3 * sigma


@pytest.mark.parametrize("coeff", [1.0, -1.0])
def test_member_estimates_keep_the_folded_sign_of_zero_coefficients(coeff):
    """Y0 diagonalizes to -Z0; <Y0> = 1 on (|0> + i|1>)/sqrt(2).  The
    estimate's sign comes from the conjugation, whatever the coefficient's
    sign; a group holds no zero coefficient."""
    state = Statevector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    group = _group(1, ("Y0", coeff))
    sample = sample_group(state, group, shots=50, rng=np.random.default_rng(0))
    assert sample.member_estimates.tolist() == [1.0]


STREAM_PROBABILITIES = {
    "spread": np.array([0.1, 0.2, 0.05, 0.15, 0.3, 0.1, 0.04, 0.06]),
    "zeros": np.array([0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 0.25, 0.0]),
    "single": np.eye(8)[5],
    "one-qubit": np.array([0.3, 0.7]),
}


@pytest.mark.parametrize("shots", [1, 10_000])
@pytest.mark.parametrize("name", sorted(STREAM_PROBABILITIES))
def test_draws_keep_the_choice_random_stream(name, shots):
    """A draw is Generator.choice(p=...) outcome for outcome, and leaves the
    generator in the same state, so seeded runs keep their numbers."""
    probs = STREAM_PROBABILITIES[name]
    n = len(probs).bit_length() - 1
    state = Statevector(n, np.sqrt(probs))
    group = _group(n, ("Z0", 1.0))
    prepared = _PreparedGroup.build(state, group, _support(state))
    p = state.probabilities()
    p = p / p.sum()
    for seed in (0, 1, 2024):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = prepared.outcomes(shots, rng)
        assert np.array_equal(got, oracle.choice(len(p), size=shots, p=p))
        assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("block", [simulator.SIGN_BLOCK, 5])
def test_sample_group_matches_the_per_member_loop(monkeypatch, h4_operator, h4_ground, block):
    """A small SIGN_BLOCK splits the members x outcomes parity matrix."""
    monkeypatch.setattr(simulator, "SIGN_BLOCK", block)
    _, state = h4_ground
    for k, group in enumerate(si_grouping(h4_operator).groups):
        circuit = diagonalizing_circuit(group)
        z, signs = diagonalized_members(group, circuit)
        p = apply_circuit(state, circuit).probabilities()
        p = p / p.sum()
        for seed, shots in ((k, 1), (100 + k, 5000)):
            sample = sample_group(state, group, shots, np.random.default_rng(seed))
            outcomes = np.random.default_rng(seed).choice(len(p), size=shots, p=p)
            values, counts = np.unique(outcomes, return_counts=True)
            weights = counts / shots
            estimates, energy = [], 0.0
            for image, sign, (_, coeff) in zip(z.tolist(), signs.tolist(), group.members):
                mean = float(np.dot(weights, 1.0 - 2.0 * _parity(values, image)))
                estimates.append(sign * mean)
                energy += sign * coeff * mean
            np.testing.assert_allclose(sample.member_estimates, estimates, rtol=0, atol=1e-15)
            assert abs(sample.energy - energy) < 1e-12


def _scattered_state(n_qubits: int, seed: int) -> Statevector:
    """Random complex amplitudes on about half of the basis states."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps[rng.random(1 << n_qubits) < 0.5] = 0.0
    return Statevector(n_qubits, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("system", ["h4", "h6"])
def test_prepared_outcomes_are_the_full_vector_path(request, system):
    """On the support, the outcomes and probabilities are the nonzero entries
    of apply_circuit(state, circuit).probabilities() bit for bit, and the CDF
    is that vector's cumulative sum at those entries."""
    op = request.getfixturevalue(f"{system}_operator")
    _, ground = request.getfixturevalue(f"{system}_ground")
    groups = [g for grouping in (lf_grouping, rlf_grouping, si_grouping)
              for g in grouping(op).groups]
    for state in (ground, _scattered_state(op.n_qubits, 7)):
        for group in groups:
            form = canonical_diagonalizer(group)
            full = apply_circuit(state, diagonalizing_circuit(group)).probabilities()
            nonzero = np.flatnonzero(full)
            values, probs = _support_probabilities(state, form, _support(state))
            assert np.array_equal(values, nonzero)
            assert np.array_equal(probs, full[nonzero])
            prepared = _PreparedGroup.build(state, group, _support(state))
            cdf = full.cumsum()
            cdf /= cdf[-1]
            assert np.array_equal(prepared.values, nonzero)
            assert np.array_equal(prepared.cdf, cdf[nonzero])


@pytest.mark.parametrize("system", ["h4", "h6", "h8"])
def test_prepared_distributions_give_every_member_value(request, system):
    """<P> from each prepared group's outcome distribution, signed by its
    closed-form image, is pauli_expectations' value on the LF, RLF, SI and
    protocol groups."""
    op = request.getfixturevalue(f"{system}_operator")
    _, state = request.getfixturevalue(f"{system}_ground")
    records = run_protocol(request.getfixturevalue(f"{system}_tensors"),
                           request.getfixturevalue(f"{system}_rotations"), state)
    groups = [g for grouping in (lf_grouping, rlf_grouping, si_grouping)
              for g in grouping(op).groups]
    groups += [g for record in records for g in record.groups]
    values = []
    for group in groups:
        prepared = _PreparedGroup.build(state, group, _support(state))
        probs = np.diff(prepared.cdf, prepend=0.0)
        z_masks = prepared.z_masks.astype(prepared.values.dtype)
        parities = _parity(prepared.values[None, :], z_masks[:, None])
        values.append(prepared.signs * ((1.0 - 2.0 * parities) @ probs))
    exact = pauli_expectations(state, np.concatenate([g.op.x for g in groups]),
                               np.concatenate([g.op.z for g in groups]))
    assert np.max(np.abs(np.concatenate(values) - exact)) < 1e-12


@pytest.mark.parametrize("shots", [np.nan, np.inf, -np.inf, -5.0, -1e-12])
def test_finite_sample_rejects_bad_shot_budgets(shots):
    group = CommutingGroup(PauliSum(1, {PauliString.from_label(1, "Z0"): 1.0}), label="SI-3")
    state = Statevector.computational_basis(1)
    with pytest.raises(ValueError, match="^group 'SI-3': shot budget must be finite and "
                                         "non-negative, got "):
        finite_sample_experiment([(group, state, 4), (group, state, shots)], repetitions=2,
                                 seed=0)


@pytest.mark.parametrize("shots,drawn", [(0, 1), (0.0, 1), (0.2, 1), (3, 3), (2.5, 3)])
def test_finite_sample_draws_ceil_shots_and_at_least_one(shots, drawn):
    group = CommutingGroup(PauliSum(1, {PauliString.from_label(1, "Z0"): 1.0}))
    state = Statevector.computational_basis(1)
    assert finite_sample_experiment([(group, state, shots)], 2, seed=0).total_shots == drawn


def test_prepared_group_rejects_other_qubit_counts():
    group = CommutingGroup(PauliSum(2, {PauliString.from_label(2, "Z0"): 1.0}))
    state = Statevector.computational_basis(1)
    with pytest.raises(ValueError, match="^group and state qubit counts differ$"):
        _PreparedGroup.build(state, group, _support(state))


def test_exact_plan_energy_is_the_sum_of_entry_expectations(h4_operator, h4_ground):
    """Entries on two states, interleaved, one group repeated: the one call
    per distinct state gives each entry its own group's value, in plan order.
    The sampler reports that reference and prepares each entry on its own
    state's support: its draws are those of entries prepared one by one."""
    _, ground = h4_ground
    other = _scattered_state(h4_operator.n_qubits, 3)
    groups = lf_grouping(h4_operator).groups
    plan = [(group, (ground, other)[k % 2], 50) for k, group in enumerate(groups)]
    plan.append(plan[0])
    want = sum(expectation(state, group.op) for group, state, _ in plan)
    exact = exact_plan_energy(plan)
    assert abs(exact - want) <= 1e-12
    result = finite_sample_experiment(plan, repetitions=2, seed=4)
    assert result.exact == exact
    rng = np.random.default_rng(4)
    one_by_one = [sum(_PreparedGroup.build(state, group, _support(state)).draw(shots, rng).energy
                      for group, state, shots in plan) for _ in range(2)]
    assert result.energies.tolist() == one_by_one


def test_finite_sample_identity_only_has_zero_error():
    group = CommutingGroup(PauliSum(2, {PauliString(2): 0.7}))
    state = Statevector.computational_basis(2)
    result = finite_sample_experiment([(group, state, 10)], repetitions=5,
                                      seed=1)
    assert np.max(result.errors) == 0.0
    assert result.exact == pytest.approx(0.7)


def test_finite_sample_error_shrinks_with_budget(h2_operator, h2_ground):
    _, state = h2_ground
    grouping = si_grouping(h2_operator)
    from hcbmeasure.grouping import estimate_shots

    def run(epsilon, seed):
        est = estimate_shots(grouping, state, epsilon)
        plan = [
            (group, state, max(1, int(np.ceil(shots))))
            for group, shots in zip(grouping.groups, est.per_group)]
        return finite_sample_experiment(plan, repetitions=60, seed=seed)

    coarse = run(2e-3, seed=7)
    fine = run(5e-4, seed=7)
    assert fine.total_shots > coarse.total_shots
    assert fine.error_of_mean < coarse.error_of_mean
