"""Statevector simulation: gates, ansatz, eigensolver, finite-shot sampling."""

import numpy as np
import pytest
import scipy.sparse
from conftest import circuit_unitary, full_vector_expectation
from scipy.linalg import expm

import hcbmeasure.simulator as simulator
from hcbmeasure.circuits import Circuit, Gate
from hcbmeasure.encoding import ORDERINGS, build_qubit_hamiltonian, spin_orbital_index
from hcbmeasure.grouping import si_grouping
from hcbmeasure.groups import CommutingGroup, diagonalized_members, diagonalizing_circuit
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
    _lowest_eigenpair,
    _parity,
    _sector_cost,
    _PreparedGroup,
    _x_patterns,
    _y_phase,
    apply_circuit,
    build_pair_ansatz,
    expectation,
    finite_sample_experiment,
    ground_state,
    ground_state_and_ansatz_optimum,
    optimize_ansatz,
    pauli_expectations,
    rotation_circuit,
    sample_group,
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
    terms = op.terms()
    for x_mask, by_z in _x_patterns([s for s, _ in terms], op.n_qubits).items():
        target = sector ^ x_mask
        src = np.flatnonzero(np.bitwise_count(target) == n_electrons)
        amp = np.zeros(len(src), dtype=complex)
        for z_mask, (i,) in by_z.items():
            phased = terms[i][1] * _y_phase(x_mask, z_mask)
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


def _spin_counts(state: Statevector, ordering: str) -> set[tuple[int, int]]:
    """The (N_alpha, N_beta) of every basis state in the state's support."""
    n = state.n_qubits // 2
    up = sum(1 << spin_orbital_index(k, 0, n, ordering) for k in range(n))
    support = np.flatnonzero(state.amplitudes)
    n_up = np.bitwise_count(support & up)
    return set(zip(n_up.tolist(), (np.bitwise_count(support) - n_up).tolist()))


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
    assert _spin_counts(state, ordering) == {(n // 2, n // 2)}


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
    assert _spin_counts(state, ordering) == {(2, 1)}
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


def test_expectation_basics():
    state = Statevector.computational_basis(2, 0b00)
    z0 = PauliString.from_label(2, "Z0")
    assert pauli_expectations(state, [z0])[0] == pytest.approx(1.0)
    state1 = Statevector.computational_basis(2, 0b01)
    assert pauli_expectations(state1, [z0])[0] == pytest.approx(-1.0)


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
    assert np.max(np.abs(pauli_expectations(state, strings) - want)) < 1e-12
    assert pauli_expectations(state, []).shape == (0,)
    with pytest.raises(ValueError, match="qubit counts differ"):
        pauli_expectations(state, [PauliString(2, 1, 0)])


def test_expectation_linearity():
    rng = np.random.default_rng(3)
    state = _random_state(3, 4)
    op1 = PauliSum(3)
    op2 = PauliSum(3)
    for _ in range(10):
        s = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        op1.add_term(s, float(rng.normal()))
        s = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        op2.add_term(s, float(rng.normal()))
    lhs = expectation(state, op1 + op2)
    rhs = expectation(state, op1) + expectation(state, op2)
    assert abs(lhs - rhs) < 1e-12


def test_expectation_matches_dense(h2_operator):
    state = _random_state(4, 8)
    dense = _dense_sum(h2_operator)
    oracle = float(np.real(np.vdot(state.amplitudes, dense @ state.amplitudes)))
    assert abs(expectation(state, h2_operator) - oracle) < 1e-10


def test_sample_group_stabilizer_is_exact():
    group = CommutingGroup(2, (
        (PauliString.from_label(2, "Z0"), 1.5),
        (PauliString.from_label(2, "Z0 Z1"), -0.5),
    ))
    state = Statevector.computational_basis(2, 0b01)
    rng = np.random.default_rng(0)
    sample = sample_group(state, group, shots=3, rng=rng)
    # eigenstate: every shot returns the same outcome, estimate is exact
    assert sample.energy == pytest.approx(-1.5 + 0.5)
    with pytest.raises(ValueError):
        sample_group(state, group, shots=0, rng=rng)


def test_sample_group_unbiased_on_superposition():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    group = CommutingGroup(1, ((PauliString.from_label(1, "Z0"), 1.0),))
    rng = np.random.default_rng(123)
    estimates = [
        sample_group(plus, group, shots=10_000, rng=rng).energy
        for _ in range(20)]
    # <Z> = 0; the averaged estimate should sit within 3 sigma of 0
    sigma = 1.0 / np.sqrt(10_000 * 20)
    assert abs(np.mean(estimates)) < 3 * sigma


@pytest.mark.parametrize("coeff", [1.0, 0.0, -0.0])
def test_member_estimates_keep_the_folded_sign_of_zero_coefficients(coeff):
    """Y0 diagonalizes to -Z0; <Y0> = 1 on (|0> + i|1>)/sqrt(2)."""
    state = Statevector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
    group = CommutingGroup(1, ((PauliString.from_label(1, "Y0"), coeff),))
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
    group = CommutingGroup(n, ((PauliString.from_label(n, "Z0"), 1.0),))
    prepared = _PreparedGroup.build(state, group)
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
        members = diagonalized_members(group, circuit)
        p = apply_circuit(state, circuit).probabilities()
        p = p / p.sum()
        for seed, shots in ((k, 1), (100 + k, 5000)):
            sample = sample_group(state, group, shots, np.random.default_rng(seed))
            outcomes = np.random.default_rng(seed).choice(len(p), size=shots, p=p)
            values, counts = np.unique(outcomes, return_counts=True)
            weights = counts / shots
            estimates, energy = [], 0.0
            for (image, folded), (_, coeff) in zip(members, group.members):
                mean = float(np.dot(weights, 1.0 - 2.0 * _parity(values, image.z_mask)))
                estimates.append(mean if folded == coeff else -mean)
                energy += folded * mean
            np.testing.assert_allclose(sample.member_estimates, estimates, rtol=0, atol=1e-15)
            assert abs(sample.energy - energy) < 1e-12


def test_finite_sample_identity_only_has_zero_error():
    group = CommutingGroup(2, ((PauliString(2), 0.7),))
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
