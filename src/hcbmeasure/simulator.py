"""Dense statevector simulation for paired-orbital circuits.

Qubit j is spin orbital j (see encoding.py for the orbital->qubit maps);
basis index bit j holds its occupation.  Capped at 16 qubits: every state
is a full 2^n complex vector.

Circuits are circuits.Circuit gate lists.  The fermionic gates (GIVENS,
PAIR_HOP) act with exact Jordan-Wigner phases directly on the amplitudes,
so no Trotter or matrix exponentials are involved.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .circuits import Circuit
from .encoding import check_ordering, spin_orbital_index
from .groups import CommutingGroup, diagonalized_members, diagonalizing_circuit
from .paulis import PauliString, PauliSum
from .rotations import OrbitalRotation, PairingGraph, givens_factorize

MAX_QUBITS = 16
DENSE_EIG_LIMIT = 4096
NORM_TOL = 1e-10
LEAK_TOL = 1e-9  # largest element a ground-state block may send out of itself
RDM_TOL = 1e-10  # largest Hermiticity or trace gap a built RDM may show
SIGN_BLOCK = 1 << 21  # entries of one pauli_expectations sign matrix (16 MiB)
START_SPREAD = 0.8  # optimize_ansatz draws start angles from [-START_SPREAD, START_SPREAD]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"amplitude vector has shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1")
        self.amplitudes = amps

    @classmethod
    def computational_basis(cls, n_qubits: int, bits: int = 0) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    return np.bitwise_count(values & mask).astype(np.int64) & 1


def _annihilated(amps: np.ndarray, removed: np.ndarray, sign_masks: np.ndarray) -> np.ndarray:
    """Rows a_{modes} psi, one per bitmask in ``removed``, on the states they reach.

    Row r holds <t| a_b a_a |psi> (or <t| a_a |psi> for a one-bit mask) for
    a < b the set bits of removed[r], over the basis states t whose popcount
    is a popcount of psi's support minus the number of bits removed.  Each
    entry is psi[t | removed] times the Jordan-Wigner parity of t under
    sign_masks[r]; it is zero where t already holds one of the removed bits.
    """
    idx = np.arange(len(amps), dtype=np.int64)
    counts = np.bitwise_count(idx)
    k = int(np.bitwise_count(removed[0]))
    present = np.unique(counts[amps != 0])
    targets = idx[np.isin(counts, present - k)]
    free = (targets[None, :] & removed[:, None]) == 0
    signs = 1.0 - 2.0 * _parity(targets[None, :], sign_masks[:, None])
    return np.where(free, signs * amps[targets[None, :] | removed[:, None]], 0.0)


def spin_summed_rdms(
    state: Statevector, ordering: str = "interleaved"
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-summed 1- and 2-RDM of the state under the given qubit ordering.

    D[k,l] = sum_s <a+_ks a_ls> and
    G[k,l,m,n] = sum_{s1,s2} <a+_{k s1} a+_{l s2} a_{n s2} a_{m s1}>,
    so <H> = e_nuc + sum h*D + 1/2 sum g*G in the IntegralTensors
    convention (see integrals.rdm_expectation).  The spin-orbital 2-RDM
    comes from one Gram matrix of the vectors a_b a_a psi over pairs a < b,
    expanded by antisymmetry.  No particle number is assumed: the vectors
    span every popcount of psi's support, so any state is exact.  The traces
    are checked against <N> and <N(N-1)> before returning.
    """
    check_ordering(ordering)
    n_qubits = state.n_qubits
    if n_qubits % 2:
        raise ValueError(f"state has {n_qubits} qubits, expected two per orbital")
    n = n_qubits // 2
    amps = state.amplitudes
    bits = np.int64(1) << np.arange(n_qubits, dtype=np.int64)
    singles = _annihilated(amps, bits, bits - 1)
    one = np.conj(singles) @ singles.T  # <a+_p a_q>
    a, b = np.triu_indices(n_qubits, 1)
    pairs = _annihilated(amps, bits[a] | bits[b], (bits[a] - 1) ^ (bits[b] - 1))
    block = np.conj(pairs) @ pairs.T  # <a+_{a_i} a+_{b_i} a_{b_j} a_{a_j}>
    two = np.zeros((n_qubits,) * 4, dtype=complex)
    ai, bi = a[:, None], b[:, None]
    two[ai, bi, a, b] = block
    two[bi, ai, a, b] = -block
    two[ai, bi, b, a] = -block
    two[bi, ai, b, a] = block
    so = np.array([[spin_orbital_index(k, s, n, ordering) for s in (0, 1)]
                   for k in range(n)])
    one_rdm = sum(one[np.ix_(so[:, s], so[:, s])] for s in (0, 1))
    two_rdm = sum(two[np.ix_(so[:, s1], so[:, s2], so[:, s1], so[:, s2])]
                  for s1 in (0, 1) for s2 in (0, 1))
    _check_rdms(state, one_rdm, two_rdm)
    return one_rdm, two_rdm


def _check_rdms(state: Statevector, one_rdm: np.ndarray, two_rdm: np.ndarray) -> None:
    """Raise unless D is Hermitian, tr D = <N> and sum_kl G[k,l,k,l] = <N(N-1)>."""
    probs = state.probabilities()
    counts = np.bitwise_count(np.arange(len(probs), dtype=np.int64)).astype(float)
    gaps = {
        "1-RDM Hermiticity": float(np.max(np.abs(one_rdm - one_rdm.conj().T))),
        "1-RDM trace vs <N>": abs(np.trace(one_rdm) - probs @ counts),
        "2-RDM trace vs <N(N-1)>": abs(np.einsum("klkl->", two_rdm)
                                       - probs @ (counts * (counts - 1))),
    }
    for name, gap in gaps.items():
        if gap > RDM_TOL:
            raise ValueError(f"{name} gap {gap:.3e} exceeds {RDM_TOL:g}")


def _apply_excitation(amps: np.ndarray, qubits: tuple[int, ...], angle: float) -> None:
    """exp[angle/2 (A - A^dagger)] on the amplitudes, in place.

    qubits lists the created qubits c_1..c_k, then the annihilated ones
    a_1..a_k, and A = a+_{c_1}..a+_{c_k} a_{a_k}..a_{a_1} (GIVENS (i, j):
    a+_i a_j; PAIR_HOP (pu, pd, qu, qd): a+_pu a+_pd a_qd a_qu).  A sends
    each basis state with every a set and every c clear to one partner,
    with the Jordan-Wigner sign of applying its ladders one at a time;
    the gate rotates each (partner, state) amplitude pair.
    """
    half = len(qubits) // 2
    created, annihilated = qubits[:half], qubits[half:]
    c_mask = sum(1 << q for q in created)
    a_mask = sum(1 << q for q in annihilated)
    idx = np.arange(len(amps), dtype=np.int64)
    src = idx[(idx & (a_mask | c_mask)) == a_mask]
    dst = src ^ (a_mask | c_mask)
    state = src.copy()
    total = np.zeros(len(src), dtype=np.int64)
    for q in annihilated + created[::-1]:
        total += np.bitwise_count(state & ((1 << q) - 1)).astype(np.int64)
        state ^= 1 << q
    sign = 1.0 - 2.0 * (total & 1)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    at_dst, at_src = amps[dst], amps[src]
    amps[dst] = c * at_dst + sign * s * at_src
    amps[src] = c * at_src - sign * s * at_dst


def _bits_view(tensor: np.ndarray, *fixed: tuple[int, int]) -> np.ndarray:
    """View of the amplitudes whose (qubit, bit) pairs in `fixed` hold.

    `tensor` is the state reshaped to (2,)*n, where bit j of a basis index
    lives on axis n-1-j.  Slices, not integers, keep every axis, so even a
    view with every qubit fixed stays an array that writes through.
    """
    index = [slice(None)] * tensor.ndim
    for qubit, bit in fixed:
        index[tensor.ndim - 1 - qubit] = slice(bit, bit + 1)
    return tensor[tuple(index)]


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    kept = a.copy()
    a[...] = b
    b[...] = kept


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """The state after the circuit's gates; the input state is left unchanged.

    Every gate acts in place on one working copy of the amplitudes: the
    Clifford gates (H, S, X, Z, CNOT, CZ) on strided views of it reshaped
    to (2,)*n, GIVENS and PAIR_HOP through _apply_excitation.
    """
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    amps = state.amplitudes.copy()
    tensor = amps.reshape((2,) * state.n_qubits)
    for gate in circuit.gates:
        if gate.name in ("GIVENS", "PAIR_HOP"):
            _apply_excitation(amps, gate.qubits, gate.angle)
        elif gate.name == "CNOT":
            c, t = gate.qubits
            _swap(_bits_view(tensor, (c, 1), (t, 0)), _bits_view(tensor, (c, 1), (t, 1)))
        elif gate.name == "CZ":
            a, b = gate.qubits
            _bits_view(tensor, (a, 1), (b, 1))[...] *= -1.0
        else:
            (q,) = gate.qubits
            low, high = _bits_view(tensor, (q, 0)), _bits_view(tensor, (q, 1))
            if gate.name == "H":
                total = low + high
                np.subtract(low, high, out=high)
                high *= _SQRT_HALF
                np.multiply(total, _SQRT_HALF, out=low)
            elif gate.name == "S":
                high *= 1j
            elif gate.name == "X":
                _swap(low, high)
            else:  # Z
                high *= -1.0
    return Statevector(state.n_qubits, amps)


# ---------------------------------------------------------------------------
# orbital rotations as circuits


def _spin_pair(orbital: int, n_orbitals: int, ordering: str) -> tuple[int, int]:
    """The (spin-up, spin-down) qubits of a spatial orbital in the layout."""
    return (spin_orbital_index(orbital, 0, n_orbitals, ordering),
            spin_orbital_index(orbital, 1, n_orbitals, ordering))


def _add_orbital_rotation(circuit: Circuit, p: int, q: int, theta: float, ordering: str) -> None:
    """exp[theta/2 sum_s (a+_ps a_qs - h.c.)]: one GIVENS per spin, up first."""
    n = circuit.n_qubits // 2
    for i, j in zip(_spin_pair(p, n, ordering), _spin_pair(q, n, ordering)):
        circuit.add("GIVENS", i, j, angle=theta)


def rotation_circuit(
    rotation: OrbitalRotation, n_orbitals: int, ordering: str = "interleaved"
) -> Circuit:
    """Circuit whose action on states matches rotating the integral tensors."""
    check_ordering(ordering)
    if rotation.n_orbitals != n_orbitals:
        raise ValueError("rotation size does not match orbital count")
    circuit = Circuit(2 * n_orbitals)
    factors = rotation.factors
    if not factors:
        factors, signs = givens_factorize(rotation.matrix)
        for k, s in enumerate(signs):
            if s < 0:
                for qubit in _spin_pair(k, n_orbitals, ordering):
                    circuit.add("Z", qubit)
    for p, q, theta in factors:
        _add_orbital_rotation(circuit, p, q, theta, ordering)
    return circuit


# ---------------------------------------------------------------------------
# pair ansatz (SPA preparation plus per-graph correlation blocks)


@dataclass(frozen=True)
class PairAnsatz:
    """Parameterized pair-correlated circuit over a sequence of pairing graphs.

    The first graph seeds one opposite-spin pair per edge and correlates it
    with a pair-hop rotation (one angle per edge), followed by a single
    inverse orbital rotation over the same graph (one angle).  Every later
    graph contributes a rotated pair-hop block
    rotate(theta) -> hop(phi) -> rotate(-theta) with two angles.
    Extra two-orbital rotations may be appended, one angle each.
    Pair hops are PAIR_HOP gates, real (Y-axis) rotations whose cos/sin
    amplitudes can weight the two pair configurations as ground-state
    optimization needs; orbital rotations are spin-summed GIVENS pairs.
    """

    n_orbitals: int
    graphs: tuple[PairingGraph, ...]
    ordering: str = "interleaved"
    extra_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        check_ordering(self.ordering)
        if not self.graphs:
            raise ValueError("at least one pairing graph is required")
        for graph in self.graphs:
            if graph.n_orbitals != self.n_orbitals:
                raise ValueError("graph size does not match orbital count")
        for p, q in self.extra_pairs:
            if not (0 <= p < self.n_orbitals and 0 <= q < self.n_orbitals and p != q):
                raise ValueError(f"invalid extra pair ({p}, {q})")

    @property
    def n_electrons(self) -> int:
        return 2 * len(self.graphs[0].edges)

    @property
    def n_parameters(self) -> int:
        first = len(self.graphs[0].edges) + 1
        return first + 2 * (len(self.graphs) - 1) + len(self.extra_pairs)

    def circuit(self, params: np.ndarray) -> Circuit:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_parameters,):
            raise ValueError(
                f"expected {self.n_parameters} parameters, got shape {params.shape}"
            )
        n, ordering = self.n_orbitals, self.ordering
        circuit = Circuit(2 * n)
        first = self.graphs[0]
        for (p, q), angle in zip(first.edges, params[: len(first.edges)]):
            for qubit in _spin_pair(p, n, ordering):
                circuit.add("X", qubit)
            circuit.add("PAIR_HOP", *_spin_pair(p, n, ordering), *_spin_pair(q, n, ordering),
                        angle=angle)
        k = len(first.edges)
        theta1 = params[k]
        k += 1
        for p, q in reversed(first.edges):
            _add_orbital_rotation(circuit, p, q, -theta1, ordering)
        for graph in self.graphs[1:]:
            theta, phi = params[k], params[k + 1]
            k += 2
            for p, q in graph.edges:
                _add_orbital_rotation(circuit, p, q, theta, ordering)
            for p, q in graph.edges:
                circuit.add("PAIR_HOP", *_spin_pair(p, n, ordering),
                            *_spin_pair(q, n, ordering), angle=phi)
            for p, q in reversed(graph.edges):
                _add_orbital_rotation(circuit, p, q, -theta, ordering)
        for (p, q), angle in zip(self.extra_pairs, params[k:]):
            _add_orbital_rotation(circuit, p, q, angle, ordering)
        return circuit

    def prepare(self, params: np.ndarray) -> Statevector:
        state = Statevector.computational_basis(2 * self.n_orbitals)
        return apply_circuit(state, self.circuit(params))


def build_pair_ansatz(
    graphs: list[PairingGraph],
    ordering: str = "interleaved",
    extra_pairs: list[tuple[int, int]] | None = None,
) -> PairAnsatz:
    n_orbitals = graphs[0].n_orbitals
    return PairAnsatz(
        n_orbitals=n_orbitals,
        graphs=tuple(graphs),
        ordering=ordering,
        extra_pairs=tuple(extra_pairs or ()),
    )


def optimize_ansatz(
    ansatz: PairAnsatz,
    op: PauliSum,
    restarts: int = 6,
    seed: int = 11,
) -> tuple[np.ndarray, float]:
    """Variationally minimize <psi(params)|op|psi(params)>.

    Multi-start local minimization: ``restarts`` L-BFGS-B runs from seeded
    uniform starting points in [-START_SPREAD, START_SPREAD], keeping the
    best optimum.  Deterministic in ``seed``.  Returns (best parameters, best energy).
    Each evaluation is one sparse matvec on the ansatz's spin block in its
    layout (see :func:`_sector_cost`).
    """
    return _minimize(ansatz, _sector_cost(ansatz, op), restarts, seed)


def ground_state_and_ansatz_optimum(
    ansatz: PairAnsatz, op: PauliSum, restarts: int = 6, seed: int = 11
) -> tuple[tuple[float, Statevector], tuple[np.ndarray, float]]:
    """(ground_state(op, N, ansatz.ordering), optimize_ansatz(ansatz, op,
    restarts, seed)) for the ansatz's electron count N, from one build of
    op's block matrix."""
    _check_ansatz_operator(ansatz, op)
    block, mat = _block_operator(op, ansatz.n_electrons, ansatz.ordering)
    exact = _block_ground_state(op.n_qubits, block, mat)
    cost = _cost_on_block(ansatz, block, mat)
    return exact, _minimize(ansatz, cost, restarts, seed)


def _minimize(
    ansatz: PairAnsatz, cost, restarts: int, seed: int
) -> tuple[np.ndarray, float]:
    import scipy.optimize

    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best_x: np.ndarray | None = None
    best_f = np.inf
    for _ in range(restarts):
        start = rng.uniform(-START_SPREAD, START_SPREAD, ansatz.n_parameters)
        result = scipy.optimize.minimize(cost, start, method="L-BFGS-B")
        if result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x, dtype=float).copy()
    assert best_x is not None
    return best_x, best_f


def _check_ansatz_operator(ansatz: PairAnsatz, op: PauliSum) -> None:
    n_qubits = 2 * ansatz.n_orbitals
    if op.n_qubits != n_qubits:
        raise ValueError(
            f"operator acts on {op.n_qubits} qubits, the ansatz prepares {n_qubits}")


def _sector_cost(ansatz: PairAnsatz, op: PauliSum):
    """params -> <psi(params)|op|psi(params)> on the ansatz's spin block.

    Every ansatz gate conserves Nα and Nβ, and the reference puts one
    electron of each spin per pair, so the value is <v|M|v> with M op's
    Nα = Nβ block matrix in the ansatz's layout (built here once, by the
    builder ground_state uses) and v the prepared amplitudes on the block.
    A prepared state with any nonzero amplitude outside the block raises
    instead of being projected.
    """
    _check_ansatz_operator(ansatz, op)
    return _cost_on_block(
        ansatz, *_block_operator(op, ansatz.n_electrons, ansatz.ordering))


def _cost_on_block(ansatz: PairAnsatz, block: np.ndarray, mat: scipy.sparse.csr_matrix):
    outside = np.ones(1 << (2 * ansatz.n_orbitals), dtype=bool)
    outside[block] = False
    half = ansatz.n_electrons // 2

    def cost(params: np.ndarray) -> float:
        amps = ansatz.prepare(params).amplitudes
        if np.any(amps[outside]):
            raise ValueError(
                f"prepared state leaves the {ansatz.n_electrons}-electron sector's "
                f"(N_alpha, N_beta) = ({half}, {half}) block")
        v = amps[block]
        return _real_value(np.vdot(v, mat @ v))

    return cost


# ---------------------------------------------------------------------------
# expectations


def _real_value(total: complex) -> float:
    """The real part of an expectation of a Hermitian operator; raises on a
    larger imaginary residue than rounding leaves."""
    if abs(total.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary residue {total.imag:.3e}")
    return float(total.real)


def _y_phase(x_mask: int, z_mask: int) -> complex:
    """i^|x&z|: a string is this phase times X^x Z^z, one i per Y = iXZ."""
    return 1.0j ** ((x_mask & z_mask).bit_count() % 4)


def _x_patterns(strings: Sequence[PauliString], n_qubits: int) -> dict[int, dict[int, list[int]]]:
    """x_mask -> z_mask -> positions of the strings with those masks, every
    level in order of first appearance.

    Every string of an x_mask bucket maps basis state b to b ^ x_mask, so
    pauli_expectations takes one overlap per bucket and the block builder
    finds each source state's target once per bucket.
    """
    buckets: dict[int, dict[int, list[int]]] = {}
    for i, string in enumerate(strings):
        if string.n_qubits != n_qubits:
            raise ValueError("string and state qubit counts differ")
        buckets.setdefault(string.x_mask, {}).setdefault(string.z_mask, []).append(i)
    return buckets


def pauli_expectations(state: Statevector, strings: Sequence[PauliString]) -> np.ndarray:
    """<P> of every string, in one pass per distinct X-pattern.

    The strings sharing an x_mask share the overlap conj(psi[b ^ x]) psi[b],
    taken only over the basis states b where both amplitudes are nonzero;
    their values are one product of a sign matrix (-1)^|b & z|, one row per
    distinct z_mask and at most SIGN_BLOCK entries at a time, with that
    overlap, times each string's i^|x&z|.  Repeated strings are evaluated
    once.
    """
    amps = state.amplitudes
    support = np.flatnonzero(amps)
    psi = amps[support]
    values = np.empty(len(strings))
    for x_mask, by_z in _x_patterns(strings, state.n_qubits).items():
        overlap = np.conj(amps[support ^ x_mask]) * psi
        reached = np.flatnonzero(overlap)
        basis, overlap = support[reached], overlap[reached]
        z_masks = list(by_z)
        step = max(1, SIGN_BLOCK // max(1, len(basis)))
        for lo in range(0, len(z_masks), step):
            block = z_masks[lo:lo + step]
            z = np.array(block, dtype=np.int64)
            signs = 1.0 - 2.0 * _parity(basis[None, :], z[:, None])
            re, im = signs @ overlap.real, signs @ overlap.imag
            # the real part of i^p (re + i im), p = |x & z| mod 4
            power = np.bitwise_count(z & x_mask) % 4
            for z_mask, value in zip(block, np.choose(power, (re, -im, -re, im)).tolist()):
                values[by_z[z_mask]] = value
    return values


def expectation(state: Statevector, op: PauliSum) -> float:
    """<state| op |state> = sum_i c_i <P_i>, every <P_i> from one
    pauli_expectations pass over the state's support."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state qubit counts differ")
    terms = op.terms()
    coeffs = np.array([coeff for _, coeff in terms])
    return float(coeffs @ pauli_expectations(state, [string for string, _ in terms]))


# ---------------------------------------------------------------------------
# ground states


def _spin_block(op: PauliSum, n_electrons: int, ordering: str) -> tuple[np.ndarray, int]:
    """(block states ascending, Nα): the basis states with n_electrons set
    bits, Nα = ceil(N/2) of them on the layout's spin-up qubits."""
    check_ordering(ordering)
    n_qubits = op.n_qubits
    if n_qubits % 2:
        raise ValueError(f"operator acts on {n_qubits} qubits, expected two per orbital")
    if not 0 <= n_electrons <= n_qubits:
        raise ValueError(f"n_electrons {n_electrons} out of range for {n_qubits} qubits")
    n = n_qubits // 2
    up = sum(1 << spin_orbital_index(k, 0, n, ordering) for k in range(n))
    n_up = (n_electrons + 1) // 2
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    keep = (np.bitwise_count(idx) == n_electrons) & (np.bitwise_count(idx & up) == n_up)
    return idx[keep], n_up


def _block_operator(
    op: PauliSum, n_electrons: int, ordering: str
) -> tuple[np.ndarray, scipy.sparse.csr_matrix]:
    """The spin block of n_electrons in the layout (see _spin_block) and
    op's matrix on it.

    Every element from a block state into the N-electron sector is
    computed, those that land outside the block too; raises unless each
    of those is at most LEAK_TOL (op mixes Nα and Nβ, or is read in the
    wrong layout) and unless the block matrix is Hermitian.  So the block
    is an invariant subspace of op on the N sector, and an eigenpair of
    the block matrix is one of op.
    """
    block, n_up = _spin_block(op, n_electrons, ordering)
    position = np.full(1 << op.n_qubits, -1, dtype=np.int64)
    position[block] = np.arange(len(block))
    rows, cols, vals = [], [], []
    leak = 0.0
    terms = op.terms()
    for x_mask, by_z in _x_patterns([s for s, _ in terms], op.n_qubits).items():
        target = block ^ x_mask
        src = np.flatnonzero(np.bitwise_count(target) == n_electrons)
        if len(src) == 0:
            continue
        sources = block[src]
        amp = np.zeros(len(src), dtype=complex)  # entry <target| op |source>
        for z_mask, positions in by_z.items():
            for i in positions:
                phased = terms[i][1] * _y_phase(x_mask, z_mask)
                amp += phased * (1.0 - 2.0 * _parity(sources, z_mask))
        tgt = position[target[src]]
        inside = tgt >= 0
        if not np.all(inside):
            leak = max(leak, float(np.max(np.abs(amp[~inside]))))
        rows.append(tgt[inside])
        cols.append(src[inside])
        vals.append(amp[inside])
    if leak > LEAK_TOL:
        raise ValueError(
            f"operator leaks {leak:.3e} out of the {ordering} layout's "
            f"(N_alpha, N_beta) = ({n_up}, {n_electrons - n_up}) block; "
            f"it is not spin-free in that layout")
    dim = len(block)
    if not rows:
        return block, scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    herm_gap = abs(mat - mat.getH()).max()
    if herm_gap > 1e-9:
        raise ValueError(f"operator is not Hermitian on the block (gap {herm_gap:.3e})")
    return block, mat


def ground_state(
    op: PauliSum, n_electrons: int, ordering: str = "interleaved"
) -> tuple[float, Statevector]:
    """Lowest eigenpair of op on the spin block of the n_electrons sector.

    The block holds the basis states with n_electrons set bits, ceil(N/2)
    of them on the spin-up qubits of the given layout (Nα = Nβ, or
    Nα = Nβ + 1 for odd N).  Every operator build_qubit_hamiltonian
    returns is spin-free, and each spin multiplet of a spin-free operator
    has a member with M_s = 0 (or +1/2), so the block's lowest energy is
    the N sector's; for a degenerate ground state the returned vector is
    that member.  The block builder raises when op moves a block state
    elsewhere in the N sector (see _block_operator), so a wrong layout or
    a spin-mixing operator fails instead of returning a block-only answer.

    Uses a dense solve for the lowest eigenpair only up to the dense cutoff
    (ARPACK cannot take 1-dimensional blocks), iterative (Lanczos-type)
    diagonalization above it, and verifies the eigenpair residual before
    returning.  Lanczos starts from a fixed generic (seeded normal) vector,
    so the result is the same in every process.
    """
    return _block_ground_state(op.n_qubits, *_block_operator(op, n_electrons, ordering))


def _block_ground_state(
    n_qubits: int, block: np.ndarray, mat: scipy.sparse.csr_matrix
) -> tuple[float, Statevector]:
    energy, vec = _lowest_eigenpair(mat)
    full = np.zeros(1 << n_qubits, dtype=complex)
    full[block] = vec
    return energy, Statevector(n_qubits, full)


def _lowest_eigenpair(mat: scipy.sparse.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian sparse matrix, residual-checked."""
    dim = mat.shape[0]
    if dim <= DENSE_EIG_LIMIT:
        vals, vecs = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, 0])
    else:
        # a uniform start can be orthogonal to a symmetric ground state
        start = np.random.default_rng(1).normal(size=dim)
        vals, vecs = scipy.sparse.linalg.eigsh(mat, k=1, which="SA", maxiter=5000, v0=start)
    energy, vec = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(mat @ vec - energy * vec))
    if residual > 1e-8:
        raise ValueError(f"eigenpair residual {residual:.3e} too large")
    return energy, vec


# ---------------------------------------------------------------------------
# sampling


@dataclass
class GroupSample:
    """Finite-shot estimate of one commuting group's energy contribution."""

    label: str
    shots: int
    member_estimates: np.ndarray  # estimated <P_i> of the original strings
    energy: float  # sum_i c_i <P_i>_est


@dataclass(frozen=True)
class _PreparedGroup:
    """A group made ready to sample on one state.

    z_masks and folded: each member's diagonal image and folded coefficient
    (sign * original coefficient); signs carries that sign back to the
    original string's estimate.  cdf: cumulative outcome distribution of
    the state after the diagonalizing circuit, built as Generator.choice
    builds it, so a draw consumes the same random stream as
    rng.choice(len(p), size=shots, p=p).
    """

    label: str
    z_masks: np.ndarray
    folded: np.ndarray
    signs: np.ndarray
    cdf: np.ndarray

    @classmethod
    def build(cls, state: Statevector, group: CommutingGroup) -> "_PreparedGroup":
        diag = diagonalizing_circuit(group)
        members = diagonalized_members(group, diag)
        z_masks = np.array([image.z_mask for image, _ in members], dtype=np.int64)
        folded = np.array([coeff for _, coeff in members], dtype=float)
        # folding negates, which flips the sign bit of a zero coefficient too
        signs = np.copysign(1.0, folded) * np.copysign(1.0, [c for _, c in group.members])
        probs = apply_circuit(state, diag).probabilities()
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        return cls(group.label, z_masks, folded, signs, cdf)

    def outcomes(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self.cdf.searchsorted(rng.random(shots), side="right")

    def draw(self, shots: int, rng: np.random.Generator) -> GroupSample:
        values, counts = np.unique(self.outcomes(shots, rng), return_counts=True)
        weights = counts / shots
        # <Z-string> per member: a members x outcomes sign matrix against
        # the outcome weights, at most SIGN_BLOCK entries at a time
        means = np.empty(len(self.z_masks))
        step = max(1, SIGN_BLOCK // len(values))
        for start in range(0, len(means), step):
            block = self.z_masks[start:start + step, None]
            means[start:start + step] = (1.0 - 2.0 * _parity(values, block)) @ weights
        return GroupSample(self.label, shots, self.signs * means, float(self.folded @ means))


def sample_group(
    state: Statevector,
    group: CommutingGroup,
    shots: int,
    rng: np.random.Generator,
) -> GroupSample:
    """Measure all members of a fully-commuting group with shared shots."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return _PreparedGroup.build(state, group).draw(shots, rng)


@dataclass
class SampledEnergies:
    """Repeated finite-shot energy estimates against an exact reference."""

    energies: np.ndarray
    exact: float
    total_shots: int

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.energies - self.exact)

    @property
    def error_of_mean(self) -> float:
        """|average estimate - exact|: the averaged run's residual bias.

        Repetition averaging shrinks the sampling noise by 1/sqrt(reps),
        so this is the quantity the shot budget promises to keep below
        the target precision; single-run |errors| stay sqrt(groups)-fold
        larger because per-group budgets each admit precision-level noise.
        """
        return float(abs(np.mean(self.energies) - self.exact))


def finite_sample_experiment(
    plan: list[tuple[CommutingGroup, Statevector, int]],
    repetitions: int,
    seed: int,
) -> SampledEnergies:
    """Sample every (group, state, shots) entry `repetitions` times.

    The exact reference is the sum of exact group expectations, so the
    reported errors isolate sampling noise for the measured operator set.
    Each entry is prepared once: its commutation is certified, its
    diagonalizing circuit built and applied, and the outcome CDF formed.
    A repetition then only draws: ceil(shots) (at least one) uniforms from
    the one generator seeded by `seed`, located in the CDF as
    Generator.choice(p=...) would locate them, and one members x outcomes
    parity product turns the outcome counts into every member's estimate.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rng = np.random.default_rng(seed)
    prepared = []
    exact = 0.0
    for group, state, shots in plan:
        exact += expectation(state, group.to_sum())
        prepared.append((_PreparedGroup.build(state, group), max(1, int(np.ceil(shots)))))
    energies = np.empty(repetitions)
    for rep in range(repetitions):
        total = 0.0
        for entry, shots in prepared:
            total += entry.draw(shots, rng).energy
        energies[rep] = total
    total_shots = sum(shots for _, shots in prepared)
    return SampledEnergies(energies, exact, total_shots)
