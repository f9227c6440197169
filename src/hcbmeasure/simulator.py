"""Dense statevector simulation for paired-orbital circuits.

Qubit j is spin orbital j (see encoding.py for the orbital->qubit maps);
basis index bit j holds its occupation.  Capped at 16 qubits: every state
is a full 2^n complex vector.

Circuits are circuits.Circuit gate lists.  The fermionic gates (GIVENS,
PAIR_HOP) act with exact Jordan-Wigner phases directly on the amplitudes,
so no Trotter or matrix exponentials are involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .circuits import Circuit
from .encoding import check_ordering, qubit_table
from .groups import CanonicalDiagonalizer, CommutingGroup, canonical_diagonalizer
from .paulis import PauliSum
from .rotations import OrbitalRotation, PairingGraph, givens_factorize

MAX_QUBITS = 16
DENSE_EIG_LIMIT = 1024
NORM_TOL = 1e-10
LEAK_TOL = 1e-9  # largest element a ground-state block may send out of itself
RDM_TOL = 1e-10  # largest Hermiticity or trace gap a built RDM may show
SIGN_BLOCK = 1 << 21  # entries of one _signed_sums sign matrix (16 MiB)
START_SPREAD = 0.8  # optimize_ansatz draws start angles from [-START_SPREAD, START_SPREAD]

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k; a string is i^|x&z| X^x Z^z, one i per Y = iXZ


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
        if not 0 <= bits < 1 << n_qubits:
            raise ValueError(f"basis state {bits} out of range for {n_qubits} qubits")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    return np.bitwise_count(values & mask) & 1


def _orbital_table(n_qubits: int, ordering: str) -> np.ndarray:
    """qubit_table of the layout for a state on n_qubits; raises on an odd count."""
    if n_qubits % 2:
        raise ValueError(f"state has {n_qubits} qubits, expected two per orbital")
    return qubit_table(n_qubits // 2, ordering)


def _support(state: Statevector) -> np.ndarray:
    """The basis states where the state's amplitude is nonzero, ascending."""
    return np.flatnonzero(state.amplitudes != 0)


def _held_blocks(support: np.ndarray, table: np.ndarray) -> list[tuple[int, int]]:
    """The (N_alpha, N_beta) blocks of the basis states in support, ascending,
    under the layout's qubit table (see encoding.qubit_table)."""
    up, down = (1 << table).sum(axis=0)
    held = np.zeros((len(table) + 1,) * 2, dtype=bool)
    held[np.bitwise_count(support & up), np.bitwise_count(support & down)] = True
    return [tuple(block) for block in np.argwhere(held).tolist()]


def _block_states(table: np.ndarray, blocks: list[tuple[int, int]]) -> np.ndarray:
    """The basis states of the layout's (N_alpha, N_beta) blocks, ascending.

    strings[o, s] is the bitmask that the orbital occupation o (bit k for
    orbital k) sets on spin s's qubits; a block's states are every up
    string of N_alpha orbitals OR every down string of N_beta.
    """
    n = len(table)
    occupations = np.arange(1 << n, dtype=np.int64)
    counts = np.bitwise_count(occupations)
    strings = ((occupations[:, None] >> np.arange(n)) & 1) @ (np.int64(1) << table)
    parts = [(strings[counts == a, 0, None] | strings[counts == b, 1]).ravel()
             for a, b in blocks]
    return np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]))


def _annihilated(amps: np.ndarray, targets: np.ndarray, removed: np.ndarray,
                 sign_masks: np.ndarray) -> np.ndarray:
    """Rows <t| a_.. |psi> over the basis states t in targets, one per bitmask
    in removed: psi[t | removed[r]] times the Jordan-Wigner parity of t under
    sign_masks[r], zero where t already holds one of the removed bits."""
    free = (targets[None, :] & removed[:, None]) == 0
    signs = 1.0 - 2.0 * _parity(targets[None, :], sign_masks[:, None])
    return np.where(free, signs * amps[targets[None, :] | removed[:, None]], 0.0)


def spin_rdms(
    state: Statevector, ordering: str = "interleaved"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-summed 1- and 2-RDM of the state under the given qubit ordering,
    and the opposite-spin part of the 2-RDM.

    D[k,l] = sum_s <a+_ks a_ls>,
    G[k,l,m,n] = sum_{s,t} G^st[k,l,m,n] with
    G^st[k,l,m,n] = <a+_ks a+_lt a_nt a_ms> = <a_lt a_ks psi, a_nt a_ms psi> and
    O = G^updown + G^downup, so
    <H> = e_nuc + sum h*D + 1/2 sum g*G in the IntegralTensors convention
    (see integrals.rdm_expectation).  D is the sum over s of the Gram
    matrices of the vectors a_ks psi, and G^upup, G^updown and G^downdown
    each one Gram matrix of the n^2 vectors a_lt a_ks psi; swapping both
    pairs gives G^downup[k,l,m,n] = G^updown[l,k,n,m].  The Gram matrices
    are taken over the basis states of the (N_alpha, N_beta) blocks those
    vectors reach from the blocks psi holds, built from the layout's spin
    strings (_block_states), so past the one read of the support no array
    spans the 2^n basis.  No block is assumed, so a state spanning several
    is exact too.  A state with no imaginary part is handled in real
    arithmetic.  All three arrays are complex.  The traces are checked
    against <N> and <N(N-1)> before returning.
    """
    table = _orbital_table(state.n_qubits, ordering)
    n = len(table)
    bits = np.int64(1) << table
    amps = state.amplitudes
    support = _support(state)
    psi = amps[support]
    held = _held_blocks(support, table)
    if not np.any(psi.imag):
        amps = amps.real

    def gram(spins: tuple[int, ...], removed: np.ndarray, sign_masks: np.ndarray) -> np.ndarray:
        """The Gram matrix of the rows _annihilated returns, over the states
        of the blocks left after removing one electron per entry of spins."""
        a, b = spins.count(0), spins.count(1)
        targets = _block_states(table, [(na - a, nb - b) for na, nb in held
                                        if na >= a and nb >= b])
        rows = _annihilated(amps, targets, removed, sign_masks)
        return np.conj(rows) @ rows.T

    one_rdm = 0
    for s in (0, 1):
        one_rdm = one_rdm + gram((s,), bits[:, s], bits[:, s] - 1)
    blocks = {}
    for s, t in ((0, 0), (0, 1), (1, 1)):
        # row (k, l) is a_lt a_ks psi = sign(q - p) times the row for the
        # removed pair p | q: a_ks acts first, so the row flips sign when lt's
        # qubit q sits below ks's qubit p, and it vanishes when they are one
        # qubit.  Same-spin (k, l) and (l, k) share that row, so the Gram
        # matrix is taken once per distinct pair and signed afterwards.
        p, q = bits[:, s, None], bits[None, :, t]
        pairs, first, which = np.unique((p | q).ravel(), return_index=True,
                                        return_inverse=True)
        signs = np.sign(q - p).ravel()
        pair_gram = gram((s, t), pairs, ((p - 1) ^ (q - 1)).ravel()[first])
        blocks[s, t] = (np.outer(signs, signs) * pair_gram[np.ix_(which, which)]
                        ).reshape((n,) * 4)
    blocks[1, 0] = blocks[0, 1].transpose(1, 0, 3, 2)
    two_rdm = blocks[0, 0] + blocks[0, 1] + blocks[1, 0] + blocks[1, 1]
    _check_rdms(support, psi, one_rdm, two_rdm)
    return (one_rdm.astype(complex, copy=False), two_rdm.astype(complex, copy=False),
            (blocks[0, 1] + blocks[1, 0]).astype(complex, copy=False))


def spin_blocks(state: Statevector, ordering: str = "interleaved") -> list[tuple[int, int]]:
    """The (N_alpha, N_beta) blocks of the layout that hold the state's
    nonzero amplitudes, ascending.  Raises on an odd qubit count."""
    return _held_blocks(_support(state), _orbital_table(state.n_qubits, ordering))


def _check_rdms(support: np.ndarray, psi: np.ndarray, one_rdm: np.ndarray,
                two_rdm: np.ndarray) -> None:
    """Raise unless D is Hermitian, tr D = <N> and sum_kl G[k,l,k,l] = <N(N-1)>,
    the expectations read on the state's support and its amplitudes psi."""
    probs = np.abs(psi) ** 2
    counts = np.bitwise_count(support).astype(float)
    gaps = {
        "1-RDM Hermiticity": float(np.max(np.abs(one_rdm - one_rdm.conj().T))),
        "1-RDM trace vs <N>": abs(np.trace(one_rdm) - probs @ counts),
        "2-RDM trace vs <N(N-1)>": abs(np.einsum("klkl->", two_rdm)
                                       - probs @ (counts * (counts - 1))),
    }
    for name, gap in gaps.items():
        if gap > RDM_TOL:
            raise ValueError(f"{name} gap {gap:.3e} exceeds {RDM_TOL:g}")


def _apply_excitation(tensor: np.ndarray, qubits: tuple[int, ...], angle: float) -> None:
    """exp[angle/2 (A - A^dagger)] on the amplitudes, in place.

    qubits lists the created qubits c_1..c_k, then the annihilated ones
    a_1..a_k, and A = a+_{c_1}..a+_{c_k} a_{a_k}..a_{a_1} (GIVENS (i, j):
    a+_i a_j; PAIR_HOP (pu, pd, qu, qd): a+_pu a+_pd a_qd a_qu).  A sends
    each basis state with every a set and every c clear (the view src) to
    the state with those bits flipped (dst), with the Jordan-Wigner sign of
    applying its ladders one at a time; the gate rotates each (dst, src)
    amplitude pair.  That sign is a constant from the touched bits times a
    -1 for each set untouched bit that lies below an odd number of ladders.
    """
    half = len(qubits) // 2
    created, annihilated = qubits[:half], qubits[half:]
    src = _bits_view(tensor, *((q, 1) for q in annihilated), *((q, 0) for q in created))
    dst = _bits_view(tensor, *((q, 0) for q in annihilated), *((q, 1) for q in created))
    # walk the ladders from the src state with every untouched bit clear,
    # marking the untouched qubits that lie below an odd number of them
    n = tensor.ndim
    bits, sign, odd = sum(1 << q for q in annihilated), 1.0, np.zeros(n, dtype=bool)
    for q in annihilated + created[::-1]:
        sign *= (-1.0) ** (bits & ((1 << q) - 1)).bit_count()
        bits ^= 1 << q
        odd[:q] ^= True
    odd[list(qubits)] = False
    signs = np.full((1,) * n, sign)
    for q in np.flatnonzero(odd):  # bit q lives on the n-1-q th axis
        signs = signs * np.array([1.0, -1.0]).reshape((2,) + (1,) * q)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    new_dst = c * dst + signs * s * src
    src[...] = c * src - signs * s * dst
    dst[...] = new_dst


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


def _hadamard(low: np.ndarray, high: np.ndarray) -> None:
    """H on the (low, high) amplitude pairs of one qubit, in place."""
    total = low + high
    np.subtract(low, high, out=high)
    high *= _SQRT_HALF
    np.multiply(total, _SQRT_HALF, out=low)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """The state after the circuit's gates; the input state is left unchanged.

    Every gate acts in place on strided views (_bits_view) of one working
    copy of the amplitudes reshaped to (2,)*n: the Clifford gates (H, S,
    X, Z, CNOT, CZ) directly, GIVENS and PAIR_HOP through
    _apply_excitation.
    """
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    amps = state.amplitudes.copy()
    tensor = amps.reshape((2,) * state.n_qubits)
    for gate in circuit.gates:
        if gate.name in ("GIVENS", "PAIR_HOP"):
            _apply_excitation(tensor, gate.qubits, gate.angle)
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
                _hadamard(low, high)
            elif gate.name == "S":
                high *= 1j
            elif gate.name == "X":
                _swap(low, high)
            else:  # Z
                high *= -1.0
    return Statevector(state.n_qubits, amps)


# ---------------------------------------------------------------------------
# orbital rotations as circuits


def _add_orbital_rotation(circuit: Circuit, table: list, p: int, q: int, theta: float) -> None:
    """exp[theta/2 sum_s (a+_ps a_qs - h.c.)]: one GIVENS per spin, up first;
    table is the layout's qubit_table as nested lists."""
    for i, j in zip(table[p], table[q]):
        circuit.add("GIVENS", i, j, angle=theta)


def rotation_circuit(
    rotation: OrbitalRotation, n_orbitals: int, ordering: str = "interleaved"
) -> Circuit:
    """Circuit whose action on states matches rotating the integral tensors."""
    table = qubit_table(n_orbitals, ordering).tolist()
    if rotation.n_orbitals != n_orbitals:
        raise ValueError("rotation size does not match orbital count")
    circuit = Circuit(2 * n_orbitals)
    factors = rotation.factors
    if not factors:
        factors, signs = givens_factorize(rotation.matrix)
        for k, s in enumerate(signs):
            if s < 0:
                for qubit in table[k]:
                    circuit.add("Z", qubit)
    for p, q, theta in factors:
        _add_orbital_rotation(circuit, table, p, q, theta)
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
        table = qubit_table(self.n_orbitals, self.ordering).tolist()
        circuit = Circuit(2 * self.n_orbitals)
        first = self.graphs[0]
        for (p, q), angle in zip(first.edges, params[: len(first.edges)]):
            for qubit in table[p]:
                circuit.add("X", qubit)
            circuit.add("PAIR_HOP", *table[p], *table[q], angle=angle)
        k = len(first.edges)
        theta1 = params[k]
        k += 1
        for p, q in reversed(first.edges):
            _add_orbital_rotation(circuit, table, p, q, -theta1)
        for graph in self.graphs[1:]:
            theta, phi = params[k], params[k + 1]
            k += 2
            for p, q in graph.edges:
                _add_orbital_rotation(circuit, table, p, q, theta)
            for p, q in graph.edges:
                circuit.add("PAIR_HOP", *table[p], *table[q], angle=phi)
            for p, q in reversed(graph.edges):
                _add_orbital_rotation(circuit, table, p, q, -theta)
        for (p, q), angle in zip(self.extra_pairs, params[k:]):
            _add_orbital_rotation(circuit, table, p, q, angle)
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
    half = ansatz.n_electrons // 2

    def cost(params: np.ndarray) -> float:
        amps = ansatz.prepare(params).amplitudes
        v = amps[block]
        if np.count_nonzero(amps) != np.count_nonzero(v):  # a nonzero outside the block
            raise ValueError(
                f"prepared state leaves the {ansatz.n_electrons}-electron sector's "
                f"(N_alpha, N_beta) = ({half}, {half}) block")
        # a real-valued state meets a real block in a real product; the dot
        # stays complex, since a real one rounds differently and L-BFGS-B's
        # finite differences amplify a last-bit change
        return _real_value(np.vdot(v, mat @ (v if np.any(v.imag) else v.real)))

    return cost


# ---------------------------------------------------------------------------
# expectations


def _real_value(total: complex) -> float:
    """The real part of an expectation of a Hermitian operator; raises on a
    larger imaginary residue than rounding leaves."""
    if abs(total.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary residue {total.imag:.3e}")
    return float(total.real)


def _x_runs(x: np.ndarray) -> list[tuple[int, int, int]]:
    """(x_mask, lo, hi) of each run x[lo:hi] of one mask, in order; x holds
    each X-pattern as one run.

    Every string of a run maps basis state b to b ^ x_mask, so
    pauli_expectations takes one overlap per run and _block_operator one
    set of targets.
    """
    bounds = [0, *(np.flatnonzero(x[1:] != x[:-1]) + 1).tolist(), len(x)]
    return [(int(x[lo]), lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _signed_sums(basis: np.ndarray, weights: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """sum_b weights[b] (-1)^|basis[b] & z| for each z in z_masks: one sign
    matrix product, a row per z_mask, at most SIGN_BLOCK entries at a time."""
    sums = np.empty(len(z_masks))
    step = max(1, SIGN_BLOCK // max(1, len(basis)))
    for lo in range(0, len(z_masks), step):
        signs = 1.0 - 2.0 * _parity(basis[None, :], z_masks[lo:lo + step, None])
        sums[lo:lo + step] = signs @ weights
    return sums


def pauli_expectations(state: Statevector, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<P> of every string P(x[i], z[i]), in one pass per distinct X-pattern.

    The distinct strings, ordered by x_mask and then by first appearance,
    hold each X-pattern as one run (_x_runs).  The strings of a run share
    the overlap conj(psi[b ^ x]) psi[b], taken only over the basis states b
    where both amplitudes are nonzero; their values are the _signed_sums of
    that overlap's real and imaginary parts over the run's z_masks, times
    each string's i^|x&z|.  A state with no imaginary part is evaluated on
    float64 overlaps, one product per sign matrix, whose values are the
    complex evaluation's (bit for bit wherever a sign matrix has two rows
    or more).  Repeated strings are evaluated once.  Raises ValueError
    unless x and z are 1-D and of equal length, and on masks beyond the
    state's qubits.
    """
    x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
    if x.ndim != 1 or x.shape != z.shape:
        raise ValueError(f"x and z must be 1-D mask arrays of equal length, "
                         f"got shapes {x.shape} and {z.shape}")
    n = state.n_qubits
    if np.any((x | z) >> n):
        raise ValueError(f"masks out of range for the state's {n} qubits")
    keys, first, inverse = np.unique((x << n) | z, return_index=True, return_inverse=True)
    order = np.lexsort((first, keys >> n))  # by x_mask, then by first appearance
    x, z = keys[order] >> n, (keys[order] & ((1 << n) - 1)).astype(np.int64)
    amps = state.amplitudes
    support = _support(state)
    psi = amps[support]
    if not np.any(psi.imag):
        amps, psi = amps.real, psi.real
    values = np.empty(len(keys))
    for x_mask, lo, hi in _x_runs(x):
        overlap = np.conj(amps[support ^ x_mask]) * psi
        reached = np.flatnonzero(overlap != 0)
        basis, overlap = support[reached], overlap[reached]
        re = _signed_sums(basis, overlap.real, z[lo:hi])
        im = (_signed_sums(basis, overlap.imag, z[lo:hi]) if np.iscomplexobj(overlap)
              else np.zeros_like(re))
        # the real part of i^p (re + i im), p = |x & z| mod 4
        power = np.bitwise_count(z[lo:hi] & x_mask) % 4
        values[lo:hi] = np.choose(power, (re, -im, -re, im))
    return values[np.argsort(order)[inverse]]


def expectation(state: Statevector, op: PauliSum) -> float:
    """<state| op |state> = sum_i c_i <P_i>, every <P_i> from one
    pauli_expectations pass over the state's support."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state qubit counts differ")
    return float(op.coeffs @ pauli_expectations(state, op.x, op.z))


# ---------------------------------------------------------------------------
# ground states


def _spin_block(op: PauliSum, n_electrons: int, ordering: str) -> tuple[np.ndarray, int]:
    """(block states ascending, Nα): the basis states with n_electrons set
    bits, Nα = ceil(N/2) of them on the layout's spin-up qubits."""
    table = _orbital_table(op.n_qubits, ordering)
    if not 0 <= n_electrons <= op.n_qubits:
        raise ValueError(f"n_electrons {n_electrons} out of range for {op.n_qubits} qubits")
    n_up = (n_electrons + 1) // 2
    return _block_states(table, [(n_up, n_electrons - n_up)]), n_up


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered 2-D array, each added row by row, first row first.

    NumPy reduces axis 0 of such an array one row at a time; a single column
    it would sum pairwise, as a 1-D array, so that one is accumulated.
    """
    if rows.shape[1] == 1:
        return np.add.accumulate(rows[:, 0])[-1:]
    return rows.sum(axis=0)


def _block_operator(
    op: PauliSum, n_electrons: int, ordering: str
) -> tuple[np.ndarray, scipy.sparse.csr_matrix]:
    """The spin block of n_electrons in the layout (see _spin_block) and
    op's CSR matrix on it, column indices sorted within each row: float64
    when no string of op has an odd Y count, complex otherwise.

    A string is i^|x&z| X^x Z^z, so its element from basis state b to
    b ^ x is c i^|x&z| (-1)^|b&z|, real for an even Y count |x&z|.  op's
    strings are sorted by (x, z), so the strings of one X-pattern are one
    run of them and share every target; each pattern's elements are one
    sign matrix, a row per string and a column per source state, times the
    phased coefficients, summed row by row in term order.

    Pattern x maps b to b ^ x and back, so the elements it keeps in the
    block come in transpose pairs, <t|op|s> from source s and <s|op|t>
    from source t, and each of its sources' rows gets one element from it.
    A first pass counts every row's elements over the patterns; the second
    writes each pattern's elements straight into their rows' next free CSR
    slots (a counting sort on the row) and checks each against its
    partner's conjugate, so Hermiticity is checked pattern by pattern.  The
    column indices are then sorted within each row in place.  No COO
    arrays, transpose or difference matrix are built: the traced peak at
    H8 is 1.5x the returned arrays.

    Every element from a block state into the N-electron sector is
    computed, those that land outside the block too; raises unless each
    of those is at most LEAK_TOL (op mixes Nα and Nβ, or is read in the
    wrong layout) and unless the block matrix is Hermitian to 1e-9.  So the
    block is an invariant subspace of op on the N sector, and an eigenpair
    of the block matrix is one of op.
    """
    block, n_up = _spin_block(op, n_electrons, ordering)
    dim = len(block)
    position = np.full(1 << op.n_qubits, -1, dtype=np.int32)  # a basis state's row in the block
    position[block] = np.arange(dim)
    z_masks = op.z.astype(np.int64)
    y_counts = np.bitwise_count(op.x & op.z)
    phased = op.coeffs * _I_POWERS[y_counts % 4]
    real = not np.any(y_counts & 1)
    if real:
        phased = np.ascontiguousarray(phased.real)
    runs = _x_runs(op.x)
    counts = np.zeros(dim, dtype=np.int64)
    for x_mask, _, _ in runs:
        counts += position[block ^ x_mask] >= 0
    # scipy's own choice: int32 unless an index would overflow it
    indptr = np.zeros(dim + 1, dtype=np.int32 if counts.sum() < 2**31 else np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    data = np.empty(indptr[-1], dtype=phased.dtype)
    free = indptr[:-1].copy()  # each row's next unwritten slot
    mirror = np.empty(dim, dtype=phased.dtype)  # the current pattern's elements by source
    leak = herm_gap = 0.0
    for x_mask, lo, hi in runs:
        targets = block ^ x_mask
        src = np.flatnonzero(np.bitwise_count(targets) == n_electrons)  # in the N sector
        if not src.size:
            continue
        tgt = position[targets[src]]
        signs = 1.0 - 2.0 * _parity(block[src], z_masks[lo:hi, None])
        amp = _row_sums(phased[lo:hi, None] * signs)  # entry <target| op |source>
        inside = tgt >= 0
        if not inside.all():
            leak = max(leak, float(np.abs(amp[~inside]).max()))
            src, tgt, amp = src[inside], tgt[inside], amp[inside]
            if not src.size:
                continue
        mirror[src] = amp
        row = mirror[tgt]  # entry <source| op |target>
        herm_gap = max(herm_gap, float(np.abs(amp - (row if real else row.conj())).max()))
        slots = free[src]
        free[src] = slots + 1
        indices[slots] = tgt
        data[slots] = row
    if leak > LEAK_TOL:
        raise ValueError(
            f"operator leaks {leak:.3e} out of the {ordering} layout's "
            f"(N_alpha, N_beta) = ({n_up}, {n_electrons - n_up}) block; "
            f"it is not spin-free in that layout")
    if herm_gap > 1e-9:
        raise ValueError(f"operator is not Hermitian on the block (gap {herm_gap:.3e})")
    mat = scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    mat.sort_indices()
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

    The block matrix is float64 when no string of op has an odd Y count,
    as for every build_qubit_hamiltonian output, and the solve then runs in
    real arithmetic; otherwise both are complex.  The returned Statevector
    is complex either way.  Uses a dense solve for the lowest eigenpair
    only up to the dense cutoff (ARPACK cannot take 1-dimensional blocks),
    iterative (Lanczos-type) diagonalization above it, and verifies the
    eigenpair residual before returning.  Lanczos starts from a fixed
    generic (seeded normal) vector, so the result is the same in every
    process.
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
    """Lowest eigenpair of a Hermitian sparse matrix, residual-checked; the
    vector has the matrix's dtype."""
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


def _support_probabilities(
    state: Statevector, form: CanonicalDiagonalizer, support: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, probabilities) of measuring the state after form's circuit,
    over the nonzero outcomes in ascending order, with no 2^n vector;
    support is _support(state).

    The CNOT fan-out and the CZ/S network send each support state b to one
    basis state at a power of i: one XOR and one phase per state.  The H
    layer is a k-qubit Walsh-Hadamard transform over the cosets of those
    states off the k pivots, k butterflies in apply_circuit's H arithmetic
    in the circuit's pivot order, so the probabilities equal the
    full-vector path's bit for bit.
    """
    amps = state.amplitudes[support] * _I_POWERS[form.phase_exponents(support) % 4]
    cosets, where = np.unique((support & ~form.pivot_mask) ^ form.fanout_flips(support),
                              return_inverse=True)
    k = len(form.pivots)
    pattern = np.zeros_like(support)  # pivot i's bit at bit i
    spread = np.zeros(1 << k, dtype=np.int64)  # pattern -> those bits on the pivots
    for i, p in enumerate(form.pivots):
        pattern |= ((support >> p) & 1) << i
        spread[1 << i:2 << i] = spread[:1 << i] | (1 << p)
    table = np.zeros((1 << k, len(cosets)), dtype=complex)
    table[pattern, where.reshape(-1)] = amps
    for i in range(k):
        pairs = table.reshape(1 << (k - 1 - i), 2, -1)
        _hadamard(pairs[:, 0], pairs[:, 1])
    probs = np.abs(table.reshape(-1)) ** 2
    # basis states in the smallest unsigned type that holds them: uint16 at
    # 16 qubits, where the stable argsort is a radix sort
    index = np.min_scalar_type((1 << state.n_qubits) - 1)
    outcomes = (spread[:, None] | cosets[None, :]).astype(index).reshape(-1)
    hit = np.flatnonzero(probs)
    hit = hit[np.argsort(outcomes[hit], kind="stable")]
    return outcomes[hit], probs[hit]


@dataclass(frozen=True)
class _PreparedGroup:
    """A group made ready to sample on one state.

    z_masks, signs and folded: each member's diagonal image sign * Z^z_mask
    under the canonical diagonalizer (see canonical_diagonalizer) and its
    folded coefficient sign * c; signs carries the sign back to the
    original string's estimate.  values and cdf: the nonzero outcomes of
    the state after the diagonalizer, ascending, and their cumulative
    distribution, built as Generator.choice builds it from the full
    outcome vector (zero-probability outcomes add exact zeros), so a draw
    consumes the same random stream as rng.choice(2^n, size=shots, p=p).
    """

    label: str
    z_masks: np.ndarray
    folded: np.ndarray
    signs: np.ndarray
    values: np.ndarray
    cdf: np.ndarray

    @classmethod
    def build(cls, state: Statevector, group: CommutingGroup,
              support: np.ndarray) -> "_PreparedGroup":
        """The group prepared on the state, whose support is _support(state)."""
        if group.n_qubits != state.n_qubits:
            raise ValueError("group and state qubit counts differ")
        form = canonical_diagonalizer(group)
        z_masks, signs = form.images(group.op)
        values, probs = _support_probabilities(state, form, support)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cls(group.label, z_masks.astype(np.int64), signs * group.op.coeffs, signs,
                   values, cdf)

    def outcomes(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self.values[self.cdf.searchsorted(rng.random(shots), side="right")]

    def draw(self, shots: int, rng: np.random.Generator) -> GroupSample:
        values, counts = np.unique(self.outcomes(shots, rng), return_counts=True)
        means = _signed_sums(values, counts / shots, self.z_masks)  # <Z-string> per member
        return GroupSample(self.label, shots, self.signs * means, float(self.folded @ means))


def sample_group(
    state: Statevector,
    group: CommutingGroup,
    shots: int,
    rng: np.random.Generator,
) -> GroupSample:
    """Measure all members of a fully-commuting group with shared shots."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    return _PreparedGroup.build(state, group, _support(state)).draw(shots, rng)


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


def _by_state(plan: list[tuple[CommutingGroup, Statevector, float]]
              ) -> dict[int, tuple[Statevector, list[CommutingGroup]]]:
    """id(state) -> (state, its groups in plan order), for each distinct
    state object of the plan's (group, state, shots) entries."""
    states: dict[int, tuple[Statevector, list[CommutingGroup]]] = {}
    for group, state, _ in plan:
        states.setdefault(id(state), (state, []))[1].append(group)
    return states


def group_values(groups: list[CommutingGroup], state: Statevector) -> list[np.ndarray]:
    """<P> of each group's members on the state, one array per group in
    member order, from one pauli_expectations call over them all; [] for
    no groups."""
    if any(group.n_qubits != state.n_qubits for group in groups):
        raise ValueError("group and state qubit counts differ")
    if not groups:
        return []
    values = pauli_expectations(state, np.concatenate([g.op.x for g in groups]),
                                np.concatenate([g.op.z for g in groups]))
    return np.split(values, np.cumsum([len(g.op) for g in groups])[:-1])


def exact_plan_energy(plan: list[tuple[CommutingGroup, Statevector, float]]) -> float:
    """The sum of every (group, state, shots) entry's exact <group>, in plan
    order; each distinct state's members are evaluated in one group_values
    call."""
    values = {key: iter(group_values(groups, state))  # in plan order
              for key, (state, groups) in _by_state(plan).items()}
    exact = 0.0
    for group, state, _ in plan:
        exact += float(group.op.coeffs @ next(values[id(state)]))
    return exact


def _shot_count(group: CommutingGroup, shots: float) -> int:
    """A plan entry's budget as a draw count: ceil(shots), at least one.
    Raises ValueError, naming the group, on a non-finite or negative budget."""
    if not (np.isfinite(shots) and shots >= 0):
        raise ValueError(f"group {group.label!r}: shot budget must be finite and "
                         f"non-negative, got {shots}")
    return max(1, int(np.ceil(shots)))


def finite_sample_experiment(
    plan: list[tuple[CommutingGroup, Statevector, int]],
    repetitions: int,
    seed: int,
) -> SampledEnergies:
    """Sample every (group, state, shots) entry `repetitions` times.

    The exact reference is exact_plan_energy(plan), so the reported errors
    isolate sampling noise for the measured operator set.  Each entry is
    prepared once (_PreparedGroup.build): its commutation is certified, its
    canonical diagonalizer and the members' diagonal images formed in
    closed form, and the outcome CDF built on the state's support.  A
    repetition then only draws: ceil(shots) (at least one) uniforms from
    the one generator seeded by `seed`, located in the CDF as
    Generator.choice(p=...) would locate them, and one members x outcomes
    parity product turns the outcome counts into every member's estimate.
    Raises ValueError on a non-finite or negative budget.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    counts = [_shot_count(group, shots) for group, _, shots in plan]
    rng = np.random.default_rng(seed)
    exact = exact_plan_energy(plan)
    supports = {key: _support(state) for key, (state, _) in _by_state(plan).items()}
    prepared = [(_PreparedGroup.build(state, group, supports[id(state)]), shots)
                for (group, state, _), shots in zip(plan, counts)]
    energies = np.empty(repetitions)
    for rep in range(repetitions):
        total = 0.0
        for entry, shots in prepared:
            total += entry.draw(shots, rng).energy
        energies[rep] = total
    return SampledEnergies(energies, exact, sum(counts))
