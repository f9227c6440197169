"""Dense statevector simulation for paired-orbital circuits.

Qubit j is spin orbital j (see encoding.py for the orbital->qubit maps);
basis index bit j holds its occupation.  Capped at 16 qubits: every state
is a full 2^n complex vector.

Fermionic gates act with exact Jordan-Wigner phases:

  PairRotationGate(p, q, theta): exp[ theta/2 * sum_s (a+_ps a_qs - h.c.) ]
  PairGivensGate(p, q, phi):     exp[ phi/2 (a+_pu a+_pd a_qd a_qu - h.c.) ]

applied directly on the amplitudes, so no Trotter or matrix exponentials
are involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .encoding import check_ordering, spin_orbital_index
from .groups import CliffordCircuit, CommutingGroup, diagonalized_members, diagonalizing_circuit
from .paulis import PauliString, PauliSum
from .rotations import OrbitalRotation, PairingGraph, givens_factorize

MAX_QUBITS = 16
DENSE_EIG_LIMIT = 4096
NORM_TOL = 1e-10
RDM_TOL = 1e-10  # largest Hermiticity or trace gap a built RDM may show

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_S_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0j]])
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])
_CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
)
_CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0])


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


# ---------------------------------------------------------------------------
# gates and circuits


@dataclass(frozen=True)
class XGate:
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class ZGate:
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class PairRotationGate:
    """Spin-summed Givens rotation between spatial orbitals p and q."""

    p: int
    q: int
    theta: float


@dataclass(frozen=True)
class PairGivensGate:
    """Pair-hop rotation exp[phi/2 (a+_pu a+_pd a_qd a_qu - h.c.)].

    A real-amplitude (Y-axis) rotation in the two-level subspace of the
    doubly-occupied configurations: it forms cos/sin superpositions of the
    two, which is what a pair-correlated ground-state ansatz needs.
    """

    p: int
    q: int
    phi: float


Gate = XGate | ZGate | PairRotationGate | PairGivensGate


@dataclass
class Circuit:
    """Gate list over 2*n_orbitals qubits under a fixed spin-orbital layout."""

    n_orbitals: int
    ordering: str = "interleaved"
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_ordering(self.ordering)
        if not 1 <= self.n_orbitals <= MAX_QUBITS // 2:
            raise ValueError(f"n_orbitals must be in [1, {MAX_QUBITS // 2}]")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_orbitals

    def spin_orbital(self, orbital: int, spin: int) -> int:
        return spin_orbital_index(orbital, spin, self.n_orbitals, self.ordering)

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)


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


def _apply_single_excitation(
    amps: np.ndarray, n_qubits: int, i: int, j: int, theta: float
) -> np.ndarray:
    """exp[theta/2 (a+_i a_j - a+_j a_i)] with Jordan-Wigner string phases."""
    dim = amps.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    bit_i, bit_j = 1 << i, 1 << j
    sel = ((idx & bit_i) != 0) & ((idx & bit_j) == 0)
    src = idx[sel]
    partner = src ^ (bit_i | bit_j)
    lo, hi = (i, j) if i < j else (j, i)
    between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    sign = 1.0 - 2.0 * _parity(src, between)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = amps.copy()
    out[src] = c * amps[src] + sign * s * amps[partner]
    out[partner] = c * amps[partner] - sign * s * amps[src]
    return out


def _apply_pair_hop(amps: np.ndarray, circuit: Circuit, gate: PairGivensGate) -> np.ndarray:
    i1 = circuit.spin_orbital(gate.p, 0)
    i2 = circuit.spin_orbital(gate.p, 1)
    j1 = circuit.spin_orbital(gate.q, 0)
    j2 = circuit.spin_orbital(gate.q, 1)
    dim = amps.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    p_mask = (1 << i1) | (1 << i2)
    q_mask = (1 << j1) | (1 << j2)
    # v2: pair fully on q, p empty; v1 = v2 with the pair moved to p
    sel = ((idx & q_mask) == q_mask) & ((idx & p_mask) == 0)
    v2 = idx[sel]
    v1 = v2 ^ (p_mask | q_mask)
    # JW sign of a+_pu a+_pd a_qd a_qu acting on v2, one ladder step at a time
    state = v2.copy()
    total = np.zeros(len(v2), dtype=np.int64)
    for index in (j1, j2, i2, i1):
        below = (1 << index) - 1
        total += np.bitwise_count(state & below).astype(np.int64)
        state ^= 1 << index
    sign = 1.0 - 2.0 * (total & 1)
    c, s = np.cos(gate.phi / 2.0), np.sin(gate.phi / 2.0)
    out = amps.copy()
    out[v1] = c * amps[v1] + sign * s * amps[v2]
    out[v2] = c * amps[v2] - sign * s * amps[v1]
    return out


def _apply_matrix(amps: np.ndarray, n_qubits: int, qubits: tuple[int, ...], mat: np.ndarray) -> np.ndarray:
    k = len(qubits)
    arr = amps.reshape((2,) * n_qubits)
    # bit j lives on axis n_qubits-1-j; gate matrix index orders qubits[0] high
    axes = [n_qubits - 1 - q for q in qubits]
    tensor = mat.reshape((2,) * (2 * k))
    arr = np.tensordot(tensor, arr, axes=(list(range(k, 2 * k)), axes))
    arr = np.moveaxis(arr, list(range(k)), axes)
    return arr.reshape(-1)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    amps = state.amplitudes
    n = state.n_qubits
    for gate in circuit.gates:
        if isinstance(gate, XGate):
            amps = amps[np.arange(len(amps)) ^ (1 << gate.qubit)]
        elif isinstance(gate, ZGate):
            idx = np.arange(len(amps))
            amps = amps * (1.0 - 2.0 * ((idx >> gate.qubit) & 1))
        elif isinstance(gate, PairRotationGate):
            for spin in (0, 1):
                i = circuit.spin_orbital(gate.p, spin)
                j = circuit.spin_orbital(gate.q, spin)
                amps = _apply_single_excitation(amps, n, i, j, gate.theta)
        elif isinstance(gate, PairGivensGate):
            amps = _apply_pair_hop(amps, circuit, gate)
        else:
            raise ValueError(f"unknown gate {gate!r}")
    return Statevector(n, amps)


def apply_clifford(state: Statevector, circuit: CliffordCircuit) -> Statevector:
    """Apply an H/S/CNOT/CZ/X gate list to the state."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    amps = state.amplitudes
    n = state.n_qubits
    for gate in circuit.gates:
        if gate.name == "H":
            amps = _apply_matrix(amps, n, gate.qubits, _H_MATRIX)
        elif gate.name == "S":
            amps = _apply_matrix(amps, n, gate.qubits, _S_MATRIX)
        elif gate.name == "X":
            amps = _apply_matrix(amps, n, gate.qubits, _X_MATRIX)
        elif gate.name == "CNOT":
            amps = _apply_matrix(amps, n, gate.qubits, _CNOT_MATRIX)
        elif gate.name == "CZ":
            amps = _apply_matrix(amps, n, gate.qubits, _CZ_MATRIX)
    return Statevector(n, amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit (small systems only; used for checks)."""
    dim = 1 << circuit.n_qubits
    if dim > 4096:
        raise ValueError("circuit_unitary is limited to 12 qubits")
    cols = []
    for b in range(dim):
        state = Statevector.computational_basis(circuit.n_qubits, b)
        cols.append(apply_circuit(state, circuit).amplitudes)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# orbital rotations as circuits


def rotation_circuit(
    rotation: OrbitalRotation, n_orbitals: int, ordering: str = "interleaved"
) -> Circuit:
    """Circuit whose action on states matches rotating the integral tensors."""
    if rotation.n_orbitals != n_orbitals:
        raise ValueError("rotation size does not match orbital count")
    circuit = Circuit(n_orbitals, ordering)
    if rotation.factors:
        for p, q, theta in rotation.factors:
            circuit.add(PairRotationGate(p, q, theta))
        return circuit
    factors, signs = givens_factorize(rotation.matrix)
    for k, s in enumerate(signs):
        if s < 0:
            circuit.add(ZGate(circuit.spin_orbital(k, 0)))
            circuit.add(ZGate(circuit.spin_orbital(k, 1)))
    for p, q, theta in factors:
        circuit.add(PairRotationGate(p, q, theta))
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
    Pair hops are PairGivensGate rotations, whose real cos/sin amplitudes
    can weight the two pair configurations as ground-state optimization
    needs.
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
        circuit = Circuit(self.n_orbitals, self.ordering)
        first = self.graphs[0]
        k = 0
        for (p, q), angle in zip(first.edges, params[: len(first.edges)]):
            circuit.add(XGate(circuit.spin_orbital(p, 0)))
            circuit.add(XGate(circuit.spin_orbital(p, 1)))
            circuit.add(PairGivensGate(p, q, angle))
        k = len(first.edges)
        theta1 = params[k]
        k += 1
        for p, q in reversed(first.edges):
            circuit.add(PairRotationGate(p, q, -theta1))
        for graph in self.graphs[1:]:
            theta, phi = params[k], params[k + 1]
            k += 2
            for p, q in graph.edges:
                circuit.add(PairRotationGate(p, q, theta))
            for p, q in graph.edges:
                circuit.add(PairGivensGate(p, q, phi))
            for p, q in reversed(graph.edges):
                circuit.add(PairRotationGate(p, q, -theta))
        for (p, q), angle in zip(self.extra_pairs, params[k:]):
            circuit.add(PairRotationGate(p, q, angle))
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
    spread: float = 0.8,
) -> tuple[np.ndarray, float]:
    """Variationally minimize <psi(params)|op|psi(params)>.

    Multi-start local minimization: ``restarts`` L-BFGS-B runs from seeded
    uniform starting points in [-spread, spread], keeping the best optimum.
    Deterministic in ``seed``.  Returns (best parameters, best energy).
    Each evaluation is one sparse matvec on the ansatz's particle-number
    sector (see :func:`_sector_cost`).
    """
    import scipy.optimize

    rng = np.random.default_rng(seed)
    cost = _sector_cost(ansatz, op)
    best_x: np.ndarray | None = None
    best_f = np.inf
    for _ in range(max(1, restarts)):
        start = rng.uniform(-spread, spread, ansatz.n_parameters)
        result = scipy.optimize.minimize(cost, start, method="L-BFGS-B")
        if result.fun < best_f:
            best_f = float(result.fun)
            best_x = np.asarray(result.x, dtype=float).copy()
    assert best_x is not None
    return best_x, best_f


def _sector_cost(ansatz: PairAnsatz, op: PauliSum):
    """params -> <psi(params)|op|psi(params)> on the ansatz's N-electron sector.

    The ansatz conserves particle number, so the value is <v|M|v> with M
    op's sector matrix (built here once, by the builder ground_state uses)
    and v the prepared amplitudes on the sector.  A prepared state with any
    nonzero amplitude outside the sector raises instead of being projected.
    """
    n_qubits = 2 * ansatz.n_orbitals
    if op.n_qubits != n_qubits:
        raise ValueError(
            f"operator acts on {op.n_qubits} qubits, the ansatz prepares {n_qubits}")
    sector, mat = _sector_operator(op, ansatz.n_electrons)
    outside = np.ones(1 << n_qubits, dtype=bool)
    outside[sector] = False

    def cost(params: np.ndarray) -> float:
        amps = ansatz.prepare(params).amplitudes
        if np.any(amps[outside]):
            raise ValueError(
                f"prepared state leaves the {ansatz.n_electrons}-electron sector")
        v = amps[sector]
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


def _x_buckets(op: PauliSum) -> dict[int, list[tuple[int, complex]]]:
    """Terms grouped by X-pattern as (z_mask, coeff * i^|x&z|), in term order.

    Every term of a bucket maps basis state b to b ^ x_mask, so callers
    permute (or index) the amplitudes once per bucket.
    """
    by_x: dict[int, list[tuple[int, complex]]] = {}
    for string, coeff in op.terms():
        by_x.setdefault(string.x_mask, []).append(
            (string.z_mask, coeff * _y_phase(string.x_mask, string.z_mask)))
    return by_x


def pauli_expectation(state: Statevector, string: PauliString) -> float:
    if string.n_qubits != state.n_qubits:
        raise ValueError("string and state qubit counts differ")
    amps = state.amplitudes
    idx = np.arange(len(amps), dtype=np.int64)
    phase = _y_phase(string.x_mask, string.z_mask)
    signs = 1.0 - 2.0 * _parity(idx, string.z_mask)
    val = phase * np.vdot(amps[idx ^ string.x_mask], signs * amps)
    return float(val.real)


def expectation(state: Statevector, op: PauliSum) -> float:
    """<state| op |state>; terms sharing an X-pattern reuse the permuted vector."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state qubit counts differ")
    amps = state.amplitudes
    idx = np.arange(len(amps), dtype=np.int64)
    total = 0.0 + 0.0j
    for x_mask, entries in _x_buckets(op).items():
        overlap = np.conj(amps[idx ^ x_mask]) * amps
        for z_mask, phased in entries:
            signs = 1.0 - 2.0 * _parity(idx, z_mask)
            total += phased * np.dot(signs, overlap)
    return _real_value(total)


# ---------------------------------------------------------------------------
# ground states


def _sector_operator(
    op: PauliSum, n_electrons: int
) -> tuple[np.ndarray, scipy.sparse.csr_matrix]:
    """The basis states with n_electrons set bits, ascending, and op's matrix
    on them; raises unless the count fits and the matrix is Hermitian."""
    n_qubits = op.n_qubits
    if not 0 <= n_electrons <= n_qubits:
        raise ValueError(f"n_electrons {n_electrons} out of range for {n_qubits} qubits")
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    sector = idx[np.bitwise_count(idx) == n_electrons]
    mat = _sector_matrix(op, sector, n_electrons)
    herm_gap = abs(mat - mat.getH()).max()
    if herm_gap > 1e-9:
        raise ValueError(f"operator is not Hermitian on the sector (gap {herm_gap:.3e})")
    return sector, mat


def _sector_matrix(op: PauliSum, sector: np.ndarray, n_electrons: int) -> scipy.sparse.csr_matrix:
    dim = len(sector)
    rows, cols, vals = [], [], []
    for x_mask, entries in _x_buckets(op).items():
        target = sector ^ x_mask
        valid = np.bitwise_count(target) == n_electrons
        src = np.nonzero(valid)[0]
        if len(src) == 0:
            continue
        tgt_states = target[valid]
        tgt = np.searchsorted(sector, tgt_states)
        amp = np.zeros(len(src), dtype=complex)
        for z_mask, phased in entries:
            amp += phased * (1.0 - 2.0 * _parity(sector[src], z_mask))
        # entry <target| P |source>
        rows.append(tgt)
        cols.append(src)
        vals.append(amp)
    if not rows:
        return scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def ground_state(op: PauliSum, n_electrons: int) -> tuple[float, Statevector]:
    """Lowest eigenpair of op restricted to the n_electrons occupation sector.

    Uses a dense solve for the lowest eigenpair only up to the dense cutoff
    (ARPACK cannot take 1-dimensional sectors), iterative (Lanczos-type)
    diagonalization above it, and verifies the eigenpair residual before
    returning.  Lanczos starts from a fixed generic (seeded normal) vector,
    so the result is the same in every process.
    """
    n_qubits = op.n_qubits
    sector, mat = _sector_operator(op, n_electrons)
    energy, vec = _lowest_eigenpair(mat)
    full = np.zeros(1 << n_qubits, dtype=complex)
    full[sector] = vec
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

    members: (diagonal image, folded coefficient) per member, where
    folded = sign * original coefficient; signs carries that sign back to
    the original string's estimate.  probs: outcome distribution of the
    state after the diagonalizing circuit.
    """

    label: str
    members: list[tuple[PauliString, float]]
    signs: list[float]
    probs: np.ndarray

    @classmethod
    def build(cls, state: Statevector, group: CommutingGroup) -> "_PreparedGroup":
        diag = diagonalizing_circuit(group)
        members = diagonalized_members(group, diag)
        signs = [1.0 if folded == orig else -1.0
                 for (_, folded), (_, orig) in zip(members, group.members)]
        probs = apply_clifford(state, diag).probabilities()
        return cls(group.label, members, signs, probs / probs.sum())

    def draw(self, shots: int, rng: np.random.Generator) -> GroupSample:
        outcomes = rng.choice(len(self.probs), size=shots, p=self.probs)
        values, counts = np.unique(outcomes, return_counts=True)
        weights = counts / shots
        estimates = np.empty(len(self.members))
        energy = 0.0
        for k, ((image, folded_coeff), sign) in enumerate(zip(self.members, self.signs)):
            parity = 1.0 - 2.0 * _parity(values, image.z_mask)
            diag_mean = float(np.dot(weights, parity))
            estimates[k] = sign * diag_mean
            energy += folded_coeff * diag_mean
        return GroupSample(self.label, shots, estimates, energy)


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
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def error_of_mean(self) -> float:
        """|average estimate - exact|: the averaged run's residual bias.

        Repetition averaging shrinks the sampling noise by 1/sqrt(reps),
        so this is the quantity the shot budget promises to keep below
        the target precision; single-run |errors| stay sqrt(groups)-fold
        larger because per-group budgets each admit precision-level noise.
        """
        return float(abs(np.mean(self.energies) - self.exact))

    @property
    def std_error(self) -> float:
        return float(np.std(self.energies))


def finite_sample_experiment(
    plan: list[tuple[CommutingGroup, Statevector, int]],
    repetitions: int,
    seed: int,
) -> SampledEnergies:
    """Sample every (group, state, shots) entry `repetitions` times.

    The exact reference is the sum of exact group expectations, so the
    reported errors isolate sampling noise for the measured operator set.
    Each entry is diagonalized and rotated once; repetitions only draw.
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
