"""Shared fixtures: expensive systems built once per session."""

import hashlib

import numpy as np
import pytest
import scipy.sparse

import hcbmeasure.simulator as simulator
from hcbmeasure.encoding import ZERO_TOL, build_qubit_hamiltonian, qubit_table, spin_orbital_index
from hcbmeasure.geometry import build_geometry
from hcbmeasure.integrals import IntegralTensors, minimal_basis_integrals
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.rotations import PairingGraph, distance_ranked_matchings, graph_rotation
from hcbmeasure.simulator import (
    LEAK_TOL,
    Statevector,
    _parity,
    apply_circuit,
    ground_state,
)

# Lowest eigenvalue of the 2-electron sector at 0.7414 A, STO-3G, frozen
# from an independent determinant-CI evaluation (tests/data/ fixture docs).
H2_FCI_ENERGY = -1.137270174661


_PHASES = (1.0, 1.0j, -1.0, -1.0j)


def multiply(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a*b as (string, phase) with phase in {1, i, -1, -i}: the
    one-pair-at-a-time Pauli product of the dict-encoder oracle."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("Pauli strings act on different qubit counts")
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    k = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return PauliString(a.n_qubits, x, z), _PHASES[k % 4]


def ladder_terms(n_qubits: int, index: int, creation: bool) -> list[tuple[PauliString, complex]]:
    """Jordan-Wigner image of a single ladder operator as (string, coeff) pairs."""
    prefix = (1 << index) - 1
    bit = 1 << index
    x_part = PauliString(n_qubits, bit, prefix)
    y_part = PauliString(n_qubits, bit, prefix | bit)
    y_coeff = -0.5j if creation else 0.5j
    return [(x_part, 0.5 + 0.0j), (y_part, y_coeff)]


def tensor_gap(a, b) -> float:
    """Largest absolute difference between two IntegralTensors."""
    return max(float(np.max(np.abs(a.one_body - b.one_body))),
               float(np.max(np.abs(a.two_body - b.two_body))),
               abs(a.e_nuc - b.e_nuc))


def sum_gap(a, b) -> float:
    """Largest coefficient difference between two PauliSums, string by string."""
    ca, cb = dict(a.terms()), dict(b.terms())
    return max((abs(ca.get(s, 0.0) - cb.get(s, 0.0)) for s in ca.keys() | cb.keys()),
               default=0.0)


def group_union(groups) -> PauliSum:
    """The sum of the groups' members; fails if a string sits in two groups."""
    terms = [term for group in groups for term in group.members]
    union = dict(terms)
    assert len(union) == len(terms), "a string sits in two groups"
    return PauliSum(groups[0].n_qubits, union)


def membership_digest(groups) -> str:
    """sha256 of every group's label, kind and members (masks, coefficient bits)."""
    data = [
        (g.label, g.kind, [(s.x_mask, s.z_mask, c.hex()) for s, c in g.members])
        for g in groups
    ]
    return hashlib.sha256(repr(data).encode()).hexdigest()


def jw_layer_groups(layer, ordering):
    """Oracle for hcb.hcb_to_groups: the route it replaced, as three PauliSums.

    The layer is Jordan-Wigner encoded unpruned.  Group 1 is every diagonal
    string; an off-diagonal string above ZERO_TOL goes to group 2 when it
    gives every orbital it touches one Y and to group 3 when it gives each
    zero or two.  A string that fits neither raises.
    """
    op = build_qubit_hamiltonian(layer, ordering, 0.0)
    pair_masks = (1 << qubit_table(layer.n_orbitals, ordering)).sum(axis=1).astype(np.uint64)
    x, z = op.x[:, None], op.z[:, None]
    untouched = (x & pair_masks) == 0
    y_counts = np.bitwise_count(x & z & pair_masks)  # per string and orbital
    diagonal = op.x == 0
    kept = ~diagonal & (np.abs(op.coeffs) > ZERO_TOL)
    one_y = kept & np.all(untouched | (y_counts == 1), axis=1)
    paired_y = kept & np.all(untouched | (y_counts % 2 == 0), axis=1)
    misfit = np.flatnonzero(kept & ~one_y & ~paired_y)
    if len(misfit):
        string, coeff = op.take(misfit[:1]).terms()[0]
        raise ValueError(f"string {string} (coefficient {coeff:.3e}) does not fit "
                         "any paired-layer group")
    return op.take(diagonal), op.take(one_y), op.take(paired_y)


def circuit_unitary(circuit) -> np.ndarray:
    """Dense matrix of a small circuit, one apply_circuit per basis state."""
    dim = 1 << circuit.n_qubits
    columns = [apply_circuit(Statevector.computational_basis(circuit.n_qubits, b),
                             circuit).amplitudes for b in range(dim)]
    return np.array(columns).T


def full_vector_expectation(state, string) -> float:
    """<P> as phase * <psi[b ^ x] | (-1)^|b & z| psi[b]> over all 2^n basis states."""
    amps = state.amplitudes
    idx = np.arange(len(amps))
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & string.z_mask) & 1)
    phase = 1j ** ((string.x_mask & string.z_mask).bit_count() % 4)
    return float((phase * np.vdot(amps[idx ^ string.x_mask], signs * amps)).real)


def y_phase(x_mask: int, z_mask: int) -> complex:
    """i^|x&z|: a string is this phase times X^x Z^z, one i per Y = iXZ."""
    return 1.0j ** ((x_mask & z_mask).bit_count() % 4)


def x_patterns(x, z) -> dict[int, dict[int, list[int]]]:
    """x_mask -> z_mask -> positions of the (x, z) mask pairs, every level
    in order of first appearance: the X-pattern buckets pauli_expectations
    read before it read runs of its sorted distinct strings."""
    buckets: dict[int, dict[int, list[int]]] = {}
    for i, (x_mask, z_mask) in enumerate(zip(x.tolist(), z.tolist())):
        buckets.setdefault(x_mask, {}).setdefault(z_mask, []).append(i)
    return buckets


def spin_block_scan(op, n_electrons: int, ordering: str):
    """Reference for simulator._spin_block: (block states ascending, N_alpha),
    the block read off a scan of all 2^n basis states."""
    n_qubits = op.n_qubits
    n_up = (n_electrons + 1) // 2
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    up, down = (1 << qubit_table(n_qubits // 2, ordering)).sum(axis=0)
    keep = (np.bitwise_count(idx & up) == n_up) & (np.bitwise_count(idx & down)
                                                  == n_electrons - n_up)
    return idx[keep], n_up


def block_operator_oracle(op, n_electrons: int, ordering: str):
    """Oracle for simulator._block_operator: the same spin block, read off a
    basis scan, and the same checks, every element accumulated term by term
    in complex arithmetic."""
    block, n_up = spin_block_scan(op, n_electrons, ordering)
    position = np.full(1 << op.n_qubits, -1, dtype=np.int64)
    position[block] = np.arange(len(block))
    rows, cols, vals = [], [], []
    leak = 0.0
    coeffs = op.coeffs.tolist()
    for x_mask, by_z in x_patterns(op.x, op.z).items():
        target = block ^ x_mask
        src = np.flatnonzero(np.bitwise_count(target) == n_electrons)
        if len(src) == 0:
            continue
        sources = block[src]
        amp = np.zeros(len(src), dtype=complex)  # entry <target| op |source>
        for z_mask, positions in by_z.items():
            for i in positions:
                phased = coeffs[i] * y_phase(x_mask, z_mask)
                amp += phased * (1.0 - 2.0 * _parity(sources, z_mask))
        tgt = position[target[src]]
        inside = tgt >= 0
        if not np.all(inside):
            leak = max(leak, float(np.max(np.abs(amp[~inside]))))
        rows.append(tgt[inside])
        cols.append(src[inside])
        vals.append(amp[inside])
    assert leak <= LEAK_TOL, f"operator leaks {leak:.3e} out of block ({n_up}, {n_electrons - n_up})"
    dim = len(block)
    mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    assert abs(mat - mat.getH()).max() <= 1e-9
    return block, mat


def _annihilated_by_popcount(amps, removed, sign_masks):
    """Rows a_{modes} psi, one per bitmask in removed, over every basis state
    whose popcount is one of psi's support minus the bits removed."""
    idx = np.arange(len(amps), dtype=np.int64)
    counts = np.bitwise_count(idx)
    k = int(np.bitwise_count(removed[0]))
    targets = idx[np.isin(counts, np.unique(counts[amps != 0]) - k)]
    free = (targets[None, :] & removed[:, None]) == 0
    signs = 1.0 - 2.0 * _parity(targets[None, :], sign_masks[:, None])
    return np.where(free, signs * amps[targets[None, :] | removed[:, None]], 0.0)


def spin_orbital_rdms(state, ordering):
    """Oracle for simulator.spin_rdms: (D, G, O) cut from the full spin-orbital
    1- and 2-RDMs, the latter one Gram matrix of the vectors a_b a_a psi over
    qubit pairs a < b, expanded to (2n)^4 by antisymmetry."""
    n_qubits = state.n_qubits
    n = n_qubits // 2
    amps = state.amplitudes
    bits = np.int64(1) << np.arange(n_qubits, dtype=np.int64)
    singles = _annihilated_by_popcount(amps, bits, bits - 1)
    one = np.conj(singles) @ singles.T  # <a+_p a_q>
    a, b = np.triu_indices(n_qubits, 1)
    pairs = _annihilated_by_popcount(amps, bits[a] | bits[b], (bits[a] - 1) ^ (bits[b] - 1))
    block = np.conj(pairs) @ pairs.T  # <a+_{a_i} a+_{b_i} a_{b_j} a_{a_j}>
    two = np.zeros((n_qubits,) * 4, dtype=complex)
    ai, bi = a[:, None], b[:, None]
    two[ai, bi, a, b] = block
    two[bi, ai, a, b] = -block
    two[ai, bi, b, a] = -block
    two[bi, ai, b, a] = block
    so = np.array([[spin_orbital_index(k, s, n, ordering) for s in (0, 1)] for k in range(n)])
    one_rdm = sum(one[np.ix_(so[:, s], so[:, s])] for s in (0, 1))
    blocks = {(s1, s2): two[np.ix_(so[:, s1], so[:, s2], so[:, s1], so[:, s2])]
              for s1 in (0, 1) for s2 in (0, 1)}
    return one_rdm, sum(blocks.values()), blocks[0, 1] + blocks[1, 0]


def full_space_spin_rdms(state, ordering):
    """Reference for simulator.spin_rdms: the full-space builder it replaced.

    Every (N_alpha, N_beta) target block is read off all 2^n basis states,
    the rows and their four Gram matrices are complex, and G^downup is a
    Gram matrix of its own.
    """
    n = state.n_qubits // 2
    table = qubit_table(n, ordering)
    bits = np.int64(1) << table
    amps = state.amplitudes
    idx = np.arange(len(amps), dtype=np.int64)
    up, down = (1 << table).sum(axis=0)
    n_alpha, n_beta = np.bitwise_count(idx & up), np.bitwise_count(idx & down)
    held = np.zeros((n + 3, n + 3), dtype=bool)  # padded for up to two removals
    nonzero = amps != 0
    held[n_alpha[nonzero], n_beta[nonzero]] = True

    def rows(removed, sign_masks, *spins):
        targets = idx[held[n_alpha + spins.count(0), n_beta + spins.count(1)]]
        free = (targets[None, :] & removed[:, None]) == 0
        signs = 1.0 - 2.0 * _parity(targets[None, :], sign_masks[:, None])
        return np.where(free, signs * amps[targets[None, :] | removed[:, None]], 0.0)

    one_rdm = 0
    for s in (0, 1):
        r = rows(bits[:, s], bits[:, s] - 1, s)
        one_rdm = one_rdm + np.conj(r) @ r.T
    blocks = {}
    for s in (0, 1):
        for t in (0, 1):
            p, q = bits[:, s, None], bits[None, :, t]
            r = rows((p | q).ravel(), ((p - 1) ^ (q - 1)).ravel(), s, t)
            r *= np.sign(q - p).reshape(-1, 1)
            blocks[s, t] = (np.conj(r) @ r.T).reshape((n,) * 4)
    return one_rdm, sum(blocks.values()), blocks[0, 1] + blocks[1, 0]


def reference_pauli_expectations(state, x, z, complex_only=False):
    """Reference for simulator.pauli_expectations: the evaluation it
    replaced, over x_patterns buckets, with one sign-matrix product per part
    and block of at most simulator.SIGN_BLOCK entries.  A state with no
    imaginary part takes float64 overlaps unless complex_only is set."""
    x, z = np.asarray(x, dtype=np.uint64), np.asarray(z, dtype=np.uint64)
    amps = state.amplitudes
    support = np.flatnonzero(amps)
    psi = amps[support]
    if not complex_only and not np.any(psi.imag):
        amps, psi = amps.real, psi.real
    values = np.empty(len(x))
    for x_mask, by_z in x_patterns(x, z).items():
        overlap = np.conj(amps[support ^ x_mask]) * psi
        reached = np.flatnonzero(overlap)
        basis, overlap = support[reached], overlap[reached]
        z_masks = list(by_z)
        step = max(1, simulator.SIGN_BLOCK // max(1, len(basis)))
        for lo in range(0, len(z_masks), step):
            block = z_masks[lo:lo + step]
            z_block = np.array(block, dtype=np.int64)
            signs = 1.0 - 2.0 * _parity(basis[None, :], z_block[:, None])
            re = signs @ overlap.real
            im = signs @ overlap.imag if np.iscomplexobj(overlap) else np.zeros_like(re)
            power = np.bitwise_count(z_block & x_mask) % 4
            for z_mask, value in zip(block, np.choose(power, (re, -im, -re, im)).tolist()):
                values[by_z[z_mask]] = value
    return values


def complex_pauli_expectations(state, x, z):
    """The complex path of reference_pauli_expectations, taken on every state."""
    return reference_pauli_expectations(state, x, z, complex_only=True)


def random_tensors(n, seed, e_nuc=0.0):
    """Random real tensors with the full 8-fold two-body symmetry."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2
    chem = rng.normal(size=(n, n, n, n)) * 0.1
    chem = chem + chem.transpose(1, 0, 2, 3)
    chem = chem + chem.transpose(0, 1, 3, 2)
    chem = chem + chem.transpose(2, 3, 0, 1)
    return IntegralTensors(n, h, np.einsum("ijkl->ikjl", chem), e_nuc)


@pytest.fixture(scope="session")
def h2_geometry():
    return build_geometry(2, 0.7414, "line")


@pytest.fixture(scope="session")
def h2_tensors(h2_geometry):
    return minimal_basis_integrals(h2_geometry)


@pytest.fixture(scope="session")
def h2_natural_tensors(h2_geometry):
    return minimal_basis_integrals(h2_geometry, mode="hartree-fock")


@pytest.fixture(scope="session")
def h2_operator(h2_tensors):
    return build_qubit_hamiltonian(h2_tensors, "interleaved")


@pytest.fixture(scope="session")
def h2_ground(h2_operator):
    return ground_state(h2_operator, 2)


@pytest.fixture(scope="session")
def h4_geometry():
    return build_geometry(4, 1.5, "line")


@pytest.fixture(scope="session")
def h4_tensors(h4_geometry):
    return minimal_basis_integrals(h4_geometry)


@pytest.fixture(scope="session")
def h4_operator(h4_tensors):
    return build_qubit_hamiltonian(h4_tensors, "interleaved")


@pytest.fixture(scope="session")
def h4_ground(h4_operator):
    return ground_state(h4_operator, 4)


@pytest.fixture(scope="session")
def h4_graphs():
    return (
        PairingGraph(4, ((0, 1), (2, 3))),
        PairingGraph(4, ((0, 3), (1, 2))),
        PairingGraph(4, ((0, 2), (1, 3))),
    )


@pytest.fixture(scope="session")
def h4_rotations(h4_graphs):
    return [graph_rotation(g) for g in h4_graphs]


@pytest.fixture(scope="session")
def h6_geometry():
    return build_geometry(6, 1.5, "line")


@pytest.fixture(scope="session")
def h6_tensors(h6_geometry):
    return minimal_basis_integrals(h6_geometry)


@pytest.fixture(scope="session")
def h6_operator(h6_tensors):
    return build_qubit_hamiltonian(h6_tensors, "interleaved")


@pytest.fixture(scope="session")
def h6_ground(h6_operator):
    return ground_state(h6_operator, 6)


@pytest.fixture(scope="session")
def h6_rotations(h6_geometry):
    return [graph_rotation(g) for g in distance_ranked_matchings(h6_geometry.distances(), 2)]


@pytest.fixture(scope="session")
def h8_geometry():
    return build_geometry(8, 1.5, "line")


@pytest.fixture(scope="session")
def h8_tensors(h8_geometry):
    return minimal_basis_integrals(h8_geometry)


@pytest.fixture(scope="session")
def h8_operator(h8_tensors):
    return build_qubit_hamiltonian(h8_tensors, "interleaved")


@pytest.fixture(scope="session")
def h8_ground(h8_operator):
    return ground_state(h8_operator, 8)


@pytest.fixture(scope="session")
def h8_rotations(h8_geometry):
    return [graph_rotation(g) for g in distance_ranked_matchings(h8_geometry.distances(), 2)]


@pytest.fixture(scope="session")
def h6_distances(h6_geometry):
    return h6_geometry.distances()
