"""Hard-core-boson layer extraction and the iterative measurement protocol.

A molecular Hamiltonian holds a sub-operator built entirely from paired
excitations and densities — the entries of the integral tensors that
_layer_masks selects.  That layer maps onto just three mutually-commuting
Pauli groups, so it can be measured with three circuit settings.  The
groups' strings and coefficients are written from the layer's tensor
diagonals in closed form (hcb_to_groups); nothing here is Jordan-Wigner
encoded.

The protocol repeats the split under a sequence of orbital rotations:
rotate the residual tensors into a new basis, peel off the layer that is
cheap to measure there, evaluate it on the state's RDMs rotated into that
basis, and rotate the (shrunken) residual back.  Truncating after any step
leaves an explicit residual operator, so the running estimate plus the
residual expectation always reproduces the exact expectation value.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .encoding import ZERO_TOL, check_ordering, qubit_table
from .groups import CommutingGroup
from .integrals import IntegralTensors, rdm_expectation
from .paulis import PauliSum
from .rotations import OrbitalRotation, rotate_array, rotate_integrals
from .simulator import Statevector, spin_blocks, spin_rdms

# Largest |cumulative + residual - <H>| (Ha) run_protocol accepts at a step.
TELESCOPING_TOL = 1e-8


def _layer_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the paired layer sits in h and in g.

    h contributes its diagonal (orbital occupations).  g contributes the
    entries g[k,l,m,p] with k = l and m = p (pair hops), k = p and l = m
    (spin exchange) or k = m and l = p (density-density); the on-site
    entries g[k,k,k,k] satisfy all three.
    """
    k, l, m, p = np.indices((n,) * 4, sparse=True)
    two_body = ((k == l) & (m == p)) | ((k == p) & (l == m)) | ((k == m) & (l == p))
    return np.eye(n, dtype=bool), two_body


def extract_hcb(tensors: IntegralTensors) -> tuple[IntegralTensors, IntegralTensors]:
    """Split tensors into the paired layer and an entrywise-exact residual.

    Both halves are cut from the input by one fixed mask, so layer +
    residual reproduces the input bit for bit and the layer of the
    residual is all zero.  The layer keeps the input's e_nuc and basis
    tag; the residual's e_nuc is 0.
    """
    n = tensors.n_orbitals
    one_mask, two_mask = _layer_masks(n)
    h, g = tensors.one_body, tensors.two_body
    layer = IntegralTensors(
        n, np.where(one_mask, h, 0.0), np.where(two_mask, g, 0.0),
        tensors.e_nuc, tensors.basis,
    )
    residual = IntegralTensors(
        n, np.where(one_mask, 0.0, h), np.where(two_mask, 0.0, g), 0.0, tensors.basis
    )
    return layer, residual


# The eight Pauli strings a four-ladder product on orbitals k < m reaches with
# a real coefficient: X or Y on each of (k up, k down, m up, m down), an even
# number of Y's.  Rows 0-3 give each orbital zero or two Y's (group 3), rows
# 4-7 one Y each (group 2).
_Y_PATTERNS = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1],
                        [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]])


def _ladder_signs(qubits: np.ndarray, ladders: tuple[tuple[int, bool], ...]) -> np.ndarray:
    """Signs of the eight _Y_PATTERNS strings, whose coefficients are all
    +-1/16, in the Jordan-Wigner image of a four-ladder product; one row
    per row of qubits.

    qubits holds (k up, k down, m up, m down) per row, and ladders lists the
    product's (column, is_creation) from left to right.  Sorting the ladders
    into ascending qubit order costs the permutation's sign.  On the sorted
    qubits q1 < q2 < q3 < q4 the product is (sigma Z) sigma (sigma Z) sigma,
    times Z on the qubits strictly between q1 and q2 and between q3 and q4;
    sigma is (X - iY)/2 on a creator and (X + iY)/2 on an annihilator, and
    sigma Z is sigma on a creator and -sigma on an annihilator.  A string
    with Y on the set S (|S| even) takes i^|S| prod_{j in S} t_j from the
    sigmas, t_j = -1 on a creator and +1 on an annihilator.
    """
    columns = [column for column, _ in ladders]
    eta = np.array([1 if creation else -1 for _, creation in ladders])
    sequence = qubits[:, columns]
    flips = sum((sequence[:, i] > sequence[:, j]).astype(int)
                for i in range(4) for j in range(i + 1, 4))
    order = np.argsort(sequence, axis=1)
    sign = (-1) ** flips * eta[order[:, 0]] * eta[order[:, 2]]
    t = np.empty(4, dtype=int)
    t[columns] = -eta
    pattern = (-1) ** (_Y_PATTERNS.sum(axis=1) // 2) * np.prod(
        np.where(_Y_PATTERNS == 1, t, 1), axis=1)
    return sign[:, None] * pattern[None, :]


def _diagonal_group(layer: IntegralTensors, table: np.ndarray, h_kept: np.ndarray,
                    g_kept: np.ndarray) -> PauliSum:
    """Group 1: the layer's Z strings, each coefficient summed in the
    encoder's entry order.

    The entries are e_nuc, then alpha_k n_ks (k ascending, then s), then
    1/2 g[k,l,m,p] a+_ks1 a+_ls2 a_ps2 a_ms1 over (k, l, m, p) row-major
    and then the spin pair, entries at or below ZERO_TOL left out (see
    encoding._hamiltonian_batches).  n_a = (I - Z_a)/2, and a diagonal g
    entry is c n_a n_b = c (I - Z_a - Z_b + Z_a Z_b)/4 with a = (k, s1) and
    b = (l, s2): c = 1 when k = m and l = p (densities, on-site), -1 when
    k = p, l = m and s1 = s2 (same-spin exchange), 0 when a = b or
    otherwise.  np.add.at adds each string's terms one at a time in that
    order, as the encoder does, so the coefficients are its bits.
    """
    h, half = layer.one_body, 0.5 * layer.two_body
    # slot i * width + j (i <= j) is the string Z_(i-1) Z_(j-1), Z_(-1) = I
    width = 2 * layer.n_orbitals + 1
    z_of = np.concatenate([[0], np.int64(1) << np.arange(width - 1, dtype=np.int64)])
    k = np.flatnonzero(np.diag(h_kept))
    alpha = np.repeat(h[k, k], 2)
    slots = [np.zeros(1, dtype=np.int64),
             np.stack([np.zeros_like(alpha, dtype=np.int64), 1 + table[k].ravel()], axis=1)]
    values = [np.array([layer.e_nuc]), np.stack([0.5 * alpha, -0.5 * alpha], axis=1)]
    k, l, m, p = (index[:, None] for index in np.nonzero(g_kept))
    s1, s2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    a, b = 1 + table[k, s1], 1 + table[l, s2]
    c = ((k == m) & (l == p)).astype(int) - ((k == p) & (l == m) & (s1 == s2))
    v = np.where(a == b, 0, c) * (half[k, l, m, p] * 0.25)
    slots.append(np.stack([np.zeros_like(a), a, b,
                           np.minimum(a, b) * width + np.maximum(a, b)], axis=-1))
    values.append(np.stack([v, -v, -v, v], axis=-1))
    totals = np.zeros(width * width)
    # zero terms (c = 0) change no sum that does not vanish anyway
    np.add.at(totals, np.concatenate([t.ravel() for t in slots]),
              np.concatenate([t.ravel() for t in values]))
    held = np.flatnonzero(totals)
    z = (z_of[held // width] | z_of[held % width])
    order = np.argsort(z)
    return PauliSum.from_arrays(width - 1, np.zeros_like(z), z[order], totals[held[order]])


def _hop_groups(layer: IntegralTensors, table: np.ndarray,
                g_kept: np.ndarray) -> tuple[PauliSum, PauliSum]:
    """Groups 2 and 3: the layer's pair-hop and spin-exchange strings.

    For orbitals k < m, the entries g[k,k,m,m], g[k,m,m,k], g[m,k,k,m] and
    g[m,m,k,k] (each on spins (up, down) and (down, up)) are the pair hop
    P = a+_k0 a+_k1 a_m1 a_m0, the exchange E = a+_k0 a+_m1 a_k1 a_m0 and
    their adjoints.  Each maps onto the same eight real strings with
    coefficients g/32 times a sign (_ladder_signs); a ladder product and
    its adjoint agree on them.  Each string's coefficient is summed over
    the eight entries in the encoder's order, and strings at or below
    ZERO_TOL are dropped.
    """
    n = layer.n_orbitals
    half = 0.5 * layer.two_body
    k, m = np.triu_indices(n, 1)
    qubits = np.stack([table[k, 0], table[k, 1], table[m, 0], table[m, 1]], axis=1)
    hop = _ladder_signs(qubits, ((0, True), (1, True), (3, False), (2, False)))
    exchange = _ladder_signs(qubits, ((0, True), (3, True), (1, False), (2, False)))
    totals = np.zeros((len(k), len(_Y_PATTERNS)))
    for entry, sign in (((k, k, m, m), hop), ((k, m, m, k), exchange),
                        ((m, k, k, m), exchange), ((m, m, k, k), hop)):
        term = sign * np.where(g_kept[entry], half[entry] * 0.0625, 0.0)[:, None]
        totals = totals + term  # spins (up, down)
        totals = totals + term  # spins (down, up)
    bits = np.int64(1) << qubits
    x = bits.sum(axis=1)
    # the Jordan-Wigner Z's: the qubits below an odd number of the four
    between = np.bitwise_xor.reduce(bits - 1, axis=1) & ~x
    z = between[:, None] | (_Y_PATTERNS @ bits.T).T
    x = np.broadcast_to(x[:, None], z.shape)
    kept = np.abs(totals) > ZERO_TOL
    groups = []
    for rows in (slice(4, 8), slice(0, 4)):
        keep = kept[:, rows]
        gx, gz, gc = x[:, rows][keep], z[:, rows][keep], totals[:, rows][keep]
        order = np.lexsort((gz, gx))
        groups.append(PauliSum.from_arrays(2 * n, gx[order], gz[order], gc[order]))
    return groups[0], groups[1]


def hcb_to_groups(
    layer: IntegralTensors, ordering: str = "interleaved"
) -> tuple[CommutingGroup, CommutingGroup, CommutingGroup]:
    """Split the paired layer into its three self-commuting groups.

    The groups are written from the tensors in closed form, reading the
    layout from qubit_table; nothing is Jordan-Wigner encoded.  Group 1
    holds every diagonal (Z/identity) string: alpha = diag(h), the density
    couplings g[k,l,k,l] and same-spin exchange (_diagonal_group).  Groups
    2 and 3 hold the strings of the pair hops g[k,k,m,m] and the
    opposite-spin exchange g[k,m,m,k] (k != m), each an X or Y on the four
    qubits of orbitals k and m (_hop_groups): group 2 the strings giving
    each of the two orbitals one Y, group 3 those giving each zero or two.
    Two such strings that share one orbital anticommute exactly when their
    Y parities there differ, so each family commutes under either qubit
    ordering; every group is certified before it is returned.  The
    coefficients are summed in the encoder's order, so they are the bits
    build_qubit_hamiltonian(layer, ordering, 0.0) gives the same strings.

    Off-diagonal strings up to encoding.ZERO_TOL are dropped: the paired
    structure cancels them identically through the two-body tensor's
    index symmetry, and floating arithmetic leaves residues below
    1e-17.  An entry of h or 1/2 g above ZERO_TOL outside the layer's
    patterns (_layer_masks) raises.
    """
    n = layer.n_orbitals
    table = qubit_table(n, ordering)
    h_kept = np.abs(layer.one_body) > ZERO_TOL
    g_kept = np.abs(0.5 * layer.two_body) > ZERO_TOL
    for name, array, kept, inside in zip(("h", "g"), (layer.one_body, layer.two_body),
                                         (h_kept, g_kept), _layer_masks(n)):
        outside = np.argwhere(kept & ~inside)
        if len(outside):
            index = tuple(int(i) for i in outside[0])
            raise ValueError(
                f"entry {name}{list(index)} = {array[index]:.3e} does not fit any "
                "paired-layer group; the extraction produced a non-paired operator")
    split, paired = _hop_groups(layer, table, g_kept)
    groups = (
        CommutingGroup(_diagonal_group(layer, table, h_kept, g_kept), "diagonal",
                       "diagonal_z"),
        CommutingGroup(split, "split-Y", "yx_xy"),
        CommutingGroup(paired, "paired-Y", "yy_xx"),
    )
    for group in groups:
        group.check_commuting()
    return groups


@dataclass(frozen=True)
class ProtocolRecord:
    """One step of the iterative measurement protocol."""

    step: int
    rotation: OrbitalRotation
    groups: tuple[CommutingGroup, CommutingGroup, CommutingGroup]
    contributions: tuple[float, float, float]
    cumulative: float
    residual_expectation: float
    abs_error: float


def _group_values(
    layer: IntegralTensors, one_rdm: np.ndarray, two_rdm: np.ndarray, opposite: np.ndarray
) -> tuple[float, float, float]:
    """(<layer> - off, off/2, off/2) from the RDMs in the layer's basis, off
    being the layer's opposite-spin pair hops and exchanges (see run_protocol)."""
    g, apart = layer.two_body, ~np.eye(layer.n_orbitals, dtype=bool)
    off = 0.5 * sum(float(np.sum((np.einsum(p, g) * np.einsum(p, opposite))[apart]).real)
                    for p in ("kkmm->km", "kmmk->km"))
    return rdm_expectation(layer, one_rdm, two_rdm) - off, 0.5 * off, 0.5 * off


def run_protocol(
    tensors: IntegralTensors,
    rotations: list[OrbitalRotation],
    state: Statevector,
    ordering: str = "interleaved",
) -> list[ProtocolRecord]:
    """Measure the Hamiltonian layer by layer under a rotation sequence.

    Step k rotates the current residual tensors by rotations[k], extracts
    the paired layer there, evaluates its three groups, and rotates the
    remaining residual back to the reference basis.  The cumulative
    estimate after the final step is the protocol's approximation of
    <state|H|state>; the exact value is always cumulative +
    residual_expectation, whatever the truncation, so each record's
    abs_error is |residual_expectation|.

    Every number comes from one RDM pass over the state (spin_rdms): the
    spin-summed D and G and the opposite-spin part O of G.  The residual
    is contracted with D and G; the layer with D and G rotated into the
    step's basis (rotate_array).  Its off-diagonal part, the pair hops
    g[k,k,m,m] and exchanges g[k,m,m,k] (k != m) on opposite spins, is
    off = 1/2 sum g*O there.  Groups 2 and 3 each hold half of it, and
    their difference shifts N by 4 or S_z by 2, so on a state inside one
    (N_alpha, N_beta) block each is off/2; group 1 is the rest.  A state
    spanning several blocks raises, and so does a step whose cumulative +
    residual misses <H> from D and G by more than TELESCOPING_TOL.
    """
    check_ordering(ordering)
    if not rotations:
        raise ValueError("at least one rotation is required")
    n = tensors.n_orbitals
    if state.n_qubits != 2 * n:
        raise ValueError(f"state has {state.n_qubits} qubits, expected {2 * n}")
    blocks = spin_blocks(state, ordering)
    if len(blocks) > 1:
        raise ValueError(
            f"state spans the (N_alpha, N_beta) blocks {blocks} of the {ordering} "
            "layout; the group values need a state inside one block")
    rdms = spin_rdms(state, ordering)
    exact = rdm_expectation(tensors, *rdms[:2])
    residual = tensors.copy()
    cumulative = 0.0
    records = []
    for step, rotation in enumerate(rotations, start=1):
        if rotation.n_orbitals != n:
            raise ValueError(f"rotation {step} size does not match tensors")
        layer, rest = extract_hcb(rotate_integrals(residual, rotation))
        contributions = _group_values(
            layer, *(rotate_array(rdm, rotation.matrix) for rdm in rdms))
        cumulative += float(sum(contributions))
        residual = rotate_integrals(rest, rotation.transpose())
        residual_expectation = rdm_expectation(residual, *rdms[:2])
        gap = abs(cumulative + residual_expectation - exact)
        if gap > TELESCOPING_TOL:
            raise ValueError(f"step {step}: cumulative + residual misses <H> by "
                             f"{gap:.3e} Ha (tolerance {TELESCOPING_TOL:g})")
        records.append(ProtocolRecord(
            step, rotation, hcb_to_groups(layer, ordering), contributions, cumulative,
            residual_expectation, abs(residual_expectation)))
    return records


def records_to_csv(records: list[ProtocolRecord]) -> str:
    """CSV table: one row per protocol step."""
    out = io.StringIO()
    out.write(
        "step,rotation,group1,group2,group3,cumulative,"
        "residual_expectation,abs_error\n"
    )
    for r in records:
        g1, g2, g3 = r.contributions
        out.write(
            f"{r.step},{r.rotation.label},{g1:.12e},{g2:.12e},{g3:.12e},"
            f"{r.cumulative:.12e},{r.residual_expectation:.12e},{r.abs_error:.12e}\n"
        )
    return out.getvalue()
