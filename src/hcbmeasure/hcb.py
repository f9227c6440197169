"""Hard-core-boson layer extraction and the iterative measurement protocol.

A molecular Hamiltonian holds a sub-operator built entirely from paired
excitations and densities — the entries of the integral tensors that
_layer_masks selects.  That layer maps onto just three mutually-commuting
Pauli groups, so it can be measured with three circuit settings.

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

from .encoding import ZERO_TOL, build_qubit_hamiltonian, check_ordering, qubit_table
from .groups import CommutingGroup
from .integrals import IntegralTensors, rdm_expectation
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


def hcb_to_groups(
    layer: IntegralTensors, ordering: str = "interleaved"
) -> tuple[CommutingGroup, CommutingGroup, CommutingGroup]:
    """Split the paired layer into its three self-commuting groups.

    Group 1 collects every diagonal (Z/identity) string.  Off-diagonal
    strings classify by where their Y letters sit relative to the two
    qubits of each orbital: strings giving every touched orbital (one
    whose qubits carry an X or Y) exactly one Y form group 2, and strings
    giving every touched orbital an even Y count (zero or two) form
    group 3.  Two hop strings that share one orbital anticommute exactly
    when their per-orbital Y parities differ, so each family is internally
    commuting under either qubit ordering; every group is certified
    before it is returned.

    Off-diagonal strings up to encoding.ZERO_TOL are dropped: the paired
    structure cancels them identically through the two-body tensor's
    index symmetry, and floating arithmetic leaves residues below
    1e-17.  A larger coefficient that fits neither family signals a real
    encoding defect and raises.
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
        raise ValueError(
            f"string {string} (coefficient {coeff:.3e}) does not fit "
            "any paired-layer group; the extraction produced a "
            "non-paired operator"
        )
    groups = (
        CommutingGroup(op.take(diagonal), "diagonal", "diagonal_z"),
        CommutingGroup(op.take(one_y), "split-Y", "yx_xy"),
        CommutingGroup(op.take(paired_y), "paired-Y", "yy_xx"),
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
