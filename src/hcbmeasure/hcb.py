"""Hard-core-boson layer extraction and the iterative measurement protocol.

A molecular Hamiltonian holds a sub-operator built entirely from paired
excitations and densities — the entries of the integral tensors that
_layer_masks selects.  That layer maps onto just three mutually-commuting
Pauli groups, so it can be measured with three circuit settings.

The protocol repeats the split under a sequence of orbital rotations:
rotate the residual tensors into a new basis, peel off the layer that is
cheap to measure there, evaluate it on the rotated state, and rotate the
(shrunken) residual back.  Truncating after any step leaves an explicit
residual operator, so the running estimate plus the residual expectation
always reproduces the exact expectation value.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .encoding import build_qubit_hamiltonian, check_ordering, spin_orbital_index
from .groups import CommutingGroup
from .integrals import IntegralTensors, rdm_expectation
from .rotations import OrbitalRotation, rotate_integrals
from .simulator import (
    Statevector,
    apply_circuit,
    expectation,
    rotation_circuit,
    spin_summed_rdms,
)

# Off-diagonal paired-layer strings at or below this magnitude are float
# residues of terms the tensor's index symmetry cancels exactly.
CANCELLATION_TOL = 1e-10


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

    Off-diagonal strings up to CANCELLATION_TOL are dropped: the paired
    structure cancels them identically through the two-body tensor's
    index symmetry, and floating arithmetic leaves residues of order
    1e-16.  A larger coefficient that fits neither family signals a real
    encoding defect and raises.
    """
    check_ordering(ordering)
    op = build_qubit_hamiltonian(layer, ordering, 0.0)
    n = layer.n_orbitals
    pair_masks = [
        sum(1 << spin_orbital_index(k, spin, n, ordering) for spin in (0, 1))
        for k in range(n)
    ]
    diagonal = []
    one_y = []
    paired_y = []
    for string, coeff in op.terms():
        x, z = string.x_mask, string.z_mask
        if x == 0:
            diagonal.append((string, coeff))
            continue
        if abs(coeff) <= CANCELLATION_TOL:
            continue
        y_counts = {(x & z & pair).bit_count() for pair in pair_masks if x & pair}
        if y_counts == {1}:
            one_y.append((string, coeff))
        elif y_counts <= {0, 2}:
            paired_y.append((string, coeff))
        else:
            raise ValueError(
                f"string {string} (coefficient {coeff:.3e}) does not fit "
                "any paired-layer group; the extraction produced a "
                "non-paired operator"
            )
    groups = (
        CommutingGroup(op.n_qubits, tuple(diagonal), "diagonal", "diagonal_z"),
        CommutingGroup(op.n_qubits, tuple(one_y), "split-Y", "yx_xy"),
        CommutingGroup(op.n_qubits, tuple(paired_y), "paired-Y", "yy_xx"),
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


def run_protocol(
    tensors: IntegralTensors,
    rotations: list[OrbitalRotation],
    state: Statevector,
    ordering: str = "interleaved",
) -> list[ProtocolRecord]:
    """Measure the Hamiltonian layer by layer under a rotation sequence.

    Step k rotates the current residual tensors by rotations[k], extracts
    the paired layer there, evaluates its three groups on the rotated
    state, and rotates the remaining residual back to the reference
    basis.  The cumulative estimate after the final step is the protocol's
    approximation of <state|H|state>; the exact value is always
    cumulative + residual_expectation, whatever the truncation, so each
    record's abs_error is |residual_expectation|.

    The groups are what the protocol measures, so their values come from
    the rotated state.  The residual is only the truncation error: the
    state's spin-summed 1- and 2-RDM are built once per call and each
    step's residual tensors are contracted with them.
    """
    check_ordering(ordering)
    if not rotations:
        raise ValueError("at least one rotation is required")
    n = tensors.n_orbitals
    if state.n_qubits != 2 * n:
        raise ValueError(
            f"state has {state.n_qubits} qubits, expected {2 * n}"
        )
    one_rdm, two_rdm = spin_summed_rdms(state, ordering)
    residual = tensors.copy()
    cumulative = 0.0
    records = []
    for step, rotation in enumerate(rotations, start=1):
        if rotation.n_orbitals != n:
            raise ValueError(f"rotation {step} size does not match tensors")
        rotated = rotate_integrals(residual, rotation)
        layer, rest = extract_hcb(rotated)
        groups = hcb_to_groups(layer, ordering)
        target = apply_circuit(state, rotation_circuit(rotation, n, ordering))
        contributions = tuple(
            expectation(target, group.to_sum()) for group in groups
        )
        cumulative += float(sum(contributions))
        residual = rotate_integrals(rest, rotation.transpose())
        residual_expectation = rdm_expectation(residual, one_rdm, two_rdm)
        records.append(
            ProtocolRecord(
                step=step,
                rotation=rotation,
                groups=groups,
                contributions=contributions,
                cumulative=cumulative,
                residual_expectation=residual_expectation,
                abs_error=abs(residual_expectation),
            )
        )
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
