"""Hard-core-boson layer extraction and the iterative measurement protocol.

A molecular Hamiltonian holds a sub-operator built entirely from paired
excitations and densities — the entries of the integral tensors at the
index patterns (k,k), (k,k,l,l), (k,l,l,k), (k,l,k,l), and (k,k,k,k).
That layer maps onto just three mutually-commuting Pauli groups, so it
can be measured with three circuit settings.

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

from .encoding import build_qubit_hamiltonian, check_ordering
from .groups import CommutingGroup
from .integrals import IntegralTensors, rdm_expectation
from .paulis import PauliString, PauliSum
from .rotations import OrbitalRotation, identity_rotation, rotate_integrals
from .simulator import (
    Statevector,
    apply_circuit,
    expectation,
    rotation_circuit,
    spin_summed_rdms,
)

# g-tensor index patterns consumed by the extraction, keyed by list name
PAIR_HOP = "pair_hop"        # (k,k,l,l): both electrons of a pair move l -> k
CROSS_EXCHANGE = "exchange"  # (k,l,l,k): spin exchange between two orbitals
DENSITY = "density"          # (k,l,k,l): density-density coupling

# Off-diagonal paired-layer strings at or below this magnitude are float
# residues of terms the tensor's index symmetry cancels exactly.
CANCELLATION_TOL = 1e-10


@dataclass(frozen=True)
class HCBDecomposition:
    """Paired-layer coefficients plus the untouched residual tensors.

    alpha:  (k, h_kk) one-body occupations
    beta:   (k, l, g[k,k,l,l]) pair hops, k != l
    gamma:  (k, l, g[k,l,l,k]) cross terms, k != l, plus the on-site
            (k, k, g[k,k,k,k]) weights which appear in gamma exactly once
    delta:  (k, l, g[k,l,k,l]) density-density couplings, k != l
    core:   constant energy consumed from the tensors (nuclear repulsion)
    residual: input tensors with every consumed entry zeroed
    basis:  rotation mapping the reference basis to the basis this
            decomposition was extracted in
    """

    n_orbitals: int
    alpha: tuple[tuple[int, float], ...]
    beta: tuple[tuple[int, int, float], ...]
    gamma: tuple[tuple[int, int, float], ...]
    delta: tuple[tuple[int, int, float], ...]
    core: float
    residual: IntegralTensors
    basis: OrbitalRotation

    def consumed_tensors(self) -> IntegralTensors:
        """Tensors holding exactly the extracted entries (plus core)."""
        n = self.n_orbitals
        h = np.zeros((n, n))
        g = np.zeros((n, n, n, n))
        for k, c in self.alpha:
            h[k, k] = c
        for k, l, c in self.beta:
            g[k, k, l, l] = c
        for k, l, c in self.gamma:
            if k == l:
                g[k, k, k, k] = c
            else:
                g[k, l, l, k] = c
        for k, l, c in self.delta:
            g[k, l, k, l] = c
        return IntegralTensors(n, h, g, self.core, self.residual.basis)


def extract_hcb(
    tensors: IntegralTensors, basis: OrbitalRotation | None = None
) -> HCBDecomposition:
    """Split tensors into the paired layer and an entrywise-exact residual.

    Applying extract_hcb to the returned residual yields all-zero
    coefficient lists (the consumed entries are gone), and
    consumed_tensors() + residual reproduces the input exactly.
    """
    n = tensors.n_orbitals
    h_res = tensors.one_body.copy()
    g_res = tensors.two_body.copy()
    alpha = []
    beta = []
    gamma = []
    delta = []
    for k in range(n):
        alpha.append((k, float(h_res[k, k])))
        h_res[k, k] = 0.0
        gamma.append((k, k, float(g_res[k, k, k, k])))
        g_res[k, k, k, k] = 0.0
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            beta.append((k, l, float(g_res[k, k, l, l])))
            g_res[k, k, l, l] = 0.0
            gamma.append((k, l, float(g_res[k, l, l, k])))
            g_res[k, l, l, k] = 0.0
            delta.append((k, l, float(g_res[k, l, k, l])))
            g_res[k, l, k, l] = 0.0
    residual = IntegralTensors(n, h_res, g_res, 0.0, tensors.basis)
    if basis is None:
        basis = identity_rotation(n)
    return HCBDecomposition(
        n_orbitals=n,
        alpha=tuple(alpha),
        beta=tuple(beta),
        gamma=tuple(gamma),
        delta=tuple(delta),
        core=tensors.e_nuc,
        residual=residual,
        basis=basis,
    )


def hcb_operator(
    decomposition: HCBDecomposition, ordering: str = "interleaved"
) -> PauliSum:
    """Qubit operator of the extracted layer (constant included), unpruned."""
    return build_qubit_hamiltonian(decomposition.consumed_tensors(), ordering, 0.0)


def _touched_orbital_y_counts(
    string: PauliString, n_orbitals: int, ordering: str
) -> list[int]:
    """Y letters per orbital, restricted to orbitals carrying any X or Y.

    Each orbital owns two qubits (one per spin); an orbital is *touched*
    when either of them carries a bit-flipping letter.  The returned list
    holds the Y count of every touched orbital, in orbital order.
    """
    from .encoding import spin_orbital_index

    counts = []
    for k in range(n_orbitals):
        y = 0
        touched = False
        for spin in (0, 1):
            letter = string.letter(spin_orbital_index(k, spin, n_orbitals, ordering))
            if letter in ("X", "Y"):
                touched = True
                if letter == "Y":
                    y += 1
        if touched:
            counts.append(y)
    return counts


def hcb_to_groups(
    decomposition: HCBDecomposition, ordering: str = "interleaved"
) -> tuple[CommutingGroup, CommutingGroup, CommutingGroup]:
    """Split the extracted layer into its three self-commuting groups.

    Group 1 collects every diagonal (Z/identity) string.  Off-diagonal
    strings classify by where their Y letters sit relative to the two
    qubits of each orbital: strings giving every touched orbital exactly
    one Y form group 2, and strings giving every touched orbital an even
    Y count (zero or two) form group 3.  Two hop strings that share one
    orbital anticommute exactly when their per-orbital Y parities differ,
    so each family is internally commuting under either qubit ordering;
    every group is certified before it is returned.

    Off-diagonal strings up to CANCELLATION_TOL are dropped: the paired
    structure cancels them identically through the two-body tensor's
    index symmetry, and floating arithmetic leaves residues of order
    1e-16.  A larger coefficient that fits neither family signals a real
    encoding defect and raises.
    """
    check_ordering(ordering)
    op = hcb_operator(decomposition, ordering)
    n = decomposition.n_orbitals
    diagonal = []
    one_y = []
    paired_y = []
    for string, coeff in op.terms():
        if string.x_mask == 0:
            diagonal.append((string, coeff))
            continue
        if abs(coeff) <= CANCELLATION_TOL:
            continue
        counts = _touched_orbital_y_counts(string, n, ordering)
        if counts and all(c == 1 for c in counts):
            one_y.append((string, coeff))
        elif counts and all(c in (0, 2) for c in counts):
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

    @property
    def step_value(self) -> float:
        return float(sum(self.contributions))


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
        decomposition = extract_hcb(rotated, basis=rotation)
        groups = hcb_to_groups(decomposition, ordering)
        target = apply_circuit(state, rotation_circuit(rotation, n, ordering))
        contributions = tuple(
            expectation(target, group.to_sum()) for group in groups
        )
        cumulative += float(sum(contributions))
        residual = rotate_integrals(decomposition.residual, rotation.transpose())
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


def protocol_error_curve(
    records: list[ProtocolRecord], exact: float
) -> list[tuple[int, float]]:
    """Absolute approximation error after each step, starting at step 0."""
    curve = [(0, abs(exact))]
    for record in records:
        curve.append((record.step, record.abs_error))
    return curve


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
