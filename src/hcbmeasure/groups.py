"""Commuting Pauli groups and Clifford circuits that diagonalize them.

The diagonalizer works by symplectic elimination: repeatedly pick a string
with X-part, concentrate its X support on one fresh qubit with CNOT/CZ/S,
then turn it into a Z with one Hadamard.  Because every remaining string
commutes with the processed one, the X column of the processed qubit stays
clear afterwards, so the loop terminates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import CLIFFORD_GATES, Circuit, Gate
from .paulis import PauliString, PauliSum, anticommutation_matrix

GROUP_KINDS = ("general", "diagonal_z", "yx_xy", "yy_xx")


@dataclass(frozen=True)
class CommutingGroup:
    """A sum of Pauli strings that pairwise fully commute, with a label.

    `kind` tags the structural family: "diagonal_z" for all-Z strings,
    "yx_xy" for strings carrying one Y per touched spatial orbital,
    "yy_xx" for strings whose Ys pair up on single orbitals, and
    "general" for anything else (e.g. groups found by graph coloring).
    """

    op: PauliSum
    label: str = ""
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.kind not in GROUP_KINDS:
            raise ValueError(f"kind must be one of {GROUP_KINDS}, got {self.kind!r}")

    @property
    def n_qubits(self) -> int:
        return self.op.n_qubits

    @property
    def members(self) -> tuple[tuple[PauliString, float], ...]:
        """op's (string, coefficient) terms, in (x_mask, z_mask) order."""
        return tuple(self.op.terms())

    def check_commuting(self) -> None:
        """Certify that every pair of members fully commutes."""
        # symmetric, so the first True in row-major order is the first
        # pair (i < j) that a pairwise loop would meet
        offending = np.argwhere(anticommutation_matrix(self.op))
        if len(offending):
            i, j = offending[0]
            members = self.members
            raise ValueError(
                f"group {self.label!r}: {members[i][0]} and {members[j][0]} do not commute"
            )


def _conjugate_rows(
    x: np.ndarray, z: np.ndarray, flip: np.ndarray, gates: Sequence[Gate]
) -> None:
    """Send every row (-1)^flip P(x, z) to C P C^dagger, in place.

    Each gate updates all rows at once by the symplectic tableau rules
    (Aaronson & Gottesman, quant-ph/0406196): H swaps the qubit's x and z
    bits, S adds x into z, CNOT copies the control's x into the target and
    the target's z into the control, CZ adds each qubit's x into the
    other's z, X and Z flip the sign of rows with z or x on the qubit.
    flip collects the sign each gate contributes.  Raises ValueError,
    before touching a row, on a gate that is not a Clifford.
    """
    for gate in gates:
        if gate.name not in CLIFFORD_GATES:
            raise ValueError(f"cannot conjugate Pauli strings through a {gate.name} gate")
    for gate in gates:
        if gate.name in ("CNOT", "CZ"):
            a, b = gate.qubits
            xa, za = (x >> a) & 1, (z >> a) & 1
            xb, zb = (x >> b) & 1, (z >> b) & 1
            if gate.name == "CNOT":  # a controls b
                flip ^= xa & zb & (1 ^ xb ^ za)
                x ^= xa << b
                z ^= zb << a
            else:
                flip ^= xa & xb & (za ^ zb)
                z ^= xb << a
                z ^= xa << b
            continue
        (q,) = gate.qubits
        xq, zq = (x >> q) & 1, (z >> q) & 1
        if gate.name == "H":
            flip ^= xq & zq
            swap = (xq ^ zq) << q
            x ^= swap
            z ^= swap
        elif gate.name == "S":
            flip ^= xq & zq
            z ^= xq << q
        elif gate.name == "X":
            flip ^= zq
        else:  # Z
            flip ^= xq


def conjugate_pauli(
    op: PauliSum, circuit: Circuit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Images C P C^dagger of op's strings under the circuit's gates.

    Returns (x masks, z masks, signs), aligned with op's terms: string i
    goes to signs[i] P(x[i], z[i]), signs[i] in {1.0, -1.0}.
    """
    if op.n_qubits != circuit.n_qubits:
        raise ValueError("operator and circuit qubit counts differ")
    x, z = op.x.copy(), op.z.copy()
    flip = np.zeros_like(x)
    _conjugate_rows(x, z, flip, circuit.gates)
    return x, z, 1.0 - 2.0 * flip


def diagonalizing_circuit(group: CommutingGroup) -> Circuit:
    """Clifford circuit whose conjugation sends every member to a Z-string.

    Raises ValueError when the members do not pairwise commute (checked
    up-front) or if elimination stalls, which cannot happen for a valid
    commuting set.
    """
    group.check_commuting()
    n = group.n_qubits
    circuit = Circuit(n)
    x, z = group.op.x.copy(), group.op.z.copy()
    flip = np.zeros_like(x)

    def apply_gate(name: str, *qubits: int) -> None:
        circuit.add(name, *qubits)
        _conjugate_rows(x, z, flip, circuit.gates[-1:])

    done_qubits = 0  # bitmask of qubits already locked to Z-only columns
    for _round in range(2 * n * max(1, len(x))):
        live = np.flatnonzero(x)
        if not len(live):
            return circuit
        p = live[0]  # the pivot row, re-read after every gate
        pivot_x = int(x[p])
        j = (pivot_x & -pivot_x).bit_length() - 1
        if done_qubits & (1 << j):
            raise ValueError("diagonalization stalled on a processed qubit")
        if int(z[p]) >> j & 1:
            apply_gate("S", j)
        for t in range(n):
            if t != j and int(x[p]) >> t & 1:
                apply_gate("CNOT", j, t)
        for t in range(n):
            if t != j and int(z[p]) >> t & 1:
                apply_gate("CZ", j, t)
        if int(z[p]) >> j & 1:
            apply_gate("S", j)
        apply_gate("H", j)
        done_qubits |= 1 << j
    raise ValueError("diagonalization did not terminate")


def diagonalized_members(
    group: CommutingGroup, circuit: Circuit
) -> tuple[np.ndarray, np.ndarray]:
    """(z masks, signs) of the members' images, aligned with group.members:
    the circuit sends member i to signs[i] Z^z[i].

    Certifies the result: every image must be diagonal.
    """
    x, z, signs = conjugate_pauli(group.op, circuit)
    left = np.flatnonzero(x)
    if len(left):
        raise ValueError(f"circuit failed to diagonalize {group.members[left[0]][0]}")
    return z, signs
