"""Commuting Pauli groups and Clifford circuits that diagonalize them.

Every group is diagonalized in the canonical form of Aaronson & Gottesman
(quant-ph/0406196), read off one GF(2) row-echelon pass over the members'
X masks: a CNOT fan-out from each pivot onto the other bits of its basis
row, a CZ/S network read off the symmetric pivot matrix of those rows' Z
bits, then H on the pivots.  Each member's image and sign follow in closed
form (CanonicalDiagonalizer.images).  The form also serves the sampler:
on a basis state the first two layers are one XOR and one power of i, and
the H layer is a Walsh-Hadamard transform over the pivots (Dehaene & De
Moor, quant-ph/0304125).

conjugate_pauli and diagonalized_members push strings through any
Clifford gate list by the tableau rules; they certify a circuit's images
independently of the closed form.
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


def _bits(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


@dataclass(frozen=True)
class CanonicalDiagonalizer:
    """A commuting group's diagonalizer in canonical form.

    pivots: ascending qubits, one per row of the reduced row-echelon basis
    of the members' X masks.  fanout[i]: the other bits of pivot i's basis
    row, the targets of its CNOTs.  links[i]: row i of the symmetric pivot
    matrix M as a mask over the pivot qubits; the diagonal is an S on the
    pivot, an off-diagonal bit a CZ.  The circuit is the CNOT fan-out, the
    CZ/S network and H on the pivots, in that order.  No CNOT targets a
    pivot, so the fan-out leaves every pivot bit as it is.
    """

    n_qubits: int
    pivots: tuple[int, ...]
    fanout: tuple[int, ...]
    links: tuple[int, ...]

    @property
    def pivot_mask(self) -> int:
        return sum(1 << p for p in self.pivots)

    def fanout_flips(self, masks: np.ndarray) -> np.ndarray:
        """The non-pivot bits the CNOT fan-out flips on each basis state (or
        X mask): the XOR of fanout[i] over the pivots i it holds."""
        flips = np.zeros_like(masks)
        for p, targets in zip(self.pivots, self.fanout):
            flips ^= ((masks >> p) & 1) * targets
        return flips

    def phase_exponents(self, masks: np.ndarray) -> np.ndarray:
        """The exponent of i that the CZ/S network puts on X^u, u the pivot
        bits of each mask: |u & S| + 2 * (CZ edges inside u), as int64."""
        u = masks & self.pivot_mask
        exponent = np.zeros(u.shape, dtype=np.int64)
        for p, link in zip(self.pivots, self.links):
            on = (u >> p) & 1
            above = link & ~((2 << p) - 1)  # each edge counted at its lower end
            exponent += (on * ((link >> p & 1) + 2 * np.bitwise_count(u & above))).astype(np.int64)
        return exponent

    def images(self, op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
        """(z masks, signs) of op's strings conjugated by the circuit, in
        closed form: string i goes to signs[i] Z^z[i].

        After the fan-out, P = i^|x&z| X^x Z^z is i^|x&z| X^u Z^z' with
        u = x & pivots, and its Z bit on pivot i is the parity of z against
        basis row i (pivot | fanout[i]).  The CZ/S network adds M u to the
        pivots' Z bits and phase_exponents to the exponent; H then turns
        X^u into Z^u.  Raises ValueError, naming the string, when a pivot
        keeps its Z bit (the image is not diagonal) or the sign is not real.
        """
        if op.n_qubits != self.n_qubits:
            raise ValueError("operator and circuit qubit counts differ")
        x, z = op.x, op.z
        u = x & self.pivot_mask
        left = np.zeros(len(x), dtype=bool)
        for p, targets, link in zip(self.pivots, self.fanout, self.links):
            z_bit = np.bitwise_count(z & (targets | 1 << p)) & 1
            left |= z_bit != np.bitwise_count(u & link) & 1
        exponent = np.bitwise_count(x & z) + self.phase_exponents(x)
        left |= (exponent & 1).astype(bool)
        bad = np.flatnonzero(left)
        if len(bad):
            string = PauliString(self.n_qubits, int(x[bad[0]]), int(z[bad[0]]))
            raise ValueError(f"canonical form failed to diagonalize {string}")
        return u | (z & ~np.uint64(self.pivot_mask)), 1.0 - (exponent & 2)

    def circuit(self) -> Circuit:
        """The gates: the CNOT fan-out, CZ then S among the pivots, H on each pivot."""
        circuit = Circuit(self.n_qubits)
        for p, targets in zip(self.pivots, self.fanout):
            for t in _bits(targets):
                circuit.add("CNOT", p, t)
        for p, link in zip(self.pivots, self.links):
            for q in _bits(link & ~((2 << p) - 1)):
                circuit.add("CZ", p, q)
        for p, link in zip(self.pivots, self.links):
            if link >> p & 1:
                circuit.add("S", p)
        for p in self.pivots:
            circuit.add("H", p)
        return circuit


def _row_echelon(x: np.ndarray, z: np.ndarray) -> list[tuple[int, int, int]]:
    """(pivot, x mask, z mask) of a reduced row-echelon basis of the X masks,
    ascending in pivot; each row's z mask is that of the same product of
    members, so the row stands for a string of the group up to phase.

    Each round takes the first row with X part left, pivots on its lowest
    bit and clears that bit from every other row, the basis rows found
    earlier included.
    """
    x, z = x.copy(), z.copy()
    rows: list[tuple[int, int, int]] = []
    while True:
        live = np.flatnonzero(x)
        if not len(live):
            return sorted(rows)
        xr, zr = int(x[live[0]]), int(z[live[0]])
        p = (xr & -xr).bit_length() - 1
        hit = ((x >> p) & 1).astype(bool)
        x[hit] ^= np.uint64(xr)
        z[hit] ^= np.uint64(zr)
        rows = [(q, a ^ xr, b ^ zr) if a >> p & 1 else (q, a, b) for q, a, b in rows]
        rows.append((p, xr, zr))


def canonical_diagonalizer(group: CommutingGroup) -> CanonicalDiagonalizer:
    """The canonical-form diagonalizer of a commuting group (Aaronson &
    Gottesman, quant-ph/0406196), from one GF(2) row-echelon pass over the
    members' X masks.

    After the fan-out, basis row j has X part on pivot j alone, and its Z
    bit on pivot i is M[i, j] = parity(z_j & x_i).  Commutation makes M
    symmetric and every member's pivot Z bits M u, u its pivot X bits, so
    the CZ/S network read off M clears them.  Raises ValueError when the
    members do not pairwise commute or M is not symmetric.
    """
    group.check_commuting()
    rows = _row_echelon(group.op.x, group.op.z)
    links = tuple(sum(1 << pj for pj, _, zj in rows if (zj & xi).bit_count() & 1)
                  for _, xi, _ in rows)
    for (p, _, _), link in zip(rows, links):
        for (q, _, _), other in zip(rows, links):
            if (link >> q & 1) != (other >> p & 1):
                raise ValueError(f"group {group.label!r}: the pivot matrix of qubits "
                                 f"{p} and {q} is not symmetric")
    return CanonicalDiagonalizer(group.n_qubits, tuple(p for p, _, _ in rows),
                                 tuple(xi & ~(1 << p) for p, xi, _ in rows), links)


def diagonalizing_circuit(group: CommutingGroup) -> Circuit:
    """Clifford circuit whose conjugation sends every member to a Z-string:
    the circuit of canonical_diagonalizer(group).

    Raises ValueError when the members do not pairwise commute.
    """
    return canonical_diagonalizer(group).circuit()


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
