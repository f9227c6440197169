"""Commuting Pauli groups and Clifford circuits that diagonalize them.

The diagonalizer works by symplectic elimination: repeatedly pick a string
with X-part, concentrate its X support on one fresh qubit with CNOT/CZ/S,
then turn it into a Z with one Hadamard.  Because every remaining string
commutes with the processed one, the X column of the processed qubit stays
clear afterwards, so the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .paulis import PauliString, PauliSum, commutation_test

CLIFFORD_GATES = ("H", "S", "CNOT", "CZ", "X")


@dataclass(frozen=True)
class CliffordGate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in CLIFFORD_GATES:
            raise ValueError(f"unknown Clifford gate {self.name!r}")
        want = 2 if self.name in ("CNOT", "CZ") else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.name} takes {want} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct")


@dataclass
class CliffordCircuit:
    n_qubits: int
    gates: list[CliffordGate] = field(default_factory=list)

    def add(self, name: str, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
        self.gates.append(CliffordGate(name, tuple(qubits)))

    def __len__(self) -> int:
        return len(self.gates)


GROUP_KINDS = ("general", "diagonal_z", "yx_xy", "yy_xx")


@dataclass(frozen=True)
class CommutingGroup:
    """Pauli strings (with coefficients) that pairwise fully commute.

    `kind` tags the structural family: "diagonal_z" for all-Z strings,
    "yx_xy" for strings carrying one Y per touched spatial orbital,
    "yy_xx" for strings whose Ys pair up on single orbitals, and
    "general" for anything else (e.g. groups found by graph coloring).
    """

    n_qubits: int
    members: tuple[tuple[PauliString, float], ...]
    label: str = ""
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.kind not in GROUP_KINDS:
            raise ValueError(f"kind must be one of {GROUP_KINDS}, got {self.kind!r}")

    def strings(self) -> list[PauliString]:
        return [s for s, _ in self.members]

    def check_commuting(self, mode: str = "fully") -> None:
        """Certify that every pair of members commutes under the mode."""
        commute = commutation_test(mode)
        strs = self.strings()
        for i in range(len(strs)):
            for j in range(i + 1, len(strs)):
                if not commute(strs[i], strs[j]):
                    raise ValueError(
                        f"group {self.label!r}: {strs[i]} and {strs[j]} "
                        f"do not commute ({mode})"
                    )

    def to_sum(self) -> PauliSum:
        out = PauliSum(self.n_qubits)
        for s, c in self.members:
            out.add_term(s, c)
        return out


def conjugate_pauli(string: PauliString, circuit: CliffordCircuit) -> tuple[PauliString, int]:
    """Image (C P C^dagger, sign) of a Pauli string under the circuit's gates."""
    if string.n_qubits != circuit.n_qubits:
        raise ValueError("string and circuit qubit counts differ")
    x, z = string.x_mask, string.z_mask
    sign = 1
    for gate in circuit.gates:
        if gate.name == "H":
            (q,) = gate.qubits
            bit = 1 << q
            xb, zb = x & bit, z & bit
            if xb and zb:
                sign = -sign
            x = (x & ~bit) | zb
            z = (z & ~bit) | xb
        elif gate.name == "S":
            (q,) = gate.qubits
            bit = 1 << q
            if x & bit:
                if z & bit:
                    sign = -sign
                z ^= bit
        elif gate.name == "X":
            (q,) = gate.qubits
            if z & (1 << q):
                sign = -sign
        elif gate.name == "CNOT":
            c, t = gate.qubits
            cb, tb = 1 << c, 1 << t
            xc, zc = bool(x & cb), bool(z & cb)
            xt, zt = bool(x & tb), bool(z & tb)
            if xc and zt and (xt == zc):
                sign = -sign
            if xc:
                x ^= tb
            if zt:
                z ^= cb
        elif gate.name == "CZ":
            a, b = gate.qubits
            ab, bb = 1 << a, 1 << b
            xa, za = bool(x & ab), bool(z & ab)
            xb_, zb_ = bool(x & bb), bool(z & bb)
            if xa and xb_ and (za != zb_):
                sign = -sign
            if xb_:
                z ^= ab
            if xa:
                z ^= bb
    return PauliString(circuit.n_qubits, x, z), sign


def diagonalizing_circuit(group: CommutingGroup) -> CliffordCircuit:
    """Clifford circuit whose conjugation sends every member to a Z-string.

    Raises ValueError when the members do not pairwise commute (checked
    up-front) or if elimination stalls, which cannot happen for a valid
    commuting set.
    """
    group.check_commuting()
    n = group.n_qubits
    circuit = CliffordCircuit(n)
    rows = [[s.x_mask, s.z_mask] for s, _ in group.members]

    def apply_gate(name: str, *qubits: int) -> None:
        circuit.add(name, *qubits)
        probe = CliffordCircuit(n, [circuit.gates[-1]])
        for row in rows:
            img, _ = conjugate_pauli(PauliString(n, row[0], row[1]), probe)
            row[0], row[1] = img.x_mask, img.z_mask

    done_qubits = 0  # bitmask of qubits already locked to Z-only columns
    for _round in range(2 * n * max(1, len(rows))):
        pivot_row = next((r for r in rows if r[0] != 0), None)
        if pivot_row is None:
            return circuit
        j = (pivot_row[0] & -pivot_row[0]).bit_length() - 1
        if done_qubits & (1 << j):
            raise ValueError("diagonalization stalled on a processed qubit")
        if pivot_row[1] & (1 << j):
            apply_gate("S", j)
        for t in range(n):
            if t != j and pivot_row[0] & (1 << t):
                apply_gate("CNOT", j, t)
        for t in range(n):
            if t != j and pivot_row[1] & (1 << t):
                apply_gate("CZ", j, t)
        if pivot_row[1] & (1 << j):
            apply_gate("S", j)
        apply_gate("H", j)
        done_qubits |= 1 << j
    raise ValueError("diagonalization did not terminate")


def diagonalized_members(
    group: CommutingGroup, circuit: CliffordCircuit
) -> list[tuple[PauliString, float]]:
    """Conjugate members through the circuit, folding signs into coefficients.

    Certifies the result: every image must be diagonal.
    """
    out = []
    for string, coeff in group.members:
        image, sign = conjugate_pauli(string, circuit)
        if not image.is_diagonal():
            raise ValueError(f"circuit failed to diagonalize {string}")
        out.append((image, sign * coeff))
    return out
