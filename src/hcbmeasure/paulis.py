"""Pauli string algebra on bitmask (symplectic) representation.

A Pauli string on n qubits is stored as a pair of integer bitmasks
(x_mask, z_mask): qubit j carries X when only bit j of x_mask is set,
Z when only bit j of z_mask is set, Y when both are set.  The string
is the Hermitian operator prod_j P_j with this letter assignment.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_PHASES = (1.0, 1.0j, -1.0, -1.0j)

_LETTER_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

ANTICOMMUTE_BLOCK = 1 << 18  # mask-pair entries of one anticommutation_matrix block


def _check_masks(n_qubits: int, x_mask: int, z_mask: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    limit = 1 << n_qubits
    if not (0 <= x_mask < limit and 0 <= z_mask < limit):
        raise ValueError(
            f"masks out of range for {n_qubits} qubits: x={x_mask}, z={z_mask}"
        )


@dataclass(frozen=True)
class PauliString:
    """Single Pauli word; hashable, with identity = zero masks."""

    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self) -> None:
        _check_masks(self.n_qubits, self.x_mask, self.z_mask)

    @classmethod
    def from_label(cls, n_qubits: int, label: str) -> "PauliString":
        """Build from text like "X0 Y3 Z5"; empty label is the identity."""
        x = z = 0
        for token in label.split():
            m = re.fullmatch(r"([XYZ])(\d+)", token)
            if m is None:
                raise ValueError(f"bad Pauli token {token!r}")
            q = int(m.group(2))
            if q >= n_qubits:
                raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
            if ((x | z) >> q) & 1:
                raise ValueError(f"duplicate qubit {q} in label {label!r}")
            xb, zb = _LETTER_TO_BITS[m.group(1)]
            x |= xb << q
            z |= zb << q
        return cls(n_qubits, x, z)

    @property
    def support(self) -> int:
        """Bitmask of qubits acted on non-trivially."""
        return self.x_mask | self.z_mask

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def is_diagonal(self) -> bool:
        """True when the string is a product of Z's and identities."""
        return self.x_mask == 0

    def letter(self, qubit: int) -> str:
        xb = (self.x_mask >> qubit) & 1
        zb = (self.z_mask >> qubit) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    def label(self) -> str:
        parts = []
        for q in range(self.n_qubits):
            l = self.letter(q)
            if l != "I":
                parts.append(f"{l}{q}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.label() or "I"

    def commutes_with(self, other: "PauliString") -> bool:
        """Full (not qubitwise) commutation; see anticommutation_matrix."""
        return not anticommutation_matrix([self, other])[0, 1]

    def sort_key(self) -> tuple[int, int]:
        return (self.x_mask, self.z_mask)


def anticommutation_matrix(strings: Sequence[PauliString]) -> np.ndarray:
    """Boolean matrix whose (i, j) entry is True when strings i and j anticommute.

    The entry is the parity of |x_i & z_j| + |z_i & x_j|, which is the
    parity of the number of qubits where the two letters differ and neither
    is the identity.  The masks are held in the smallest unsigned dtype that
    fits n_qubits bits (at most 64).  The matrix is symmetric with a False
    diagonal.
    """
    counts = {s.n_qubits for s in strings}
    if len(counts) > 1:
        raise ValueError("Pauli strings act on different qubit counts")
    n_qubits = counts.pop() if counts else 1
    if n_qubits > 64:
        raise ValueError(f"anticommutation_matrix takes at most 64 qubits, got {n_qubits}")
    dtype = np.min_scalar_type((1 << n_qubits) - 1)
    x = np.array([s.x_mask for s in strings], dtype=dtype)
    z = np.array([s.z_mask for s in strings], dtype=dtype)
    out = np.empty((len(x), len(x)), dtype=bool)
    # row blocks bound the mask matrices to ANTICOMMUTE_BLOCK entries each
    step = max(1, ANTICOMMUTE_BLOCK // max(1, len(x)))
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        # |a| + |b| and |a ^ b| have equal parity (a = x_i & z_j, b = z_i & x_j)
        symplectic = x[rows, None] & z
        symplectic ^= z[rows, None] & x
        out[rows] = np.bitwise_count(symplectic) & 1
    return out


def multiply(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a*b as (string, phase) with phase in {1, i, -1, -i}."""
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


class PauliSum:
    """Real-coefficient sum of Pauli strings with deterministic term order.

    Keys are (x_mask, z_mask) pairs; iteration is always sorted by those
    masks, so serialization and downstream grouping are reproducible.
    """

    def __init__(self, n_qubits: int, terms: dict[PauliString, float] | None = None):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        self.n_qubits = n_qubits
        self._terms: dict[PauliString, float] = {}
        if terms:
            for string, coeff in terms.items():
                self.add_term(string, coeff)

    def add_term(self, string: PauliString, coeff: float) -> None:
        if string.n_qubits != self.n_qubits:
            raise ValueError("term qubit count does not match the sum")
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite coefficient {coeff}")
        new = self._terms.get(string, 0.0) + coeff
        if new == 0.0:
            self._terms.pop(string, None)
        else:
            self._terms[string] = new

    def terms(self) -> list[tuple[PauliString, float]]:
        """Terms sorted by (x_mask, z_mask); identity (if present) comes first."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, string: PauliString) -> float:
        return self._terms.get(string, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, string: PauliString) -> bool:
        return string in self._terms

    def copy(self) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out._terms = dict(self._terms)
        return out

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("sums act on different qubit counts")
        out = self.copy()
        for s, c in other._terms.items():
            out.add_term(s, c)
        return out

    def prune(self, threshold: float = 1e-12) -> "PauliSum":
        """Drop terms with |coefficient| <= threshold."""
        if threshold < 0:
            raise ValueError("prune threshold must be >= 0")
        out = PauliSum(self.n_qubits)
        for s, c in self._terms.items():
            if abs(c) > threshold:
                out.add_term(s, c)
        return out
