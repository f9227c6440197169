"""Pauli string algebra on bitmask (symplectic) representation.

A Pauli string on n qubits is stored as a pair of integer bitmasks
(x_mask, z_mask): qubit j carries X when only bit j of x_mask is set,
Z when only bit j of z_mask is set, Y when both are set.  The string
is the Hermitian operator prod_j P_j with this letter assignment.
PauliString is one such word; PauliSum holds a weighted set of them as
mask and coefficient arrays (the binary symplectic form of Dehaene & De
Moor, quant-ph/0304125), which every consumer reads directly.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

_LETTER_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

ANTICOMMUTE_BLOCK = 1 << 18  # mask-pair entries of one anticommutation_rows block


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


def anticommutation_rows(op: PauliSum) -> np.ndarray:
    """anticommutation_matrix packed eight entries to a byte along each row
    (np.packbits order: entry j is bit 7 - j % 8 of byte j // 8)."""
    dtype = np.min_scalar_type((1 << op.n_qubits) - 1)
    x = op.x.astype(dtype)
    z = op.z.astype(dtype)
    out = np.empty((len(x), (len(x) + 7) // 8), dtype=np.uint8)
    # row blocks bound the mask matrices to ANTICOMMUTE_BLOCK entries each
    step = max(1, ANTICOMMUTE_BLOCK // max(1, len(x)))
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        # |a| + |b| and |a ^ b| have equal parity (a = x_i & z_j, b = z_i & x_j)
        symplectic = x[rows, None] & z
        symplectic ^= z[rows, None] & x
        out[rows] = np.packbits(np.bitwise_count(symplectic) & 1, axis=1)
    return out


def anticommutation_matrix(op: PauliSum) -> np.ndarray:
    """Boolean matrix whose (i, j) entry is True when terms i and j of op anticommute.

    The entry is the parity of |x_i & z_j| + |z_i & x_j|, which is the
    parity of the number of qubits where the two letters differ and neither
    is the identity.  The masks are cast to the smallest unsigned dtype that
    fits op's qubit count (uint16 at 16 qubits).  The matrix is symmetric
    with a False diagonal.
    """
    return np.unpackbits(anticommutation_rows(op), axis=1, count=len(op)).view(bool)


class PauliSum:
    """Real-coefficient sum of distinct Pauli strings on 1 to 64 qubits.

    The terms are three read-only arrays: uint64 masks x and z and float64
    coeffs, sorted by (x, z), every coefficient nonzero.  Build a sum from
    a {PauliString: coefficient} mapping or from arrays (from_arrays); both
    drop zero coefficients.  terms() is the scalar view.
    """

    def __init__(self, n_qubits: int, terms: Mapping[PauliString, float] | None = None):
        _check_qubit_count(n_qubits)
        items = sorted((terms or {}).items(), key=lambda kv: (kv[0].x_mask, kv[0].z_mask))
        if any(s.n_qubits != n_qubits for s, _ in items):
            raise ValueError("term qubit count does not match the sum")
        self._assign(n_qubits, np.array([s.x_mask for s, _ in items], dtype=np.uint64),
                     np.array([s.z_mask for s, _ in items], dtype=np.uint64),
                     [c for _, c in items])

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "PauliSum":
        """The sum of coeffs[i] P(x[i], z[i]); raises ValueError unless the
        masks fit n_qubits and are sorted by (x, z) without repeats and the
        coefficients are finite."""
        _check_qubit_count(n_qubits)
        out = cls.__new__(cls)
        out._assign(n_qubits, x, z, coeffs)
        return out

    def _assign(self, n_qubits: int, x, z, coeffs) -> None:
        x, z = _mask_array(x, n_qubits), _mask_array(z, n_qubits)
        coeffs = np.array(coeffs, dtype=float)
        if not x.shape == z.shape == coeffs.shape:
            raise ValueError(f"mask and coefficient shapes differ: {x.shape}, {z.shape}, "
                             f"{coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficient")
        later = (x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (z[1:] > z[:-1]))
        if not np.all(later):
            i = int(np.flatnonzero(~later)[0])
            if x[i] == x[i + 1] and z[i] == z[i + 1]:
                raise ValueError(f"duplicate string {PauliString(n_qubits, int(x[i]), int(z[i]))}")
            raise ValueError("strings are not sorted by (x_mask, z_mask)")
        keep = coeffs != 0.0
        self.n_qubits = n_qubits
        self.x, self.z, self.coeffs = x[keep], z[keep], coeffs[keep]
        for array in (self.x, self.z, self.coeffs):
            array.flags.writeable = False

    def terms(self) -> list[tuple[PauliString, float]]:
        """(string, coefficient) pairs in (x_mask, z_mask) order, as Python
        ints and floats; the identity (if present) comes first."""
        return [(PauliString(self.n_qubits, x, z), c)
                for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist())]

    def _positions(self, string: PauliString) -> np.ndarray:
        if string.n_qubits != self.n_qubits:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero((self.x == string.x_mask) & (self.z == string.z_mask))

    def coefficient(self, string: PauliString) -> float:
        hit = self._positions(string)
        return float(self.coeffs[hit[0]]) if len(hit) else 0.0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __contains__(self, string: PauliString) -> bool:
        return len(self._positions(string)) > 0

    def take(self, index) -> "PauliSum":
        """The terms at ascending positions, or where a boolean mask is True."""
        return PauliSum.from_arrays(self.n_qubits, self.x[index], self.z[index],
                                    self.coeffs[index])

    def prune(self, threshold: float = 1e-12) -> "PauliSum":
        """Drop terms with |coefficient| <= threshold."""
        if threshold < 0:
            raise ValueError("prune threshold must be >= 0")
        return self.take(np.abs(self.coeffs) > threshold)


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= 64:
        raise ValueError(f"PauliSum takes 1 to 64 qubits, got {n_qubits}")


def _mask_array(values, n_qubits: int) -> np.ndarray:
    """values as a uint64 array; raises ValueError unless they are integers
    in [0, 2^n_qubits)."""
    masks = np.asarray(values)
    if masks.ndim != 1:
        raise ValueError(f"masks must be one-dimensional, got shape {masks.shape}")
    if not len(masks):
        return np.zeros(0, dtype=np.uint64)
    if masks.dtype.kind not in "iu":
        raise ValueError(f"masks must be an array of integers below 2^64, got dtype {masks.dtype}")
    if masks.min() < 0 or (n_qubits < 64 and masks.max() >> n_qubits):
        raise ValueError(f"masks out of range for {n_qubits} qubits")
    return masks.astype(np.uint64)
