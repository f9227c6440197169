"""Jordan-Wigner mapping from fermionic operators to Pauli sums.

Spin orbital layouts ("orderings") supported:
  interleaved: spin orbital = 2*orbital + spin   (up, down per atom adjacent)
  reordered:   spin orbital = orbital + spin*N   (all up first, then all down)

qubit_table is the one place a layout is spelled out; every (orbital, spin)
-> qubit lookup in the package reads it.  Qubit j corresponds to spin
orbital j; occupation maps |1> on the qubit, so number operators become
(I - Z)/2.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .integrals import IntegralTensors
from .paulis import PauliString, PauliSum

ORDERINGS = ("interleaved", "reordered")

LadderOps = tuple[tuple[int, bool], ...]  # ((spin_orbital, is_creation), ...)
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # (position, coeff, index, creation)

IMAG_TOL = 1e-10  # largest imaginary residue an encoded Hermitian term may carry
ZERO_TOL = 1e-14  # integrals at or below this magnitude contribute no terms


def check_ordering(ordering: str) -> str:
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
    return ordering


def qubit_table(n_orbitals: int, ordering: str) -> np.ndarray:
    """The layout as an (n_orbitals, 2) array: [orbital, spin] -> qubit, spin
    0 up and 1 down."""
    check_ordering(ordering)
    orbital, spin = np.indices((n_orbitals, 2))
    if ordering == "interleaved":
        return 2 * orbital + spin
    return orbital + spin * n_orbitals


def spin_orbital_index(orbital: int, spin: int, n_orbitals: int, ordering: str) -> int:
    """Map (spatial orbital, spin) to a qubit index; spin 0 is up, 1 is down."""
    if not 0 <= orbital < n_orbitals:
        raise ValueError(f"orbital {orbital} out of range for N={n_orbitals}")
    if spin not in (0, 1):
        raise ValueError(f"spin must be 0 or 1, got {spin}")
    return int(qubit_table(n_orbitals, ordering)[orbital, spin])


def _product_images(
    index: np.ndarray, creation: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact JW images of T ordered ladder products of one length k.

    index and creation are (T, k).  A ladder on qubit j is Z_0..Z_{j-1}
    (X_j + iY_j)/2 as an annihilator and (X_j - iY_j)/2 as a creator, so
    every product expands into 2^k paths, one per choice of each ladder's
    X or Y part.  A path's string is the XOR of its parts' masks, and its
    value is 2^-k times a power of i: with each string written
    i^|x&z| X^x Z^z, the product of (x1, z1) and (x2, z2) carries
    i^(|x1&z1| + |x2&z2| - |x&z| + 2|z1&x2|), x = x1^x2 and z = z1^z2.
    Paths landing on the same string merge within their
    product, exactly, since every value is a dyadic times a power of i.
    Returns (row, x, z, re, im): the nonzero strings of every product with
    row its product and value re + i*im.
    """
    n_terms, k = index.shape
    choice = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    x = np.zeros((n_terms, 1), dtype=np.uint64)
    z = np.zeros((n_terms, 1 << k), dtype=np.uint64)
    # uint8 arithmetic wraps modulo 256, a multiple of 4, so powers of i stay exact
    power = np.zeros(z.shape, dtype=np.uint8)
    for j in range(k):
        bit = (np.uint64(1) << index[:, j])[:, None]
        part_z = (bit - np.uint64(1)) | (bit * choice[:, j])
        power += np.bitwise_count(x & z)
        power += np.bitwise_count(bit & part_z)
        power += 2 * np.bitwise_count(z & bit)
        x = x ^ bit
        z ^= part_z
        power -= np.bitwise_count(x & z)
        # the Y part carries -i/2 = i^3/2 on a creator and i/2 on an annihilator
        power += choice[:, j] * np.where(creation[:, j], 3, 1).astype(np.uint8)[:, None]
    order = np.argsort(z, axis=1)
    z = np.take_along_axis(z, order, axis=1)
    power = np.take_along_axis(power, order, axis=1).ravel() & 3
    del order
    run_start = np.ones(z.shape, dtype=bool)
    run_start[:, 1:] = z[:, 1:] != z[:, :-1]
    starts = np.flatnonzero(run_start)
    # integer sums of the paths' powers of i: exact in any order
    re = np.add.reduceat(np.array([1, 0, -1, 0], dtype=np.int8)[power], starts, dtype=np.int64)
    im = np.add.reduceat(np.array([0, 1, 0, -1], dtype=np.int8)[power], starts, dtype=np.int64)
    keep = (re != 0) | (im != 0)
    row = starts[keep] >> k
    scale = 0.5**k
    return row, x[row, 0], z.ravel()[starts[keep]], re[keep] * scale, im[keep] * scale


def jw_encode(
    n_qubits: int,
    terms: Iterable[tuple[float | complex, LadderOps]],
) -> PauliSum:
    """Encode a Hermitian combination of ladder-operator products.

    Each entry is (coefficient, ((spin_orbital, is_creation), ...)); an empty
    operator tuple contributes a multiple of the identity.  The total must be
    Hermitian: any imaginary residue above IMAG_TOL raises ValueError.

    Products are expanded as arrays, one batch per product length (see
    _product_images).  Each string's coefficient is summed over the entries
    in their given order, one rounding per entry, so the result does not
    depend on how the entries are batched.
    """
    by_length: dict[int, tuple[list[int], list[complex], list[LadderOps]]] = {}
    for position, (coeff, ops) in enumerate(terms):
        positions, coeffs, products = by_length.setdefault(len(ops), ([], [], []))
        positions.append(position)
        coeffs.append(coeff)
        products.append(ops)
    batches = []
    for k, (positions, coeffs, products) in by_length.items():
        table = np.array(products, dtype=np.int64).reshape(len(products), k, 2)
        batches.append((np.array(positions), np.array(coeffs, dtype=complex),
                        table[:, :, 0], table[:, :, 1].astype(bool)))
    return _encode_batches(n_qubits, batches)


def _encode_batches(n_qubits: int, batches: Iterable[_Batch]) -> PauliSum:
    """jw_encode of entries given as arrays, one batch per product length.

    A batch is (position, coeff, index, creation): the entries' positions in
    the whole list (which fix each string's summation order), their complex
    coefficients, and (T, k) arrays of their spin orbitals and creation flags.
    """
    if not 1 <= n_qubits <= 64:
        raise ValueError(f"jw_encode takes 1 to 64 qubits, got {n_qubits}")
    parts = []
    for positions, coeffs, index, creation in batches:
        out_of_range = index[(index < 0) | (index >= n_qubits)]
        if len(out_of_range):
            raise ValueError(f"spin orbital {out_of_range[0]} out of range for {n_qubits} qubits")
        row, x, z, re, im = _product_images(index.astype(np.uint64), creation)
        c = coeffs[row]
        # the textbook complex product, rounded as Python's and NumPy's are
        parts.append((positions[row], x, z,
                      c.real * re - c.imag * im, c.real * im + c.imag * re))
    if not parts:
        return PauliSum(n_qubits)
    position, x, z, re, im = (np.concatenate(column) for column in zip(*parts))
    # one entry per (term, string) is the encoder's peak memory: drop each array once spent
    del parts
    # by string, then by entry: np.add.at applies each string's values in entry order
    order = np.lexsort((position, z, x))
    del position
    x = x[order]
    z = z[order]
    re = re[order]
    im = im[order]
    del order
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    slot = np.cumsum(first) - 1
    x, z = x[first], z[first]
    total_re = np.zeros(len(x))
    total_im = np.zeros(len(x))
    np.add.at(total_re, slot, re)
    np.add.at(total_im, slot, im)
    bad = np.flatnonzero(np.abs(total_im) > IMAG_TOL)
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"operator is not Hermitian: term {PauliString(n_qubits, int(x[i]), int(z[i]))} "
            f"has imaginary part {total_im[i]:.3e}"
        )
    # sorted by (x, z) and distinct; from_arrays drops the zero sums
    return PauliSum.from_arrays(n_qubits, x, z, total_re)


def _hamiltonian_batches(tensors: IntegralTensors, ordering: str) -> list[_Batch]:
    """The spin-summed second-quantized entries of the tensors as batches.

    Entry order: e_nuc (if nonzero); h[k,l] a+_ks a_ls over (k, l)
    row-major, then s; 1/2 g[k,l,m,n] a+_ks1 a+_ls2 a_ns2 a_ms1 over
    (k, l, m, n) row-major, then (s1, s2).  Integrals at or below ZERO_TOL
    (after halving, for g) give no entries.
    """
    so = qubit_table(tensors.n_orbitals, ordering)
    entries = [] if tensors.e_nuc == 0.0 else [
        (np.array([tensors.e_nuc]), np.zeros((1, 0), dtype=np.int64), ())]
    h = tensors.one_body
    k, l = np.nonzero(np.abs(h) > ZERO_TOL)
    s = np.arange(2)
    entries.append((np.repeat(h[k, l], 2),
                    np.stack([so[k[:, None], s], so[l[:, None], s]], axis=-1).reshape(-1, 2),
                    (True, False)))
    half = 0.5 * tensors.two_body
    k, l, m, nn = np.nonzero(np.abs(half) > ZERO_TOL)
    s1, s2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    entries.append((np.repeat(half[k, l, m, nn], 4),
                    np.stack([so[k[:, None], s1], so[l[:, None], s2],
                              so[nn[:, None], s2], so[m[:, None], s1]], axis=-1).reshape(-1, 4),
                    (True, True, False, False)))
    batches = []
    offset = 0
    for coeffs, index, creation in entries:
        flags = np.broadcast_to(np.array(creation, dtype=bool), index.shape)
        batches.append((np.arange(offset, offset + len(coeffs)), coeffs.astype(complex),
                        index, flags))
        offset += len(coeffs)
    return batches


def build_qubit_hamiltonian(
    tensors: IntegralTensors,
    ordering: str = "interleaved",
    prune_threshold: float = 1e-12,
) -> PauliSum:
    """Full qubit Hamiltonian of the tensors, pruned of negligible terms."""
    n_qubits = 2 * tensors.n_orbitals
    encoded = _encode_batches(n_qubits, _hamiltonian_batches(tensors, ordering))
    return encoded.prune(prune_threshold)
