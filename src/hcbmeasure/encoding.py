"""Jordan-Wigner mapping from fermionic operators to Pauli sums.

Spin orbital layouts ("orderings") supported:
  interleaved: spin orbital = 2*orbital + spin   (up, down per atom adjacent)
  reordered:   spin orbital = orbital + spin*N   (all up first, then all down)

Qubit j corresponds to spin orbital j; occupation maps |1> on the qubit,
so number operators become (I - Z)/2.
"""

from __future__ import annotations

from collections.abc import Iterable

from .integrals import IntegralTensors
from .paulis import PauliString, PauliSum, multiply

ORDERINGS = ("interleaved", "reordered")

LadderOps = tuple[tuple[int, bool], ...]  # ((spin_orbital, is_creation), ...)

IMAG_TOL = 1e-10  # largest imaginary residue an encoded Hermitian term may carry
ZERO_TOL = 1e-14  # integrals at or below this magnitude contribute no terms


def check_ordering(ordering: str) -> str:
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
    return ordering


def spin_orbital_index(orbital: int, spin: int, n_orbitals: int, ordering: str) -> int:
    """Map (spatial orbital, spin) to a qubit index; spin 0 is up, 1 is down."""
    check_ordering(ordering)
    if not 0 <= orbital < n_orbitals:
        raise ValueError(f"orbital {orbital} out of range for N={n_orbitals}")
    if spin not in (0, 1):
        raise ValueError(f"spin must be 0 or 1, got {spin}")
    if ordering == "interleaved":
        return 2 * orbital + spin
    return orbital + spin * n_orbitals


def ladder_terms(n_qubits: int, index: int, creation: bool) -> list[tuple[PauliString, complex]]:
    """Jordan-Wigner image of a single ladder operator as (string, coeff) pairs."""
    if not 0 <= index < n_qubits:
        raise ValueError(f"spin orbital {index} out of range for {n_qubits} qubits")
    prefix = (1 << index) - 1
    bit = 1 << index
    x_part = PauliString(n_qubits, bit, prefix)
    y_part = PauliString(n_qubits, bit, prefix | bit)
    y_coeff = -0.5j if creation else 0.5j
    return [(x_part, 0.5 + 0.0j), (y_part, y_coeff)]


def _product_terms(
    n_qubits: int, ops: LadderOps
) -> dict[PauliString, complex]:
    """Exact (complex) JW image of an ordered ladder-operator product."""
    acc: dict[PauliString, complex] = {PauliString(n_qubits): 1.0 + 0.0j}
    for index, creation in ops:
        factor = ladder_terms(n_qubits, index, creation)
        nxt: dict[PauliString, complex] = {}
        for left, cl in acc.items():
            for right, cr in factor:
                prod, phase = multiply(left, right)
                val = nxt.get(prod, 0.0) + cl * cr * phase
                if val == 0.0:
                    nxt.pop(prod, None)
                else:
                    nxt[prod] = val
        acc = nxt
    return acc


def jw_encode(
    n_qubits: int,
    terms: Iterable[tuple[float | complex, LadderOps]],
) -> PauliSum:
    """Encode a Hermitian combination of ladder-operator products.

    Each entry is (coefficient, ((spin_orbital, is_creation), ...)); an empty
    operator tuple contributes a multiple of the identity.  The total must be
    Hermitian: any imaginary residue above IMAG_TOL raises ValueError.
    """
    acc: dict[PauliString, complex] = {}
    for coeff, ops in terms:
        for string, val in _product_terms(n_qubits, ops).items():
            acc[string] = acc.get(string, 0.0) + coeff * val
    out = PauliSum(n_qubits)
    for string, val in acc.items():
        if abs(val.imag) > IMAG_TOL:
            raise ValueError(
                f"operator is not Hermitian: term {string} has imaginary part {val.imag:.3e}"
            )
        if val.real != 0.0:
            out.add_term(string, val.real)
    return out


def hamiltonian_terms(
    tensors: IntegralTensors, ordering: str = "interleaved"
) -> list[tuple[float, LadderOps]]:
    """Spin-summed second-quantized term list for the given tensors."""
    check_ordering(ordering)
    n = tensors.n_orbitals
    so = lambda k, s: spin_orbital_index(k, s, n, ordering)
    terms: list[tuple[float, LadderOps]] = []
    if tensors.e_nuc != 0.0:
        terms.append((tensors.e_nuc, ()))
    h = tensors.one_body
    g = tensors.two_body
    for k in range(n):
        for l in range(n):
            if abs(h[k, l]) <= ZERO_TOL:
                continue
            for s in range(2):
                terms.append((h[k, l], ((so(k, s), True), (so(l, s), False))))
    for k in range(n):
        for l in range(n):
            for m in range(n):
                for nn in range(n):
                    coeff = 0.5 * g[k, l, m, nn]
                    if abs(coeff) <= ZERO_TOL:
                        continue
                    for s1 in range(2):
                        for s2 in range(2):
                            ops = (
                                (so(k, s1), True),
                                (so(l, s2), True),
                                (so(nn, s2), False),
                                (so(m, s1), False),
                            )
                            terms.append((coeff, ops))
    return terms


def build_qubit_hamiltonian(
    tensors: IntegralTensors,
    ordering: str = "interleaved",
    prune_threshold: float = 1e-12,
) -> PauliSum:
    """Full qubit Hamiltonian of the tensors, pruned of negligible terms."""
    n_qubits = 2 * tensors.n_orbitals
    encoded = jw_encode(n_qubits, hamiltonian_terms(tensors, ordering))
    return encoded.prune(prune_threshold)
