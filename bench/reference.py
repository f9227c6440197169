"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports the package's encoding, Pauli or simulator modules.
The full-CI solver builds the Hamiltonian directly on Slater determinants
from the integral tensors, using the package's conventions only as stated
in its documentation:

* ``g[k,l,m,n] = <kl|mn>`` and
  ``H = sum h[k,l] a+_k a_l + 1/2 sum g[k,l,m,n] a+_k a+_l a_n a_m + e_nuc``
  (spin summed);
* qubit ``2k + s`` is spatial orbital ``k`` with spin ``s`` (interleaved
  layout), and basis index bit ``j`` is the occupation of qubit ``j``;
* ``a_j`` carries the sign ``(-1)^(occupied modes below j)``.

With ``E_km = sum_s a+_ks a_ms`` the two-body part is
``1/2 sum g[k,l,m,n] (E_km E_ln - delta_lm E_kn)``.  Every spin multiplet of an
even electron count has an ``S_z = 0`` member, so the lowest eigenvalue of
the ``S_z = 0`` block equals the lowest eigenvalue of the whole
particle-number sector the package diagonalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

DENSE_LIMIT = 1000


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values).astype(np.int64)


def _spin_strings(n_orbitals: int, n_same_spin: int, spin: int) -> list[int]:
    out = []
    for occupied in combinations(range(n_orbitals), n_same_spin):
        out.append(sum(1 << (2 * k + spin) for k in occupied))
    return out


@dataclass
class FullCI:
    """S_z = 0 determinant space and the sparse Hamiltonian on it."""

    dets: np.ndarray  # sorted basis indices (int64)
    hamiltonian: scipy.sparse.csr_matrix
    energy: float

    def state_energy(self, amplitudes: np.ndarray) -> float:
        """<psi|H|psi> for a full 2^n amplitude vector inside the block."""
        inside = amplitudes[self.dets]
        outside = float(np.vdot(amplitudes, amplitudes).real - np.vdot(inside, inside).real)
        if outside > 1e-12:
            raise ValueError(f"state has weight {outside:.3e} outside the S_z=0 block")
        return float(np.vdot(inside, self.hamiltonian @ inside).real)


def _hop(dets: np.ndarray, p: int, q: int) -> scipy.sparse.csr_matrix:
    """Matrix of a+_p a_q on the determinant list (spin orbitals p, q)."""
    dim = len(dets)
    has_q = (dets >> q) & 1 == 1
    src = np.nonzero(has_q)[0]
    after = dets[src] ^ (1 << q)
    sign = 1 - 2 * (_popcount(after & ((1 << q) - 1)) & 1)
    empty_p = (after >> p) & 1 == 0
    src, after, sign = src[empty_p], after[empty_p], sign[empty_p]
    sign = sign * (1 - 2 * (_popcount(after & ((1 << p) - 1)) & 1))
    target = after | (1 << p)
    rows = np.searchsorted(dets, target)
    return scipy.sparse.csr_matrix(
        (sign.astype(float), (rows, src)), shape=(dim, dim)
    )


def full_ci(one_body: np.ndarray, two_body: np.ndarray, e_nuc: float, n_electrons: int) -> FullCI:
    """Lowest eigenpair of the spin-summed Hamiltonian in the S_z = 0 block."""
    n = one_body.shape[0]
    if n_electrons % 2:
        raise ValueError("the S_z = 0 block needs an even electron count")
    half = n_electrons // 2
    alpha = _spin_strings(n, half, 0)
    beta = _spin_strings(n, half, 1)
    dets = np.array(sorted(a | b for a in alpha for b in beta), dtype=np.int64)
    dim = len(dets)
    hops = [
        [_hop(dets, 2 * k, 2 * m) + _hop(dets, 2 * k + 1, 2 * m + 1) for m in range(n)]
        for k in range(n)
    ]
    coo = [[hops[l][nn].tocoo() for nn in range(n)] for l in range(n)]
    rows = np.concatenate([c.row for line in coo for c in line])
    cols = np.concatenate([c.col for line in coo for c in line])
    sizes = [c.nnz for line in coo for c in line]
    unit = np.concatenate([c.data for line in coo for c in line])
    ham = scipy.sparse.identity(dim, format="csr") * e_nuc
    for k in range(n):
        for m in range(n):
            # 1/2 sum_ln g[k,l,m,n] E_ln, assembled in one pass over the triplets
            weights = np.repeat(0.5 * two_body[k, :, m, :].ravel(), sizes)
            inner = scipy.sparse.csr_matrix(
                (unit * weights, (rows, cols)), shape=(dim, dim)
            )
            one = one_body[k, m] - 0.5 * np.trace(two_body[k, :, :, m])
            ham = ham + hops[k][m] @ inner + one * hops[k][m]
    ham = scipy.sparse.csr_matrix(ham)
    gap = abs(ham - ham.T).max() if ham.nnz else 0.0
    if gap > 1e-10:
        raise ValueError(f"full-CI Hamiltonian is not symmetric (gap {gap:.3e})")
    if dim <= DENSE_LIMIT:
        energy = float(np.linalg.eigvalsh(ham.toarray())[0])
    else:
        values = scipy.sparse.linalg.eigsh(ham, k=1, which="SA", tol=0.0)[0]
        energy = float(values[0])
    return FullCI(dets, ham, energy)


def _pauli_image(amplitudes: np.ndarray, index: np.ndarray, x: int, z: int) -> np.ndarray:
    """P|psi> for P = i^|x&z| X^x Z^z: (P psi)[b ^ x] = phase (-1)^|b&z| psi[b]."""
    phase = 1j ** (bin(x & z).count("1") % 4)
    signs = 1 - 2 * (_popcount(index & z) & 1)
    image = np.empty_like(amplitudes)
    image[index ^ x] = phase * signs * amplitudes
    return image


def pauli_expectations(amplitudes: np.ndarray, masks: list[tuple[int, int]]) -> np.ndarray:
    """<psi|P|psi> for each (x_mask, z_mask)."""
    index = np.arange(len(amplitudes), dtype=np.int64)
    return np.array([np.vdot(amplitudes, _pauli_image(amplitudes, index, x, z)).real
                     for x, z in masks])


def group_variance(amplitudes: np.ndarray, masks, coeffs) -> float:
    """Single-shot variance <G^2> - <G>^2 of G = sum_i c_i P_i on the state."""
    index = np.arange(len(amplitudes), dtype=np.int64)
    image = sum(c * _pauli_image(amplitudes, index, x, z) for (x, z), c in zip(masks, coeffs))
    mean = np.vdot(amplitudes, image).real
    return max(0.0, float(np.vdot(image, image).real - mean * mean))


def all_commute(masks: list[tuple[int, int]]) -> bool:
    """Symplectic test: every pair has an even count of anticommuting sites."""
    if len(masks) < 2:
        return True
    x = np.array([m[0] for m in masks], dtype=np.int64)
    z = np.array([m[1] for m in masks], dtype=np.int64)
    for i in range(len(masks) - 1):
        anti = (x[i] & z[i + 1:]) ^ (z[i] & x[i + 1:])
        if np.any(_popcount(anti) & 1):
            return False
    return True


def shot_budget(masks, coeffs, values, epsilon: float) -> float:
    """Largest single-member budget w^2 (1 - <P>^2) / epsilon^2 of a group."""
    worst = 0.0
    for (x, z), w, v in zip(masks, coeffs, values):
        if x == 0 and z == 0:
            continue
        worst = max(worst, w * w * max(0.0, 1.0 - v * v) / epsilon**2)
    return worst


def main() -> None:
    """Print the full-CI energies of the benchmark's systems.

    Usage (from the repository root):
        PYTHONPATH=src python3 bench/reference.py
    """
    from hcbmeasure.geometry import build_geometry
    from hcbmeasure.integrals import minimal_basis_integrals

    for label, geometry in (("H6-line-1.5A", build_geometry(6, 1.5, "line")),
                            ("H8-line-1.5A", build_geometry(8, 1.5, "line"))):
        t = minimal_basis_integrals(geometry)
        fci = full_ci(t.one_body, t.two_body, t.e_nuc, geometry.n_atoms)
        print(f"{label} {fci.energy:.12f}")


if __name__ == "__main__":
    main()
