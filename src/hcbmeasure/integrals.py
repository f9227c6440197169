"""Minimal-basis molecular integrals for hydrogen clusters.

Works with s-type contracted Gaussians only (STO-3G hydrogen), which keeps
every integral in closed form plus the zeroth Boys function.  The two-body
tensor is stored in the convention where the electronic Hamiltonian reads

    H = sum_{kl} h[k,l] a+_k a_l
      + 1/2 sum_{klmn} g[k,l,m,n] a+_k a+_l a_n a_m   (spin summed)

i.e. g[k,l,m,n] = <kl|mn> in physicist bra-ket labels.  Conversion from
chemist-notation (pq|rs) arrays is g[k,l,m,n] = eri[k,m,l,n].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

BOHR_PER_ANGSTROM = 1.0 / 0.529177210903

# STO-3G hydrogen 1s: exponents already scaled by zeta = 1.24
STO3G_H_EXPONENTS = np.array([3.42525091, 0.62391373, 0.16885540])
STO3G_H_COEFFS = np.array([0.15432897, 0.53532814, 0.44463454])

SYMMETRY_TOL = 1e-12


@dataclass
class IntegralTensors:
    """One- and two-body coefficient tensors plus the nuclear constant.

    two_body uses the internal <kl|mn> convention documented in the module
    docstring.  `basis` is a free-form tag recording how the orbitals were
    produced (e.g. "sto3g-lowdin", "fcidump").
    """

    n_orbitals: int
    one_body: np.ndarray
    two_body: np.ndarray
    e_nuc: float = 0.0
    basis: str = "unknown"

    def __post_init__(self) -> None:
        h = np.asarray(self.one_body, dtype=float)
        g = np.asarray(self.two_body, dtype=float)
        n = self.n_orbitals
        if n < 1:
            raise ValueError(f"n_orbitals must be >= 1, got {n}")
        if h.shape != (n, n):
            raise ValueError(f"one_body shape {h.shape}, expected {(n, n)}")
        if g.shape != (n, n, n, n):
            raise ValueError(f"two_body shape {g.shape}, expected 4x {n}")
        for name, value in (("one_body", h), ("two_body", g), ("e_nuc", self.e_nuc)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if np.max(np.abs(h - h.T)) > 1e-10:
            raise ValueError("one_body tensor is not symmetric")
        for perm in ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2)):
            if np.max(np.abs(g - g.transpose(perm))) > 1e-8:
                raise ValueError(f"two_body tensor breaks the real-orbital symmetry {perm}")
        self.one_body = h
        self.two_body = g

    def copy(self) -> "IntegralTensors":
        return IntegralTensors(
            self.n_orbitals,
            self.one_body.copy(),
            self.two_body.copy(),
            self.e_nuc,
            self.basis,
        )


def rdm_expectation(
    tensors: IntegralTensors, one_rdm: np.ndarray, two_rdm: np.ndarray
) -> float:
    """<H> of the tensors on a state given by its spin-summed RDMs.

    e_nuc + sum h[k,l] D[k,l] + 1/2 sum g[k,l,m,n] G[k,l,m,n], with D and G
    the first two arrays simulator.spin_rdms returns under the state's
    qubit ordering.
    """
    n = tensors.n_orbitals
    if one_rdm.shape != (n, n) or two_rdm.shape != (n,) * 4:
        raise ValueError(
            f"RDM shapes {one_rdm.shape}, {two_rdm.shape} do not match N={n}"
        )
    value = (np.sum(tensors.one_body * one_rdm)
             + 0.5 * np.sum(tensors.two_body * two_rdm))
    return tensors.e_nuc + float(value.real)


def chemist_to_internal(eri: np.ndarray) -> np.ndarray:
    """(pq|rs) array -> internal <kl|mn> array."""
    return np.ascontiguousarray(np.transpose(eri, (0, 2, 1, 3)))


def internal_to_chemist(g: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.transpose(g, (0, 2, 1, 3)))


def boys_f0(t: np.ndarray) -> np.ndarray:
    """Zeroth Boys function F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t))."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    big = t > 1e-12
    tb = t[big]
    out[big] = 0.5 * np.sqrt(np.pi / tb) * erf(np.sqrt(tb))
    small = ~big
    out[small] = 1.0 - t[small] / 3.0
    return out


class _Shell:
    """Contracted s-shell: primitive exponents, contraction weights, center (Bohr)."""

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray, center: np.ndarray):
        self.exponents = exponents
        self.center = center
        prim_norm = (2.0 * exponents / np.pi) ** 0.75
        weights = coeffs * prim_norm
        # renormalize the contracted function to unit self-overlap
        p = exponents[:, None] + exponents[None, :]
        self_overlap = np.sum(
            weights[:, None] * weights[None, :] * (np.pi / p) ** 1.5
        )
        self.weights = weights / np.sqrt(self_overlap)


def _pair_tables(shells: list[_Shell]):
    """Per AO pair: combined exponents, Gaussian product centers, prefactors."""
    n = len(shells)
    pairs = {}
    for i in range(n):
        for j in range(n):
            a = shells[i].exponents[:, None]
            b = shells[j].exponents[None, :]
            ra, rb = shells[i].center, shells[j].center
            p = (a + b).ravel()
            mu = (a * b / (a + b)).ravel()
            r2 = float(np.dot(ra - rb, ra - rb))
            k = np.exp(-mu * r2)
            centers = (
                (a[..., None] * ra + b[..., None] * rb) / (a + b)[..., None]
            ).reshape(-1, 3)
            cc = (shells[i].weights[:, None] * shells[j].weights[None, :]).ravel()
            pairs[(i, j)] = (p, k, centers, cc, mu, r2)
    return pairs


def _ao_integrals(geom_coords_bohr: np.ndarray, charges: np.ndarray):
    shells = [
        _Shell(STO3G_H_EXPONENTS, STO3G_H_COEFFS, c) for c in geom_coords_bohr
    ]
    n = len(shells)
    pairs = _pair_tables(shells)

    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            p, k, centers, cc, mu, r2 = pairs[(i, j)]
            base = cc * k * (np.pi / p) ** 1.5
            S[i, j] = np.sum(base)
            T[i, j] = np.sum(base * mu * (3.0 - 2.0 * mu * r2))
            v = 0.0
            for c_pos, z in zip(geom_coords_bohr, charges):
                pc2 = np.sum((centers - c_pos) ** 2, axis=1)
                v -= z * np.sum(cc * k * (2.0 * np.pi / p) * boys_f0(p * pc2))
            V[i, j] = v
            S[j, i], T[j, i], V[j, i] = S[i, j], T[i, j], V[i, j]

    eri = np.zeros((n, n, n, n))
    seen = np.zeros((n, n, n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1):
            for k_ in range(n):
                for l in range(k_ + 1):
                    if seen[i, j, k_, l]:
                        continue
                    p1, k1, c1, cc1, _, _ = pairs[(i, j)]
                    p2, k2, c2, cc2, _, _ = pairs[(k_, l)]
                    pp = p1[:, None]
                    qq = p2[None, :]
                    d2 = np.sum(
                        (c1[:, None, :] - c2[None, :, :]) ** 2, axis=2
                    )
                    pref = (
                        2.0
                        * np.pi**2.5
                        / (pp * qq * np.sqrt(pp + qq))
                        * k1[:, None]
                        * k2[None, :]
                    )
                    val = np.sum(
                        cc1[:, None]
                        * cc2[None, :]
                        * pref
                        * boys_f0(pp * qq / (pp + qq) * d2)
                    )
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k_, l), (l, k_)):
                            eri[a, b, c, d] = val
                            eri[c, d, a, b] = val
                            seen[a, b, c, d] = seen[c, d, a, b] = True
    return S, T, V, eri


def nuclear_repulsion(coords_bohr: np.ndarray, charges: np.ndarray) -> float:
    e = 0.0
    n = len(charges)
    for i in range(n):
        for j in range(i + 1, n):
            e += charges[i] * charges[j] / float(
                np.linalg.norm(coords_bohr[i] - coords_bohr[j])
            )
    return e


def lowdin_matrix(S: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Symmetric orthogonalizer S^(-1/2); rejects near-singular overlaps."""
    vals, vecs = np.linalg.eigh(S)
    if np.min(vals) < tol:
        raise ValueError(
            f"overlap matrix is near-singular (min eigenvalue {np.min(vals):.3e}); "
            "atoms are too close for this basis"
        )
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T


def _transform(hcore: np.ndarray, eri: np.ndarray, C: np.ndarray):
    h = C.T @ hcore @ C
    g = np.einsum("pi,qj,rk,sl,pqrs->ijkl", C, C, C, C, eri, optimize=True)
    return h, g


def restricted_hartree_fock(
    S: np.ndarray,
    hcore: np.ndarray,
    eri: np.ndarray,
    n_electrons: int,
    max_iter: int = 500,
    conv: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Closed-shell SCF; returns (MO coefficients, electronic energy)."""
    if n_electrons % 2 != 0:
        raise ValueError("restricted Hartree-Fock needs an even electron count")
    n_occ = n_electrons // 2
    X = lowdin_matrix(S)
    fock = hcore.copy()
    energy = 0.0
    density = np.zeros_like(S)
    for iteration in range(max_iter):
        f_ortho = X.T @ fock @ X
        _, C_ortho = np.linalg.eigh(f_ortho)
        C = X @ C_ortho
        new_density = 2.0 * C[:, :n_occ] @ C[:, :n_occ].T
        if iteration > 0:
            new_density = 0.7 * new_density + 0.3 * density
        density = new_density
        coulomb = np.einsum("rs,pqrs->pq", density, eri, optimize=True)
        exchange = np.einsum("rs,prqs->pq", density, eri, optimize=True)
        fock = hcore + coulomb - 0.5 * exchange
        new_energy = 0.5 * np.sum(density * (hcore + fock))
        if iteration > 1 and abs(new_energy - energy) < conv:
            return C, float(new_energy)
        energy = new_energy
    raise ValueError(f"SCF did not converge in {max_iter} iterations")


def minimal_basis_integrals(geom, mode: str = "lowdin") -> IntegralTensors:
    """STO-3G tensors for a hydrogen cluster in an orthonormal orbital basis.

    mode "lowdin" keeps atom-centered symmetrically orthogonalized orbitals
    (the reference frame for the pair-extraction protocol); "hartree-fock"
    transforms to canonical RHF orbitals instead.
    """
    for sym in geom.symbols:
        if sym != "H":
            raise ValueError(f"only hydrogen is supported, got {sym!r}")
    coords = geom.coordinates * BOHR_PER_ANGSTROM
    charges = np.ones(geom.n_atoms)
    S, T, V, eri = _ao_integrals(coords, charges)
    hcore = T + V
    if mode == "lowdin":
        C = lowdin_matrix(S)
        tag = "sto3g-lowdin"
    elif mode == "hartree-fock":
        C, _ = restricted_hartree_fock(S, hcore, eri, n_electrons=geom.n_atoms)
        tag = "sto3g-rhf"
    else:
        raise ValueError(f"unknown orbital mode {mode!r}")
    h, eri_mo = _transform(hcore, eri, C)
    return IntegralTensors(
        n_orbitals=geom.n_atoms,
        one_body=h,
        two_body=chemist_to_internal(eri_mo),
        e_nuc=nuclear_repulsion(coords, charges),
        basis=tag,
    )
