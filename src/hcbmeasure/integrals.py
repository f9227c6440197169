"""Minimal-basis molecular integrals for hydrogen clusters.

Works with s-type contracted Gaussians only (STO-3G hydrogen), so every
AO integral is a closed form over primitive pairs plus the zeroth Boys
function (Szabo & Ostlund, Modern Quantum Chemistry, App. A), evaluated
as arrays over atom pairs and primitive pairs.  The two-body tensor is
stored in the convention where the electronic Hamiltonian reads

    H = sum_{kl} h[k,l] a+_k a_l
      + 1/2 sum_{klmn} g[k,l,m,n] a+_k a+_l a_n a_m   (spin summed)

i.e. g[k,l,m,n] = <kl|mn> in physicist bra-ket labels.  Conversion from
chemist-notation (pq|rs) arrays is g[k,l,m,n] = eri[k,m,l,n].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

BOHR_PER_ANGSTROM = 1.0 / 0.529177210903

# STO-3G hydrogen 1s: exponents already scaled by zeta = 1.24
STO3G_H_EXPONENTS = np.array([3.42525091, 0.62391373, 0.16885540])
STO3G_H_COEFFS = np.array([0.15432897, 0.53532814, 0.44463454])

LOWDIN_TOL = 1e-8  # smallest overlap eigenvalue lowdin_matrix accepts
SCF_MAX_ITER = 500
SCF_CONV = 1e-10  # energy change (Ha) at which the SCF stops
SCF_LEVEL_SHIFT = 1.0  # Ha added to the virtual orbital energies by the fallback SCF
SCF_COMMUTATOR_TOL = 1e-4  # largest ||FDS - SDF|| the fallback SCF may stop at


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
    out = np.array(1.0 - t / 3.0)  # the series, kept where t <= 1e-12
    big = t > 1e-12
    out[big] = 0.5 * np.sqrt(np.pi / t[big]) * erf(np.sqrt(t[big]))
    return out


def _ao_integrals(coords: np.ndarray, charges: np.ndarray):
    """AO overlap, kinetic, nuclear-attraction and (ij|kl) arrays.

    Every atom carries the one contraction, so the 9 primitive pairs of an
    atom pair (first primitive major) share p, mu and cc; the prefactors k
    and product centres are (n, n, 9) and (n, n, 9, 3) arrays.  S, T and V
    are taken from the i <= j triangle and mirrored.  Each (ij|kl) orbit of
    the 8-fold symmetry is evaluated once, at its first member with i >= j
    and k >= l in row-major order, and copied through one np.unique index.
    Three rounding choices keep the arrays bit-identical to a loop over
    integrals: r^2 is one np.dot per pair (einsum moves bits on rings and
    random clusters), the orbit member is that loop's (another member sums
    its primitives in another order), and V adds one nucleus at a time.
    """
    n = len(coords)
    # primitive pairs, first primitive major
    pa, pb = np.repeat(STO3G_H_EXPONENTS, 3), np.tile(STO3G_H_EXPONENTS, 3)
    p, mu = pa + pb, pa * pb / (pa + pb)
    # the one contraction: primitive norms folded in, unit self-overlap
    w = STO3G_H_COEFFS * (2.0 * STO3G_H_EXPONENTS / np.pi) ** 0.75
    w = w / np.sqrt(np.sum(np.outer(w, w).ravel() * (np.pi / p) ** 1.5))
    cc = np.outer(w, w).ravel()
    delta = coords[:, None, :] - coords[None, :, :]
    r2 = np.array([[np.dot(d, d) for d in row] for row in delta])[..., None]
    k = np.exp(-mu * r2)  # (n, n, 9)
    centers = (pa[:, None] * coords[:, None, None]
               + pb[:, None] * coords[None, :, None]) / p[:, None]  # (n, n, 9, 3)

    base = cc * k * (np.pi / p) ** 1.5
    S = np.sum(base, axis=-1)
    T = np.sum(base * mu * (3.0 - 2.0 * mu * r2), axis=-1)
    V = np.zeros((n, n))
    for c_pos, z in zip(coords, charges):
        pc2 = np.sum((centers - c_pos) ** 2, axis=-1)
        V -= z * np.sum(cc * k * (2.0 * np.pi / p) * boys_f0(p * pc2), axis=-1)
    upper = np.triu(np.ones((n, n), dtype=bool))
    S, T, V = (np.where(upper, m, m.T) for m in (S, T, V))

    # a pair (i >= j) is coded i*n + j, its row in the flattened pair arrays;
    # an orbit is its (lower, higher) pair, and the inverse is reshaped at
    # the end, whichever shape this NumPy's np.unique gives it
    i, j = np.indices((n, n))
    pair = (np.maximum(i, j) * n + np.minimum(i, j)).ravel()
    orbit = np.minimum.outer(pair, pair) * n * n + np.maximum.outer(pair, pair)
    orbits, inverse = np.unique(orbit, return_inverse=True)
    first, second = np.divmod(orbits, n * n)
    k = k.reshape(n * n, 9)
    centers = centers.reshape(n * n, 9, 3)
    pp, qq = p[:, None], p[None, :]
    d2 = np.sum((centers[first][:, :, None] - centers[second][:, None]) ** 2, axis=-1)
    pref = (2.0 * np.pi**2.5 / (pp * qq * np.sqrt(pp + qq))
            * k[first][:, :, None] * k[second][:, None, :])
    terms = cc[:, None] * cc[None, :] * pref * boys_f0(pp * qq / (pp + qq) * d2)
    values = np.sum(terms.reshape(len(orbits), 81), axis=1)
    return S, T, V, values[inverse].reshape((n,) * 4)


def nuclear_repulsion(coords_bohr: np.ndarray, charges: np.ndarray) -> float:
    e = 0.0
    n = len(charges)
    for i in range(n):
        for j in range(i + 1, n):
            e += charges[i] * charges[j] / float(
                np.linalg.norm(coords_bohr[i] - coords_bohr[j])
            )
    return e


def lowdin_matrix(S: np.ndarray) -> np.ndarray:
    """Symmetric orthogonalizer S^(-1/2); rejects near-singular overlaps."""
    vals, vecs = np.linalg.eigh(S)
    if np.min(vals) < LOWDIN_TOL:
        raise ValueError(
            f"overlap matrix is near-singular (min eigenvalue {np.min(vals):.3e}); "
            "atoms are too close for this basis"
        )
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T


def _transform(hcore: np.ndarray, eri: np.ndarray, C: np.ndarray):
    h = C.T @ hcore @ C
    g = np.einsum("pi,qj,rk,sl,pqrs->ijkl", C, C, C, C, eri, optimize=True)
    return h, g


def _fock(density: np.ndarray, hcore: np.ndarray, eri: np.ndarray) -> np.ndarray:
    coulomb = np.einsum("rs,pqrs->pq", density, eri, optimize=True)
    exchange = np.einsum("rs,prqs->pq", density, eri, optimize=True)
    return hcore + coulomb - 0.5 * exchange


def _scf_iterations(X: np.ndarray, hcore: np.ndarray, eri: np.ndarray, n_occ: int,
                    level_shift: float = 0.0):
    """SCF from the core-Hamiltonian guess until the energy changes by less
    than SCF_CONV: (C, energy, density, Fock matrix), or None after
    SCF_MAX_ITER iterations.  Without a level shift each new density is
    damped 0.7/0.3 against the last; with one, the virtual orbitals'
    energies are raised by level_shift instead (Saunders & Hillier, Int. J.
    Quantum Chem. 7, 699 (1973)), which shrinks every step's
    occupied-virtual rotation; a large enough shift makes each step lower
    the energy."""
    fock = hcore.copy()
    energy = 0.0
    density = np.zeros_like(hcore)
    occupied = np.zeros((len(X), n_occ))  # the last occupied orbitals, orthonormal basis
    for iteration in range(SCF_MAX_ITER):
        f_ortho = X.T @ fock @ X
        if level_shift:
            f_ortho += level_shift * (np.eye(len(X)) - occupied @ occupied.T)
        _, C_ortho = np.linalg.eigh(f_ortho)
        occupied = C_ortho[:, :n_occ]
        C = X @ C_ortho
        new_density = 2.0 * C[:, :n_occ] @ C[:, :n_occ].T
        if iteration > 0 and not level_shift:
            new_density = 0.7 * new_density + 0.3 * density
        density = new_density
        fock = _fock(density, hcore, eri)
        new_energy = 0.5 * np.sum(density * (hcore + fock))
        if iteration > 1 and abs(new_energy - energy) < SCF_CONV:
            return C, float(new_energy), density, fock
        energy = new_energy
    return None


def restricted_hartree_fock(
    S: np.ndarray, hcore: np.ndarray, eri: np.ndarray, n_electrons: int
) -> tuple[np.ndarray, float]:
    """Closed-shell SCF; returns (MO coefficients, electronic energy).

    The damped iteration runs first.  On some clusters it flips between two
    densities with period two (the H4 random cluster of seed 1 at 1.5 Å
    alternates between -3.0634 and -3.0580 Ha); only where it has not
    converged in SCF_MAX_ITER iterations is the level-shifted iteration run
    (virtual shift SCF_LEVEL_SHIFT), so every cluster the damped one
    converges keeps its bits.  The level-shifted result is accepted only
    when its density D commutes with its Fock matrix F, ||FDS - SDF|| (the
    Frobenius norm) at most SCF_COMMUTATOR_TOL.
    """
    if n_electrons % 2 != 0:
        raise ValueError("restricted Hartree-Fock needs an even electron count")
    X = lowdin_matrix(S)
    result = _scf_iterations(X, hcore, eri, n_electrons // 2)
    if result is None:
        result = _scf_iterations(X, hcore, eri, n_electrons // 2, SCF_LEVEL_SHIFT)
        if result is None:
            raise ValueError(
                f"SCF did not converge in {SCF_MAX_ITER} iterations, damped or level-shifted")
        _, _, density, fock = result
        residual = float(np.linalg.norm(fock @ density @ S - S @ density @ fock))
        if residual > SCF_COMMUTATOR_TOL:
            raise ValueError(
                f"level-shifted SCF stopped at a non-stationary density "
                f"(||FDS - SDF|| = {residual:.3e})")
    C, energy, _, _ = result
    return C, energy


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
