"""Orbital rotations: Givens factors, pairing graphs, and tensor transforms.

A Givens factor (p, q, theta) is the orthogonal matrix equal to identity
except for the 2x2 block

    [[ cos(theta/2), sin(theta/2)],
     [-sin(theta/2), cos(theta/2)]]

on rows/columns (p, q).  An OrbitalRotation stores the full matrix plus an
optional factor list; when factors are present their ordered product equals
the matrix, with factors[0] innermost (applied first):

    matrix = G(factors[-1]) @ ... @ G(factors[0])

which matches circuit order when the factors are compiled to gates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .integrals import IntegralTensors

ORTHOGONALITY_TOL = 1e-10
GIVENS_TOL = 1e-14  # entries at or below this need no Givens elimination


@dataclass(frozen=True)
class PairingGraph:
    """Vertex-disjoint orbital pairs (a partial or perfect matching)."""

    n_orbitals: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        norm = []
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a pair")
            p, q = int(edge[0]), int(edge[1])
            if p == q:
                raise ValueError(f"self-edge on orbital {p}")
            for v in (p, q):
                if not 0 <= v < self.n_orbitals:
                    raise ValueError(f"orbital {v} out of range for N={self.n_orbitals}")
                if v in seen:
                    raise ValueError(f"orbital {v} appears in more than one edge")
                seen.add(v)
            norm.append((min(p, q), max(p, q)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def label(self) -> str:
        return ",".join(f"{p}-{q}" for p, q in self.edges)


def parse_graph(text: str, n_orbitals: int) -> PairingGraph:
    """Parse "0-1,2-3" style edge lists."""
    edges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ValueError(f"bad edge {chunk!r}; expected 'p-q'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad edge {chunk!r}; expected integers") from exc
    return PairingGraph(n_orbitals, tuple(edges))


def givens_matrix(n_orbitals: int, p: int, q: int, theta: float) -> np.ndarray:
    if p == q or not (0 <= p < n_orbitals and 0 <= q < n_orbitals):
        raise ValueError(f"bad orbital pair ({p}, {q}) for N={n_orbitals}")
    out = np.eye(n_orbitals)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out[p, p] = c
    out[p, q] = s
    out[q, p] = -s
    out[q, q] = c
    return out


@dataclass(frozen=True)
class OrbitalRotation:
    """Orthogonal one-particle basis change, optionally with Givens factors."""

    matrix: np.ndarray
    factors: tuple[tuple[int, int, float], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError(f"rotation matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rotation matrix must be finite")
        if np.max(np.abs(m.T @ m - np.eye(n))) > ORTHOGONALITY_TOL:
            raise ValueError("rotation matrix is not orthogonal")
        if self.factors:
            prod = np.eye(n)
            for p, q, theta in self.factors:
                prod = givens_matrix(n, p, q, theta) @ prod
            if np.max(np.abs(prod - m)) > ORTHOGONALITY_TOL:
                raise ValueError("factor product does not reproduce the rotation matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def n_orbitals(self) -> int:
        return self.matrix.shape[0]

    def transpose(self) -> "OrbitalRotation":
        """Inverse rotation; factor list reversed with negated angles."""
        factors = tuple((p, q, -t) for p, q, t in reversed(self.factors))
        return OrbitalRotation(self.matrix.T, factors, label=f"{self.label}^T" if self.label else "")


def identity_rotation(n_orbitals: int) -> OrbitalRotation:
    return OrbitalRotation(np.eye(n_orbitals), (), label="identity")


def givens_rotation(n_orbitals: int, p: int, q: int, theta: float) -> OrbitalRotation:
    return OrbitalRotation(
        givens_matrix(n_orbitals, p, q, theta),
        ((p, q, theta),),
        label=f"G({p},{q})",
    )


def graph_rotation(graph: PairingGraph, theta: float = np.pi / 2.0) -> OrbitalRotation:
    """One Givens factor per (disjoint) edge; factors commute."""
    matrix = np.eye(graph.n_orbitals)
    factors = []
    for p, q in graph.edges:
        matrix = givens_matrix(graph.n_orbitals, p, q, theta) @ matrix
        factors.append((p, q, theta))
    return OrbitalRotation(matrix, tuple(factors), label=f"R[{graph.label()}]")


def random_orthogonal_rotation(n_orbitals: int, seed: int) -> OrbitalRotation:
    """Haar-style orthogonal matrix from a seeded QR with sign-fixed diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_orbitals, n_orbitals))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return OrbitalRotation(q, (), label=f"random[{seed}]")


def givens_factorize(matrix: np.ndarray):
    """Factor an orthogonal matrix as G(f[-1])...G(f[0]) @ diag(signs).

    Returns (factors, signs); signs is all ones except possibly -1 in the
    last slot when det(matrix) = -1.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if np.max(np.abs(a.T @ a - np.eye(n))) > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal")
    eliminations = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            if abs(a[row, col]) <= GIVENS_TOL:
                continue
            theta = 2.0 * np.arctan2(a[row, col], a[col, col])
            c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
            upper = c * a[col] + s * a[row]
            lower = -s * a[col] + c * a[row]
            a[col], a[row] = upper, lower
            eliminations.append((col, row, theta))
    signs = np.sign(np.diag(a))
    factors = tuple((p, q, -t) for p, q, t in reversed(eliminations))
    return factors, signs


def rotate_array(array: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The array in the basis rotated by r, one r factor per index: r a r^T
    for a matrix, sum r[k,w] r[l,x] r[m,y] r[n,z] a[w,x,y,z] for a four-index
    array.  Integral tensors and a state's RDMs change basis alike."""
    if array.ndim == 2:
        return r @ array @ r.T
    return np.einsum("kw,lx,my,nz,wxyz->klmn", r, r, r, r, array, optimize=True)


def rotate_integrals(tensors: IntegralTensors, rotation) -> IntegralTensors:
    """Transform tensors into the rotated orbital basis (see rotate_array);
    e_nuc is untouched."""
    r = rotation.matrix if isinstance(rotation, OrbitalRotation) else np.asarray(rotation, float)
    n = tensors.n_orbitals
    if r.shape != (n, n):
        raise ValueError(f"rotation shape {r.shape} does not match N={n}")
    return IntegralTensors(n, rotate_array(tensors.one_body, r),
                           rotate_array(tensors.two_body, r), tensors.e_nuc, tensors.basis)


def perfect_matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of vertices 0..n-1 (n even), canonically sorted."""
    if n % 2 != 0:
        raise ValueError("perfect matchings need an even vertex count")
    verts = tuple(range(n))

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        first = rest[0]
        for k in range(1, len(rest)):
            partner = rest[k]
            remaining = rest[1:k] + rest[k + 1 :]
            for tail in rec(remaining):
                yield ((first, partner),) + tail

    return [tuple(sorted(m)) for m in rec(verts)]


def distance_ranked_matchings(distances: np.ndarray, count: int) -> list[PairingGraph]:
    """Perfect matchings ranked by total edge distance (ties: edge-list order).

    This is the pairing heuristic for geometry-derived rotation sets: the
    shortest-total-distance matchings carry the strongest pair correlations.
    """
    n = distances.shape[0]
    scored = []
    for m in perfect_matchings(n):
        total = sum(float(distances[p, q]) for p, q in m)
        scored.append((total, m))
    scored.sort(key=lambda item: (round(item[0], 10), item[1]))
    if count > len(scored):
        raise ValueError(f"asked for {count} matchings, only {len(scored)} exist")
    return [PairingGraph(n, m) for _, m in scored[:count]]
