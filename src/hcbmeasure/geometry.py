"""Hydrogen cluster geometries and XYZ-style text I/O.

Coordinates are in Angstrom throughout; conversion to Bohr happens only
inside the integral routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_PAIR_DISTANCE = 0.1  # Angstrom; below this the Coulomb terms blow up
RANDOM_MIN_DISTANCE = 0.8  # Angstrom; placement floor for random clusters


@dataclass(frozen=True)
class Geometry:
    """Atom symbols plus an (n_atoms, 3) coordinate array in Angstrom."""

    symbols: tuple[str, ...]
    coordinates: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.shape != (len(self.symbols), 3):
            raise ValueError(
                f"coordinates shape {coords.shape} does not match {len(self.symbols)} atoms"
            )
        object.__setattr__(self, "coordinates", coords)
        distances = self.distances()
        close = np.argwhere(np.triu(distances <= MIN_PAIR_DISTANCE, 1))
        if len(close):
            i, j = close[0]
            raise ValueError(f"atoms {i} and {j} are {distances[i, j]:.3f} A apart "
                             f"(<= {MIN_PAIR_DISTANCE} A)")

    @property
    def n_atoms(self) -> int:
        return len(self.symbols)

    def distances(self) -> np.ndarray:
        """The (n_atoms, n_atoms) matrix of pairwise distances in Angstrom."""
        delta = self.coordinates[:, None, :] - self.coordinates[None, :, :]
        return np.sqrt(np.sum(delta * delta, axis=-1))


def build_geometry(
    n_atoms: int,
    spacing: float,
    shape: str = "line",
    seed: int | None = None,
) -> Geometry:
    """Place n_atoms hydrogens with nearest-neighbor distance `spacing`.

    Shapes: "line" along z, "ring" with neighbor spacing on a circle,
    "square" as a 2 x (n/2) grid (n=4 gives the plain square), and
    "random" which draws positions uniformly in a box, rejecting any
    draw closer than 0.8 A to a placed atom.
    """
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    if shape != "random" and spacing <= 0.3:
        raise ValueError(f"spacing {spacing} A is unphysically tight for shape {shape!r}")

    if shape == "line":
        coords = np.zeros((n_atoms, 3))
        coords[:, 2] = spacing * np.arange(n_atoms)
    elif shape == "ring":
        radius = spacing / (2.0 * np.sin(np.pi / n_atoms))
        angles = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
        coords = np.column_stack(
            [radius * np.cos(angles), radius * np.sin(angles), np.zeros(n_atoms)]
        )
    elif shape == "square":
        if n_atoms % 2 != 0:
            raise ValueError("square shape needs an even atom count")
        coords = np.zeros((n_atoms, 3))
        half = n_atoms // 2
        for i in range(n_atoms):
            row, col = divmod(i, half)
            coords[i, 0] = spacing * col
            coords[i, 1] = spacing * row
    elif shape == "random":
        rng = np.random.default_rng(seed)
        side = spacing * max(2.0, 1.6 * n_atoms ** (1.0 / 3.0))
        placed: list[np.ndarray] = []
        for _ in range(n_atoms):
            for _attempt in range(10000):
                p = rng.uniform(0.0, side, size=3)
                if all(np.linalg.norm(p - q) >= RANDOM_MIN_DISTANCE for q in placed):
                    placed.append(p)
                    break
            else:
                raise ValueError(
                    f"could not place {n_atoms} atoms at >= {RANDOM_MIN_DISTANCE} A "
                    f"in a {side:.2f} A box"
                )
        coords = np.array(placed)
    else:
        raise ValueError(f"unknown shape {shape!r}")

    return Geometry(tuple(["H"] * n_atoms), coords)


def to_xyz(geom: Geometry) -> str:
    """Plain element-x-y-z lines, one atom per line."""
    lines = [
        f"{sym} {xyz[0]:.12f} {xyz[1]:.12f} {xyz[2]:.12f}"
        for sym, xyz in zip(geom.symbols, geom.coordinates)
    ]
    return "\n".join(lines) + "\n"


def from_xyz(text: str) -> Geometry:
    """Parse element-x-y-z lines; a leading standard XYZ header is allowed."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty geometry text")
    if lines[0].isdigit():
        count = int(lines[0])
        lines = lines[2:] if len(lines) >= 2 and not _looks_like_atom(lines[1]) else lines[1:]
        if len(lines) != count:
            raise ValueError(f"XYZ header says {count} atoms, found {len(lines)} lines")
    symbols = []
    rows = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"geometry line {lineno}: expected 'El x y z', got {line!r}")
        symbols.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise ValueError(f"geometry line {lineno}: bad coordinate in {line!r}") from exc
    return Geometry(tuple(symbols), np.array(rows))


def _looks_like_atom(line: str) -> bool:
    fields = line.split()
    if len(fields) != 4:
        return False
    try:
        [float(v) for v in fields[1:]]
    except ValueError:
        return False
    return fields[0].isalpha()
