"""Measurement grouping, shot estimation, and measurement-depth accounting.

Three baseline partitioners split a Pauli operator into simultaneously
measurable groups: largest-first greedy coloring (LF), recursive
largest-first coloring (RLF), and sorted insertion by coefficient weight
(SI).  Each group can be compiled to a Clifford change-of-basis circuit,
and a per-group shot budget follows the single-term variance model
M_i = (|w_i| * sqrt(1 - <P_i>^2) / epsilon)^2, keeping the largest member
per group and summing over groups.

Depth accounting compiles orbital-rotation circuits down to nearest-
neighbour two-qubit ladders, so the cost of measuring under a rotated
basis can be compared across qubit orderings.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .groups import CommutingGroup
from .paulis import PauliSum, anticommutation_rows
from .simulator import group_values

GROUPING_METHODS = ("LF", "RLF", "SI")


@dataclass(frozen=True)
class GroupingResult:
    """A partition of an operator's terms into fully commuting groups."""

    n_qubits: int
    method: str
    groups: tuple[CommutingGroup, ...]

    def __post_init__(self) -> None:
        if self.method not in GROUPING_METHODS:
            raise ValueError(f"method must be one of {GROUPING_METHODS}")

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def check(self) -> None:
        """Certify that every group fully commutes."""
        for group in self.groups:
            group.check_commuting()


def _mask_mix(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fixed avalanche hash of each string's uint64 masks, used to break
    ordering ties; uint64 products wrap modulo 2^64.

    Structured tie-breaks (mask order, insertion order) cluster related
    strings and push the greedy colorings into an atypically favorable
    corner; a fixed pseudo-random key keeps them in the typical regime
    while staying fully deterministic across runs and platforms.
    """
    v = x * np.uint64(0x9E3779B97F4A7C15) + z * np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(30)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def _conflict_graph(op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """The anticommutation rows of op's terms, packed (anticommutation_rows),
    and their _mask_mix keys."""
    if not len(op):
        raise ValueError("cannot group an empty operator")
    return anticommutation_rows(op), _mask_mix(op.x, op.z)


def _unpacked(packed: np.ndarray, n: int) -> np.ndarray:
    """Packed conflict rows as 0/1 bytes, n to a row."""
    return np.unpackbits(packed, axis=-1, count=n)


def _best(allowed: np.ndarray, score: np.ndarray, tiebreak: np.ndarray, bits: int) -> int:
    """Allowed vertex of highest score; ties go to the highest tiebreak,
    a value below 2^bits that no two vertices share."""
    return int(np.where(allowed, (score.astype(np.int64) << bits) | tiebreak, -1).argmax())


def _first_fit(conflict: np.ndarray, order) -> np.ndarray:
    """Greedy coloring: each vertex in order takes the smallest color none of
    its already-colored neighbours has, opening a new color when all do."""
    blocked: list[np.ndarray] = []  # per color, packed: adjacent to one of its vertices
    colors = np.full(len(conflict), -1)
    for vertex in order.tolist():
        byte, bit = vertex >> 3, 0x80 >> (vertex & 7)
        color = next((k for k, row in enumerate(blocked) if not row[byte] & bit), len(blocked))
        if color == len(blocked):
            blocked.append(conflict[vertex].copy())
        else:
            blocked[color] |= conflict[vertex]
        colors[vertex] = color
    return colors


def _build_result(op: PauliSum, colors: np.ndarray, method: str) -> GroupingResult:
    groups = tuple(
        CommutingGroup(op.take(np.flatnonzero(colors == k)), label=f"{method}-{k}")
        for k in range(int(colors.max()) + 1)
    )
    result = GroupingResult(op.n_qubits, method, groups)
    result.check()
    return result


def lf_grouping(op: PauliSum) -> GroupingResult:
    """Greedy largest-first coloring of the non-commutation graph.

    Vertices (terms) are visited by degree descending, ties broken by the
    fixed mask hash; each takes the smallest color absent from its
    already-colored neighbours.
    """
    conflict, keys = _conflict_graph(op)
    order = np.lexsort((keys, -np.bitwise_count(conflict).sum(axis=1, dtype=np.int64)))
    return _build_result(op, _first_fit(conflict, order), "LF")


def rlf_grouping(op: PauliSum) -> GroupingResult:
    """Recursive-largest-first coloring of the non-commutation graph.

    Builds one color class at a time: seed with the highest-degree
    uncolored vertex, then repeatedly admit the candidate with the most
    neighbours among the vertices excluded from the class, until no
    admissible vertex remains.  Ties fall back to the fixed mask hash.
    """
    conflict, keys = _conflict_graph(op)
    n = len(op)
    # counts stay below n, so int16 sums are exact up to 2^15 terms
    count = np.int16 if n < 1 << 15 else np.int32
    tiebreak = np.empty(n, dtype=np.int64)  # n - 1 - rank of the key: the smallest wins
    tiebreak[np.argsort(keys, kind="stable")] = np.arange(n - 1, -1, -1)
    bits = max(1, (n - 1).bit_length())
    colors = np.full(n, -1)
    uncolored = np.ones(n, dtype=bool)
    degree = np.bitwise_count(conflict).sum(axis=1, dtype=count)  # among the uncolored
    color = 0
    while uncolored.any():
        seed = _best(uncolored, degree, tiebreak, bits)
        in_class = [seed]
        excluded = _unpacked(conflict[seed], n).view(bool) & uncolored
        candidates = uncolored & ~excluded
        candidates[seed] = False
        score = _unpacked(conflict[excluded], n).sum(axis=0, dtype=count)  # among the excluded
        while candidates.any():
            best = _best(candidates, score, tiebreak, bits)
            in_class.append(best)
            # best has no neighbour in the class, so its uncolored neighbours
            # not yet excluded are candidates, and they become excluded
            newly = _unpacked(conflict[best], n).view(bool) & candidates
            score += _unpacked(conflict[newly], n).sum(axis=0, dtype=count)
            candidates &= ~newly
            candidates[best] = False
        colors[in_class] = color
        uncolored[in_class] = False
        degree -= _unpacked(conflict[in_class], n).sum(axis=0, dtype=count)
        color += 1
    return _build_result(op, colors, "RLF")


def si_grouping(op: PauliSum) -> GroupingResult:
    """Sorted insertion: weight-ordered terms join the first fully
    commuting group, opening a new group when none accepts them."""
    conflict, _ = _conflict_graph(op)
    order = np.argsort(-np.abs(op.coeffs), kind="stable")
    return _build_result(op, _first_fit(conflict, order), "SI")


# ---------------------------------------------------------------------------
# shot estimation


@dataclass(frozen=True)
class ShotEstimate:
    """Measurement budget at target precision epsilon (Hartree)."""

    epsilon: float
    labels: tuple[str, ...]
    per_group: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.per_group))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("group,shots\n")
        for label, shots in zip(self.labels, self.per_group):
            out.write(f"{label},{shots:.6e}\n")
        out.write(f"total,{self.total:.6e}\n")
        return out.getvalue()


def _group_shot_counts(
    groups: list[CommutingGroup], state, epsilon: float
) -> list[float]:
    """Shot requirement of each group: its most demanding member.

    A weighted string c P takes c^2 (1 - <P>^2) / epsilon^2 shots, its
    single-term sampling variance over epsilon^2; identity terms carry no
    variance and cost nothing, and so does an empty group.  Every member's
    <P> comes from one group_values call, so a string pattern shared across
    groups is evaluated once.
    """
    counts = []
    for group, values in zip(groups, group_values(groups, state)):
        op = group.op
        shots = op.coeffs**2 * np.maximum(0.0, 1.0 - values**2) / epsilon**2
        shots[(op.x == 0) & (op.z == 0)] = 0.0
        counts.append(float(shots.max(initial=0.0)))
    return counts


def _check_epsilon(epsilon: float) -> None:
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def estimate_shots(
    grouping: GroupingResult, state, epsilon: float = 1e-3
) -> ShotEstimate:
    """Per-group and total shot budgets on a fixed measured state."""
    _check_epsilon(epsilon)
    labels = tuple(group.label or f"group-{k}" for k, group in enumerate(grouping.groups))
    return ShotEstimate(epsilon, labels,
                        tuple(_group_shot_counts(grouping.groups, state, epsilon)))


def protocol_shot_estimate(records, state, epsilon: float = 1e-3) -> ShotEstimate:
    """Shot budget for an iterative-extraction run, summed over steps.

    Every member expectation is taken on the supplied, unrotated state,
    the convention behind the published per-method totals.  The groups of
    each step are measured on the state rotated into that step's basis,
    so this prices the reference frame, not the frame actually sampled.
    """
    _check_epsilon(epsilon)
    labels = tuple(f"step{record.step}-group{g_index}"
                   for record in records
                   for g_index in range(1, len(record.groups) + 1))
    groups = [group for record in records for group in record.groups]
    return ShotEstimate(epsilon, labels, tuple(_group_shot_counts(groups, state, epsilon)))


# ---------------------------------------------------------------------------
# depth accounting


def _excitation_ladder(i: int, j: int) -> list[tuple[int, int]]:
    """Two-qubit layout of a parity-threaded excitation between qubits i<j.

    Non-adjacent qubits route through a nearest-neighbour chain: one
    descending rung per intermediate qubit, the rotation at the far end,
    then the chain undone — 2(j-i-1)+1 pairs in total.
    """
    if j - i == 1:
        return [(i, j)]
    down = [(k, k + 1) for k in range(i, j - 1)]
    return down + [(j - 1, j)] + list(reversed(down))


def _gate_footprints(gate: Gate) -> list[tuple[int, ...]]:
    """Primitive footprint sequence (qubit tuples) implementing a gate.

    GIVENS is one excitation ladder between its qubits; PAIR_HOP is a ladder
    between each neighbouring pair of its sorted qubits; every other gate is
    itself.
    """
    if gate.name == "GIVENS":
        return _excitation_ladder(*sorted(gate.qubits))
    if gate.name == "PAIR_HOP":
        qubits = sorted(gate.qubits)
        return [op for a, b in zip(qubits, qubits[1:]) for op in _excitation_ladder(a, b)]
    return [gate.qubits]


def depth_overhead(circuit: Circuit) -> tuple[int, int]:
    """(total depth, two-qubit depth) of a circuit's primitive layout.

    Gates are laid out onto nearest-neighbour two-qubit primitives where
    needed, then packed as early as qubit availability allows.  The first
    number layers every primitive; the second layers only the two-qubit
    ones, the standard cost proxy on hardware where entangling gates
    dominate.
    """
    footprints = [op for gate in circuit.gates for op in _gate_footprints(gate)]

    def layered_depth(ops: list[tuple[int, ...]]) -> int:
        level: dict[int, int] = {}
        depth = 0
        for op in ops:
            layer = 1 + max((level.get(q, 0) for q in op), default=0)
            for q in op:
                level[q] = layer
            depth = max(depth, layer)
        return depth

    total = layered_depth(footprints)
    two_qubit = layered_depth([op for op in footprints if len(op) == 2])
    return total, two_qubit
