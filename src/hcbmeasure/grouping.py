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
import json
from dataclasses import dataclass

from .groups import (
    CliffordCircuit,
    CommutingGroup,
    diagonalized_members,
    diagonalizing_circuit,
)
from .paulis import COMMUTATION_MODES, PauliString, PauliSum, commutation_test

GROUPING_METHODS = ("LF", "RLF", "SI")


def strings_commute(a: PauliString, b: PauliString, mode: str) -> bool:
    """Commutation test under the named mode (see paulis.commutation_test)."""
    return commutation_test(mode)(a, b)


@dataclass(frozen=True)
class GroupingResult:
    """A partition of an operator's terms into commuting groups."""

    n_qubits: int
    method: str
    mode: str
    groups: tuple[CommutingGroup, ...]

    def __post_init__(self) -> None:
        if self.method not in GROUPING_METHODS:
            raise ValueError(f"method must be one of {GROUPING_METHODS}")
        if self.mode not in COMMUTATION_MODES:
            raise ValueError(f"mode must be one of {COMMUTATION_MODES}")

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def to_sum(self) -> PauliSum:
        total = PauliSum(self.n_qubits)
        for group in self.groups:
            for string, coeff in group.members:
                total.add_term(string, coeff)
        return total

    def check(self) -> None:
        """Certify every group against the declared commutation mode."""
        for group in self.groups:
            group.check_commuting(self.mode)

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "mode": self.mode,
            "n_qubits": self.n_qubits,
            "groups": [
                {
                    "label": g.label,
                    "kind": g.kind,
                    "terms": [
                        {"string": str(s), "coefficient": c} for s, c in g.members
                    ],
                }
                for g in self.groups
            ],
        }
        return json.dumps(payload, indent=2)


_MASK64 = (1 << 64) - 1


def _mask_mix(string: PauliString) -> int:
    """Fixed avalanche hash of a string's masks, used to break ordering ties.

    Structured tie-breaks (mask order, insertion order) cluster related
    strings and push the greedy colorings into an atypically favorable
    corner; a fixed pseudo-random key keeps them in the typical regime
    while staying fully deterministic across runs and platforms.
    """
    v = (string.x_mask * 0x9E3779B97F4A7C15 + string.z_mask * 0xBF58476D1CE4E5B9) & _MASK64
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & _MASK64
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & _MASK64
    return v ^ (v >> 31)


def _conflict_sets(
    terms: list[tuple[PauliString, float]], mode: str
) -> list[set[int]]:
    """Adjacency of the non-commutation graph over term indices."""
    commute = commutation_test(mode)
    n = len(terms)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        si = terms[i][0]
        for j in range(i + 1, n):
            if not commute(si, terms[j][0]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def _build_result(
    n_qubits: int,
    terms: list[tuple[PauliString, float]],
    colors: list[int],
    method: str,
    mode: str,
) -> GroupingResult:
    n_colors = max(colors) + 1 if colors else 0
    buckets: list[list[tuple[PauliString, float]]] = [[] for _ in range(n_colors)]
    for idx, color in enumerate(colors):
        buckets[color].append(terms[idx])
    groups = tuple(
        CommutingGroup(n_qubits, tuple(bucket), label=f"{method}-{k}")
        for k, bucket in enumerate(buckets)
    )
    result = GroupingResult(n_qubits, method, mode, groups)
    result.check()
    return result


def lf_grouping(op: PauliSum, mode: str = "fully") -> GroupingResult:
    """Greedy largest-first coloring of the non-commutation graph.

    Vertices (terms) are visited by degree descending, ties broken by the
    fixed mask hash; each takes the smallest color absent from its
    already-colored neighbours.
    """
    terms = op.terms()
    if not terms:
        raise ValueError("cannot group an empty operator")
    adjacency = _conflict_sets(terms, mode)
    keys = [_mask_mix(s) for s, _ in terms]
    order = sorted(range(len(terms)), key=lambda i: (-len(adjacency[i]), keys[i]))
    colors = [-1] * len(terms)
    for vertex in order:
        used = {colors[u] for u in adjacency[vertex] if colors[u] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[vertex] = color
    return _build_result(op.n_qubits, terms, colors, "LF", mode)


def rlf_grouping(op: PauliSum, mode: str = "fully") -> GroupingResult:
    """Recursive-largest-first coloring of the non-commutation graph.

    Builds one color class at a time: seed with the highest-degree
    uncolored vertex, then repeatedly admit the candidate with the most
    neighbours among the vertices excluded from the class, until no
    admissible vertex remains.  Ties fall back to the fixed mask hash.
    """
    terms = op.terms()
    if not terms:
        raise ValueError("cannot group an empty operator")
    adjacency = _conflict_sets(terms, mode)
    keys = [_mask_mix(s) for s, _ in terms]
    n = len(terms)
    colors = [-1] * n
    uncolored = set(range(n))
    color = 0
    while uncolored:
        seed = max(
            uncolored, key=lambda v: (len(adjacency[v] & uncolored), -keys[v])
        )
        in_class = {seed}
        excluded = adjacency[seed] & uncolored
        candidates = uncolored - in_class - excluded
        while candidates:
            best = max(
                candidates, key=lambda v: (len(adjacency[v] & excluded), -keys[v])
            )
            in_class.add(best)
            excluded |= adjacency[best] & uncolored
            candidates -= adjacency[best]
            candidates.discard(best)
        for v in in_class:
            colors[v] = color
        uncolored -= in_class
        color += 1
    return _build_result(op.n_qubits, terms, colors, "RLF", mode)


def si_grouping(op: PauliSum) -> GroupingResult:
    """Sorted insertion: weight-ordered terms join the first fully
    commuting group, opening a new group when none accepts them."""
    terms = op.terms()
    if not terms:
        raise ValueError("cannot group an empty operator")
    order = sorted(range(len(terms)), key=lambda i: (-abs(terms[i][1]), i))
    group_members: list[list[int]] = []
    for idx in order:
        string = terms[idx][0]
        for members in group_members:
            if all(string.commutes_with(terms[j][0]) for j in members):
                members.append(idx)
                break
        else:
            group_members.append([idx])
    colors = [-1] * len(terms)
    for color, members in enumerate(group_members):
        for idx in members:
            colors[idx] = color
    return _build_result(op.n_qubits, terms, colors, "SI", "fully")


def diagonalizer(group: CommutingGroup) -> CliffordCircuit:
    """Clifford circuit conjugating every member to a diagonal string.

    The circuit is certified member-by-member before it is returned.
    """
    circuit = diagonalizing_circuit(group)
    diagonalized_members(group, circuit)
    return circuit


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


def member_shot_count(
    string: PauliString, coeff: float, expectation_value: float, epsilon: float
) -> float:
    """Shots resolving one weighted string to precision epsilon.

    The single-term sampling variance is w^2 (1 - <P>^2); identity terms
    carry no variance and cost nothing.
    """
    if string.x_mask == 0 and string.z_mask == 0:
        return 0.0
    variance = max(0.0, 1.0 - expectation_value**2)
    return (coeff**2) * variance / (epsilon**2)


def group_shot_count(group: CommutingGroup, state, epsilon: float) -> float:
    """Shot requirement of a group: its most demanding member."""
    from .simulator import pauli_expectation

    worst = 0.0
    for string, coeff in group.members:
        value = pauli_expectation(state, string)
        worst = max(worst, member_shot_count(string, coeff, value, epsilon))
    return worst


def estimate_shots(
    grouping: GroupingResult, state, epsilon: float = 1e-3
) -> ShotEstimate:
    """Per-group and total shot budgets on a fixed measured state."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    labels = []
    counts = []
    for group in grouping.groups:
        labels.append(group.label or f"group-{len(labels)}")
        counts.append(group_shot_count(group, state, epsilon))
    return ShotEstimate(epsilon, tuple(labels), tuple(counts))


def protocol_shot_estimate(records, state, epsilon: float = 1e-3) -> ShotEstimate:
    """Shot budget for an iterative-extraction run, summed over steps.

    Every member expectation is taken on the supplied, unrotated state,
    the convention behind the published per-method totals.  The groups of
    each step are measured on the state rotated into that step's basis,
    so this prices the reference frame, not the frame actually sampled.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    labels = []
    counts = []
    for record in records:
        for g_index, group in enumerate(record.groups, start=1):
            labels.append(f"step{record.step}-group{g_index}")
            counts.append(group_shot_count(group, state, epsilon))
    return ShotEstimate(epsilon, tuple(labels), tuple(counts))


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


def _gate_footprints(gate, spin_orbital) -> list[tuple[int, ...]]:
    """Primitive footprint sequence (qubit tuples) implementing a gate."""
    from . import simulator as sim

    if isinstance(gate, sim.PairRotationGate):
        ops: list[tuple[int, ...]] = []
        for spin in (0, 1):
            a, b = sorted((spin_orbital(gate.p, spin), spin_orbital(gate.q, spin)))
            ops.extend(_excitation_ladder(a, b))
        return ops
    if isinstance(gate, sim.PairGivensGate):
        qubits = sorted(
            spin_orbital(orbital, spin)
            for orbital in (gate.p, gate.q)
            for spin in (0, 1)
        )
        ops = []
        for a, b in zip(qubits, qubits[1:]):
            ops.extend(_excitation_ladder(a, b))
        return ops
    if isinstance(gate, (sim.XGate, sim.ZGate)):
        return [gate.qubits]
    raise ValueError(f"cannot lay out gate {gate!r}")


def depth_overhead(circuit) -> tuple[int, int]:
    """(total depth, two-qubit depth) of a circuit's primitive layout.

    Gates are laid out onto nearest-neighbour two-qubit primitives where
    needed, then packed as early as qubit availability allows.  The first
    number layers every primitive; the second layers only the two-qubit
    ones, the standard cost proxy on hardware where entangling gates
    dominate.  Accepts the simulator's Circuit or a CliffordCircuit.
    """
    if isinstance(circuit, CliffordCircuit):
        footprints = [tuple(g.qubits) for g in circuit.gates]
    else:
        footprints = []
        for gate in circuit.gates:
            footprints.extend(_gate_footprints(gate, circuit.spin_orbital))

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
