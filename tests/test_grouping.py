"""Baseline grouping heuristics, shot budgets, and circuit-depth accounting."""

import numpy as np
import pytest
from conftest import full_vector_expectation, group_union, membership_digest, sum_gap

from hcbmeasure.grouping import (
    _mask_mix,
    depth_overhead,
    GroupingResult,
    estimate_shots,
    lf_grouping,
    protocol_shot_estimate,
    rlf_grouping,
    si_grouping,
)
from hcbmeasure.groups import CommutingGroup, diagonalized_members, diagonalizing_circuit
from hcbmeasure.hcb import extract_hcb, hcb_to_groups, run_protocol
from hcbmeasure.integrals import IntegralTensors
from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.paulis import PauliString, PauliSum, anticommutation_matrix
from hcbmeasure.rotations import graph_rotation
from hcbmeasure.circuits import Circuit
from hcbmeasure.simulator import Statevector, rotation_circuit


def _random_operator(rng, n_qubits, n_strings):
    terms = {}
    while len(terms) < n_strings:
        string = PauliString(
            n_qubits,
            int(rng.integers(0, 1 << n_qubits)),
            int(rng.integers(0, 1 << n_qubits)),
        )
        terms[string] = terms.get(string, 0.0) + float(rng.normal())
    return PauliSum(n_qubits, terms)


def _sum(n_qubits, *terms):
    return PauliSum(n_qubits, {PauliString.from_label(n_qubits, label): c for label, c in terms})


def test_lf_all_diagonal_collapses_to_one_group():
    op = _sum(3, *((label, 0.5) for label in ("Z0", "Z1", "Z0 Z2", "Z1 Z2")))
    result = lf_grouping(op)
    assert result.group_count == 1
    result.check()


def test_lf_anticommuting_pair_needs_two_groups():
    op = _sum(1, ("X0", 1.0), ("Z0", 1.0))
    assert lf_grouping(op).group_count == 2
    assert rlf_grouping(op).group_count == 2
    assert si_grouping(op).group_count == 2


def test_single_term_single_group():
    op = _sum(2, ("X0 Y1", 0.3))
    for result in (lf_grouping(op), rlf_grouping(op), si_grouping(op)):
        assert result.group_count == 1


def test_h4_baseline_group_counts(h4_operator):
    assert lf_grouping(h4_operator).group_count == 29
    assert rlf_grouping(h4_operator).group_count == 19
    assert si_grouping(h4_operator).group_count == 19


# sha256 of every group's label, kind and members (masks, coefficient bits):
# a change to the visiting order or the tie-breaks moves members between
# groups even where the counts survive
PINNED_MEMBERSHIPS = [
    ("h4_operator", lf_grouping, 29,
     "46cdb103f3df8174bcaac7d659f56884a0d172cb616945f46a347cc3ca5268db"),
    ("h4_operator", rlf_grouping, 19,
     "ac6d3693a98fa97f3eefe955e19dddb9ea9b28d781ce0a72b02cc327828a5e8b"),
    ("h4_operator", si_grouping, 19,
     "1b123ac9677dbb38278fc436cee4c7ef15ec8ee0f975bc483e16f550b1c17eeb"),
    ("h6_operator", lf_grouping, 101,
     "5eb52947dfc39eb8e82c407d41240e4a325c81327d20b7a6cfb9e6720f6bf4a5"),
    ("h6_operator", rlf_grouping, 62,
     "ad78212e71cb931a1e617f6b528d6fe93593e458df21ad776b1aa77ad7bc6a9c"),
    ("h6_operator", si_grouping, 70,
     "ce0ffc9d18fe4e94d71fe5b90258d9190a8e0c8e00117414e6a17ce8002747df"),
]


@pytest.mark.parametrize("system,grouping,count,digest", PINNED_MEMBERSHIPS,
                         ids=[f"{s[:2]}-{g.__name__}" for s, g, _, _ in PINNED_MEMBERSHIPS])
def test_memberships_are_pinned(request, system, grouping, count, digest):
    result = grouping(request.getfixturevalue(system))
    assert result.group_count == count
    assert membership_digest(result.groups) == digest


def _member_shots(string, coeff, value, epsilon):
    """w^2 (1 - <P>^2) / epsilon^2 shots for one weighted string; the identity costs 0."""
    if string == PauliString(string.n_qubits):
        return 0.0
    return coeff**2 * max(0.0, 1.0 - value**2) / epsilon**2


def _per_member_budgets(groups, state, epsilon):
    return [max([0.0] + [_member_shots(s, c, full_vector_expectation(state, s), epsilon)
                         for s, c in group.members])
            for group in groups]


def test_shot_budgets_match_the_per_member_path(h6_operator, h6_ground, h4_tensors,
                                                h4_rotations, h4_ground):
    _, state = h6_ground
    for grouping in (lf_grouping, rlf_grouping, si_grouping):
        result = grouping(h6_operator)
        np.testing.assert_allclose(estimate_shots(result, state, 1e-3).per_group,
                                   _per_member_budgets(result.groups, state, 1e-3),
                                   rtol=1e-12, atol=0.0)
    _, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations, state)
    groups = [group for record in records for group in record.groups]
    np.testing.assert_allclose(protocol_shot_estimate(records, state, 1e-3).per_group,
                               _per_member_budgets(groups, state, 1e-3), rtol=1e-12, atol=0.0)


def test_partitions_rebuild_operator(h4_operator):
    for result in (lf_grouping(h4_operator), rlf_grouping(h4_operator),
                   si_grouping(h4_operator)):
        result.check()
        assert sum_gap(group_union(result.groups), h4_operator) < 1e-12


def test_grouping_determinism(h4_operator):
    for grouping in (lf_grouping, si_grouping):
        first = membership_digest(grouping(h4_operator).groups)
        assert membership_digest(grouping(h4_operator).groups) == first


def test_rlf_no_worse_than_lf_on_random_operators():
    rng = np.random.default_rng(42)
    wins = 0
    trials = 30
    for _ in range(trials):
        op = _random_operator(rng, 8, 40)
        if rlf_grouping(op).group_count <= lf_grouping(op).group_count:
            wins += 1
    assert wins >= 0.9 * trials


def _rlf_reference(op: PauliSum) -> list[int]:
    """RLF colours from the boolean anticommutation matrix in wide integer
    sums, each admission taking the highest score and, among ties, the
    smallest _mask_mix key."""
    conflict, keys = anticommutation_matrix(op), _mask_mix(op.x, op.z)

    def best(allowed, score):
        masked = np.where(allowed, score, -1)
        top = np.flatnonzero(masked == masked.max())
        return int(top[np.argmin(keys[top])])

    colors = np.full(len(op), -1)
    uncolored = np.ones(len(op), dtype=bool)
    degree = conflict.sum(axis=1)
    color = 0
    while uncolored.any():
        in_class = [best(uncolored, degree)]
        excluded = conflict[in_class[0]] & uncolored
        candidates = uncolored & ~excluded
        candidates[in_class[0]] = False
        score = conflict[excluded].sum(axis=0)
        while candidates.any():
            in_class.append(best(candidates, score))
            newly = conflict[in_class[-1]] & candidates
            score += conflict[newly].sum(axis=0)
            candidates &= ~newly
            candidates[in_class[-1]] = False
        colors[in_class] = color
        uncolored[in_class] = False
        degree -= conflict[in_class].sum(axis=0)
        color += 1
    return colors.tolist()


def _colors_by_string(result) -> dict:
    return {string: k for k, group in enumerate(result.groups) for string, _ in group.members}


@pytest.mark.parametrize("ordering", ["interleaved", "reordered"])
def test_rlf_matches_the_wide_integer_reference(h4_tensors, ordering):
    """Packed rows, narrow int16 sums and the one masked argmax keep every
    colour, on the H4 line and on random operators dense with score ties."""
    rng = np.random.default_rng(3)
    ops = [build_qubit_hamiltonian(h4_tensors, ordering)]
    ops += [_random_operator(rng, n, size) for n, size in ((3, 20), (4, 60), (6, 120))]
    for op in ops:
        colors = _rlf_reference(op)
        expected = {string: colors[i] for i, (string, _) in enumerate(op.terms())}
        assert _colors_by_string(rlf_grouping(op)) == expected


def test_diagonalizer_certified(h4_operator):
    result = si_grouping(h4_operator)
    for group in result.groups[:5]:
        z, signs = diagonalized_members(group, diagonalizing_circuit(group))
        assert len(z) == len(signs) == len(group.members)


def _shots(state, epsilon, *groups):
    result = GroupingResult(state.n_qubits, "SI", tuple(CommutingGroup(op) for op in groups))
    return list(estimate_shots(result, state, epsilon).per_group)


def test_member_shot_count_rules():
    zero, one = Statevector.computational_basis(2, 0b00), Statevector.computational_basis(2, 0b01)
    plus = Statevector(2, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    # the identity costs nothing
    assert _shots(plus, 1e-3, _sum(2, ("", 5.0))) == [0.0]
    # stabilizer direction: <P> = ±1 means zero variance
    assert _shots(zero, 1e-3, _sum(2, ("Z0", 2.0))) == [0.0]
    assert _shots(one, 1e-3, _sum(2, ("Z0", 2.0))) == [0.0]
    # w^2 (1 - <P>^2) / eps^2, the group's most demanding member
    assert _shots(plus, 1e-2, _sum(2, ("Z0", 2.0), ("Z1", 3.0))) == [pytest.approx(4.0 / 1e-4)]


def test_an_empty_layer_group_costs_no_shots(h2_ground):
    """A layer without off-diagonal entries leaves groups 2 and 3 empty."""
    n = 2
    layer, _ = extract_hcb(IntegralTensors(n, np.diag([-1.0, -0.5]), np.zeros((n,) * 4)))
    groups = hcb_to_groups(layer)
    assert [len(group.op) for group in groups][1:] == [0, 0]
    _, state = h2_ground
    result = GroupingResult(2 * n, "SI", groups)
    per_group = estimate_shots(result, state, 1e-3).per_group
    assert per_group[1:] == (0.0, 0.0)
    assert per_group[0] == _per_member_budgets(groups[:1], state, 1e-3)[0] > 0.0


def test_an_empty_protocol_run_costs_no_shots(h2_ground):
    _, state = h2_ground
    estimate = protocol_shot_estimate([], state, 1e-3)
    assert estimate.labels == estimate.per_group == ()
    assert estimate.total == 0.0


def test_estimate_shots_epsilon_scaling(h2_operator, h2_ground):
    _, state = h2_ground
    grouping = si_grouping(h2_operator)
    base = estimate_shots(grouping, state, epsilon=1e-3)
    halved = estimate_shots(grouping, state, epsilon=5e-4)
    assert halved.total == pytest.approx(4.0 * base.total, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_shots(grouping, state, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-3])
def test_shot_estimates_require_a_finite_positive_epsilon(
        h4_operator, h4_tensors, h4_rotations, h4_ground, epsilon):
    _, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations[:1], state)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        estimate_shots(si_grouping(h4_operator), state, epsilon)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        protocol_shot_estimate(records, state, epsilon)


def test_shot_estimate_csv(h2_operator, h2_ground):
    _, state = h2_ground
    estimate = estimate_shots(si_grouping(h2_operator), state)
    lines = estimate.to_csv().splitlines()
    assert lines[0] == "group,shots"
    assert lines[-1].startswith("total,")
    assert len(lines) == len(estimate.per_group) + 2


def test_stabilizer_state_costs_nothing():
    op = _sum(2, ("Z0", 1.0), ("Z0 Z1", 0.5))
    state = Statevector.computational_basis(2, 0b01)
    estimate = estimate_shots(si_grouping(op), state)
    assert estimate.total == 0.0


def test_depth_overhead_empty_and_single_gate():
    assert depth_overhead(Circuit(4)) == (0, 0)
    circuit = Circuit(4)
    circuit.add("PAIR_HOP", 0, 1, 2, 3, angle=0.3)
    total, two_qubit = depth_overhead(circuit)
    assert total >= 1
    assert two_qubit >= 1


def test_depth_overhead_reads_footprints_from_gate_names():
    circuit = Circuit(5)
    circuit.add("GIVENS", 3, 0, angle=0.2)  # ladder (0,1) (1,2) (2,3) (1,2) (0,1)
    assert depth_overhead(circuit) == (5, 5)
    circuit.add("H", 0)
    assert depth_overhead(circuit) == (6, 5)
    circuit.add("CZ", 4, 0)
    assert depth_overhead(circuit) == (7, 6)
    hop = Circuit(5)
    hop.add("PAIR_HOP", 4, 0, 2, 1, angle=0.2)  # ladders (0,1), (1,2), (2,3) (3,4) (2,3)
    assert depth_overhead(hop) == (5, 5)


def test_reordered_depth_beats_interleaved(h4_graphs):
    g1 = h4_graphs[0]
    rotation = graph_rotation(g1)
    inter = depth_overhead(rotation_circuit(rotation, 4, "interleaved"))
    reord = depth_overhead(rotation_circuit(rotation, 4, "reordered"))
    assert reord[1] < inter[1]
