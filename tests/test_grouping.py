"""Baseline grouping heuristics, shot budgets, and circuit-depth accounting."""

import numpy as np
import pytest
from conftest import full_vector_expectation, membership_digest, sum_gap

from hcbmeasure.grouping import (
    depth_overhead,
    estimate_shots,
    lf_grouping,
    member_shot_count,
    protocol_shot_estimate,
    rlf_grouping,
    si_grouping,
)
from hcbmeasure.groups import diagonalized_members, diagonalizing_circuit
from hcbmeasure.hcb import run_protocol
from hcbmeasure.paulis import PauliString, PauliSum
from hcbmeasure.rotations import graph_rotation
from hcbmeasure.circuits import Circuit
from hcbmeasure.simulator import Statevector, rotation_circuit


def _random_operator(rng, n_qubits, n_strings):
    op = PauliSum(n_qubits)
    while len(op) < n_strings:
        op.add_term(
            PauliString(
                n_qubits,
                int(rng.integers(0, 1 << n_qubits)),
                int(rng.integers(0, 1 << n_qubits)),
            ),
            float(rng.normal()),
        )
    return op


def test_lf_all_diagonal_collapses_to_one_group():
    op = PauliSum(3)
    for label in ("Z0", "Z1", "Z0 Z2", "Z1 Z2"):
        op.add_term(PauliString.from_label(3, label), 0.5)
    result = lf_grouping(op)
    assert result.group_count == 1
    result.check()


def test_lf_anticommuting_pair_needs_two_groups():
    op = PauliSum(1)
    op.add_term(PauliString.from_label(1, "X0"), 1.0)
    op.add_term(PauliString.from_label(1, "Z0"), 1.0)
    assert lf_grouping(op).group_count == 2
    assert rlf_grouping(op).group_count == 2
    assert si_grouping(op).group_count == 2


def test_single_term_single_group():
    op = PauliSum(2)
    op.add_term(PauliString.from_label(2, "X0 Y1"), 0.3)
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


def _per_member_budgets(groups, state, epsilon):
    return [max([0.0] + [member_shot_count(s, c, full_vector_expectation(state, s), epsilon)
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
        union = PauliSum(h4_operator.n_qubits)
        for group in result.groups:
            union = union + group.to_sum()
        assert sum_gap(union, h4_operator) < 1e-12


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


def test_diagonalizer_certified(h4_operator):
    result = si_grouping(h4_operator)
    for group in result.groups[:5]:
        circuit = diagonalizing_circuit(group)
        for image, _coeff in diagonalized_members(group, circuit):
            assert image.is_diagonal()


def test_member_shot_count_rules():
    identity = PauliString(2)
    assert member_shot_count(identity, 5.0, 1.0, 1e-3) == 0.0
    z0 = PauliString.from_label(2, "Z0")
    # stabilizer direction: <P> = ±1 means zero variance
    assert member_shot_count(z0, 2.0, 1.0, 1e-3) == 0.0
    assert member_shot_count(z0, 2.0, -1.0, 1e-3) == 0.0
    # w^2 (1 - <P>^2) / eps^2
    assert member_shot_count(z0, 2.0, 0.0, 1e-2) == pytest.approx(4.0 / 1e-4)


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
    op = PauliSum(2)
    op.add_term(PauliString.from_label(2, "Z0"), 1.0)
    op.add_term(PauliString.from_label(2, "Z0 Z1"), 0.5)
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
