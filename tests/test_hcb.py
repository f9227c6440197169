"""Paired-layer extraction, its three commuting groups, and the protocol."""

import numpy as np
import pytest
from conftest import random_tensors
from hypothesis import given, settings
from hypothesis import strategies as st

from hcbmeasure.encoding import ORDERINGS, build_qubit_hamiltonian
from hcbmeasure.hcb import (
    extract_hcb,
    hcb_operator,
    hcb_to_groups,
    records_to_csv,
    run_protocol,
)
from hcbmeasure.integrals import IntegralTensors, rdm_expectation
from hcbmeasure.rotations import (
    graph_rotation,
    identity_rotation,
    random_orthogonal_rotation,
    rotate_integrals,
)
from hcbmeasure.simulator import (
    Statevector,
    _check_rdms,
    apply_circuit,
    expectation,
    ground_state,
    rotation_circuit,
    spin_summed_rdms,
)


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return Statevector(n_qubits, v / np.linalg.norm(v))


def test_extraction_reconstructs_input_exactly(h4_tensors):
    d = extract_hcb(h4_tensors)
    back = d.consumed_tensors()
    assert np.max(np.abs(back.one_body + d.residual.one_body
                         - h4_tensors.one_body)) < 1e-15
    assert np.max(np.abs(back.two_body + d.residual.two_body
                         - h4_tensors.two_body)) < 1e-15
    assert back.e_nuc + d.residual.e_nuc == h4_tensors.e_nuc


def test_extraction_idempotent(h4_tensors):
    d = extract_hcb(h4_tensors)
    d2 = extract_hcb(d.residual)
    assert all(c == 0.0 for _, c in d2.alpha)
    assert all(c == 0.0 for _, _, c in d2.beta)
    assert all(c == 0.0 for _, _, c in d2.gamma)
    assert all(c == 0.0 for _, _, c in d2.delta)


def test_beta_delta_exclude_diagonal_pairs(h4_tensors):
    d = extract_hcb(h4_tensors)
    assert all(k != l for k, l, _ in d.beta)
    assert all(k != l for k, l, _ in d.delta)


def test_paired_only_tensors_leave_zero_residual():
    n = 3
    rng = np.random.default_rng(6)
    h = np.diag(rng.normal(size=n))
    g = np.zeros((n, n, n, n))
    for k in range(n):
        g[k, k, k, k] = rng.normal()
        for l in range(n):
            if k != l:
                val = rng.normal()
                g[k, k, l, l] = val
                g[l, l, k, k] = val
                val = rng.normal()
                g[k, l, l, k] = val
                g[l, k, k, l] = val
                val = rng.normal()
                g[k, l, k, l] = val
                g[l, k, l, k] = val
    sym = np.einsum("ikjl->ijkl", g)
    sym = (sym + sym.transpose(1, 0, 2, 3)) / 2  # already symmetric; harmless
    tensors = IntegralTensors(n, h, np.einsum("ijkl->ikjl", sym))
    d = extract_hcb(tensors)
    assert np.max(np.abs(d.residual.two_body)) == 0.0
    assert np.max(np.abs(d.residual.one_body)) == 0.0


def test_h2_natural_basis_residual_vanishes(h2_natural_tensors):
    op = build_qubit_hamiltonian(h2_natural_tensors, "interleaved", 0.0)
    from hcbmeasure.simulator import ground_state

    _, state = ground_state(op, 2)
    d = extract_hcb(h2_natural_tensors)
    res_op = build_qubit_hamiltonian(d.residual, "interleaved", 0.0)
    assert abs(expectation(state, res_op)) < 1e-12


def test_split_is_linear_on_random_states(h4_tensors):
    d = extract_hcb(h4_tensors)
    full = build_qubit_hamiltonian(h4_tensors, "interleaved", 0.0)
    paired = hcb_operator(d)
    residual = build_qubit_hamiltonian(d.residual, "interleaved", 0.0)
    for seed in range(3):
        state = _random_state(8, seed)
        total = expectation(state, paired) + expectation(state, residual)
        assert abs(total - expectation(state, full)) < 1e-10


def test_alpha_only_decomposition_has_empty_off_diagonal_groups():
    n = 2
    tensors = IntegralTensors(n, np.diag([-1.0, -0.5]), np.zeros((n,) * 4))
    groups = hcb_to_groups(extract_hcb(tensors))
    assert len(groups) == 3
    assert groups[0].members  # diagonal strings present
    assert not groups[1].members
    assert not groups[2].members


def test_pair_hop_member_sets():
    """A single 2-orbital pair hop lands in the two off-diagonal families."""
    n = 2
    chem = np.zeros((n, n, n, n))
    for idx in ((0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)):
        chem[idx] = 0.25
    tensors = IntegralTensors(
        n, np.zeros((n, n)), np.einsum("ijkl->ikjl", chem))
    groups = hcb_to_groups(extract_hcb(tensors))
    labels2 = {s.label() for s in groups[1].strings()}
    labels3 = {s.label() for s in groups[2].strings()}
    assert labels2 == {"Y0 X1 X2 Y3", "X0 Y1 Y2 X3"}
    assert labels3 == {"Y0 Y1 X2 X3", "X0 X1 Y2 Y3"}


def test_groups_partition_paired_operator_both_orderings(h4_tensors):
    d = extract_hcb(h4_tensors)
    for ordering in ("interleaved", "reordered"):
        op = hcb_operator(d, ordering)
        groups = hcb_to_groups(d, ordering)
        union = groups[0].to_sum() + groups[1].to_sum() + groups[2].to_sum()
        assert (op - union).max_abs_coefficient() < 1e-10


def test_groups_internally_commute_h6(h6_tensors):
    groups = hcb_to_groups(extract_hcb(h6_tensors))
    for group in groups:
        strings = group.strings()
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                assert strings[i].commutes_with(strings[j])
    # off-diagonal families carry no Z-type strings
    for group in groups[1:]:
        assert all(not s.is_diagonal() for s in group.strings())


def test_protocol_identity_rotation_exact_on_h2(h2_natural_tensors):
    from hcbmeasure.simulator import ground_state

    op = build_qubit_hamiltonian(h2_natural_tensors, "interleaved", 0.0)
    exact, state = ground_state(op, 2)
    records = run_protocol(
        h2_natural_tensors, [identity_rotation(2)], state)
    assert len(records) == 1
    assert abs(records[0].cumulative - exact) < 1e-12


def test_protocol_telescoping_identity(h4_tensors, h4_rotations, h4_ground):
    exact, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations, state)
    for record in records:
        assert abs(record.cumulative + record.residual_expectation
                   - exact) < 1e-9
        assert record.step_value == pytest.approx(
            sum(record.contributions))


def test_protocol_order_permutation_keeps_identity(
        h4_tensors, h4_rotations, h4_ground):
    exact, state = h4_ground
    reordered = [h4_rotations[2], h4_rotations[0], h4_rotations[1]]
    records = run_protocol(h4_tensors, reordered, state)
    for record in records:
        assert abs(record.cumulative + record.residual_expectation
                   - exact) < 1e-9


def test_error_curve_shape(h4_tensors, h4_rotations, h4_ground):
    """The error curve decompose writes has one row per step with |residual|."""
    _, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations, state)
    rows = [line.split(",") for line in records_to_csv(records).splitlines()[1:]]
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert int(row[0]) == record.step
        assert record.abs_error == abs(record.residual_expectation)
        assert float(row[-1]) == pytest.approx(record.abs_error, rel=1e-11)


def test_records_csv_header(h2_tensors, h2_ground):
    _, state = h2_ground
    records = run_protocol(h2_tensors, [identity_rotation(2)], state)
    text = records_to_csv(records)
    header = text.splitlines()[0]
    assert header == ("step,rotation,group1,group2,group3,cumulative,"
                      "residual_expectation,abs_error")
    assert len(text.splitlines()) == 2


def test_protocol_input_validation(h2_tensors, h2_ground):
    _, state = h2_ground
    with pytest.raises(ValueError, match="at least one rotation"):
        run_protocol(h2_tensors, [], state)
    with pytest.raises(ValueError, match="size"):
        run_protocol(h2_tensors, [identity_rotation(3)], state)
    bad_state = Statevector.computational_basis(6)
    with pytest.raises(ValueError, match="qubits"):
        run_protocol(h2_tensors, [identity_rotation(2)], bad_state)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
def test_small_random_rotations_reconstruct(n, seed):
    """Telescoping holds for random tensors under random rotation sets."""
    tensors = random_tensors(n, seed)
    rotations = [random_orthogonal_rotation(n, seed=seed * 10 + k)
                 for k in range(3)]
    state = _random_state(2 * n, seed)
    exact = expectation(
        state, build_qubit_hamiltonian(tensors, "interleaved", 0.0))
    records = run_protocol(tensors, rotations, state)
    for record in records:
        assert abs(record.cumulative + record.residual_expectation
                   - exact) < 1e-9


# ---------------------------------------------------------------------------
# the RDM contraction against the Pauli path, which stays the oracle


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6"])
def test_rdm_contraction_matches_pauli_path_on_ground_states(
        request, system, ordering):
    tensors = request.getfixturevalue(f"{system}_tensors")
    op = build_qubit_hamiltonian(tensors, ordering, 0.0)
    _, state = ground_state(op, tensors.n_orbitals, ordering=ordering)
    one_rdm, two_rdm = spin_summed_rdms(state, ordering)
    assert abs(rdm_expectation(tensors, one_rdm, two_rdm)
               - expectation(state, op)) < 1e-12


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_rdm_contraction_matches_pauli_path_on_random_state(h4_tensors, ordering):
    """The full-space random state mixes every particle number."""
    state = _random_state(8, 5)
    op = build_qubit_hamiltonian(h4_tensors, ordering, 0.0)
    one_rdm, two_rdm = spin_summed_rdms(state, ordering)
    assert abs(rdm_expectation(h4_tensors, one_rdm, two_rdm)
               - expectation(state, op)) < 1e-12


def test_protocol_residual_matches_pauli_path(h4_tensors, h4_rotations, h4_ground):
    _, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations, state)
    residual = h4_tensors
    for rotation, record in zip(h4_rotations, records):
        layer = extract_hcb(rotate_integrals(residual, rotation))
        residual = rotate_integrals(layer.residual, rotation.transpose())
        pauli = expectation(state, build_qubit_hamiltonian(residual, "interleaved", 0.0))
        assert abs(record.residual_expectation - pauli) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       n_rotations=st.integers(1, 3), ordering=st.sampled_from(ORDERINGS))
def test_telescoping_identity_property(n, seed, n_rotations, ordering):
    tensors = random_tensors(n, seed, e_nuc=0.5)
    rotations = [random_orthogonal_rotation(n, seed=seed + k)
                 for k in range(n_rotations)]
    state = _random_state(2 * n, seed)
    exact = expectation(state, build_qubit_hamiltonian(tensors, ordering, 0.0))
    for record in run_protocol(tensors, rotations, state, ordering):
        assert abs(record.cumulative + record.residual_expectation - exact) < 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       ordering=st.sampled_from(ORDERINGS))
def test_rdm_energy_is_rotation_invariant(n, seed, ordering):
    """The rotated tensors on the rotated state's RDMs give the same energy."""
    tensors = random_tensors(n, seed, e_nuc=0.5)
    rotation = random_orthogonal_rotation(n, seed=seed)
    state = _random_state(2 * n, seed)
    rotated = apply_circuit(state, rotation_circuit(rotation, n, ordering))
    before = rdm_expectation(tensors, *spin_summed_rdms(state, ordering))
    after = rdm_expectation(rotate_integrals(tensors, rotation),
                            *spin_summed_rdms(rotated, ordering))
    assert abs(after - before) < 1e-10


def test_rdm_checks_reject_corrupted_pairs(h4_ground):
    _, state = h4_ground
    one_rdm, two_rdm = spin_summed_rdms(state)
    _check_rdms(state, one_rdm, two_rdm)
    skewed = one_rdm.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ValueError, match="1-RDM Hermiticity gap"):
        _check_rdms(state, skewed, two_rdm)
    with pytest.raises(ValueError, match="1-RDM trace vs <N> gap"):
        _check_rdms(state, 1.01 * one_rdm, two_rdm)
    with pytest.raises(ValueError, match="2-RDM trace"):
        _check_rdms(state, one_rdm, 1.01 * two_rdm)


def test_rdm_expectation_rejects_mismatched_shapes(h4_tensors):
    with pytest.raises(ValueError, match="do not match N=4"):
        rdm_expectation(h4_tensors, np.zeros((3, 3)), np.zeros((3,) * 4))
