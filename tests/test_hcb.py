"""Paired-layer extraction, its three commuting groups, and the protocol."""

import numpy as np
import pytest
from conftest import (
    full_space_spin_rdms,
    group_union,
    jw_layer_groups,
    membership_digest,
    random_tensors,
    spin_orbital_rdms,
    sum_gap,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import hcbmeasure.encoding as encoding
import hcbmeasure.hcb as hcb
from hcbmeasure.encoding import ORDERINGS, ZERO_TOL, build_qubit_hamiltonian, qubit_table
from hcbmeasure.geometry import build_geometry
from hcbmeasure.hcb import (
    _layer_masks,
    extract_hcb,
    hcb_to_groups,
    records_to_csv,
    run_protocol,
)
from hcbmeasure.integrals import IntegralTensors, minimal_basis_integrals, rdm_expectation
from hcbmeasure.paulis import anticommutation_matrix
from hcbmeasure.rotations import (
    distance_ranked_matchings,
    graph_rotation,
    identity_rotation,
    random_orthogonal_rotation,
    rotate_integrals,
)
from hcbmeasure.simulator import (
    Statevector,
    _check_rdms,
    apply_circuit,
    build_pair_ansatz,
    expectation,
    ground_state,
    rotation_circuit,
    spin_blocks,
    spin_rdms,
)


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return Statevector(n_qubits, v / np.linalg.norm(v))


def _random_block_state(n, n_alpha, n_beta, seed, ordering="interleaved"):
    """A random complex state on the (n_alpha, n_beta) block of the layout."""
    rng = np.random.default_rng(seed)
    idx = np.arange(4 ** n)
    up, down = (1 << qubit_table(n, ordering)).sum(axis=0)
    inside = (np.bitwise_count(idx & up) == n_alpha) & (np.bitwise_count(idx & down) == n_beta)
    v = np.where(inside, rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n), 0.0)
    return Statevector(2 * n, v / np.linalg.norm(v))


def _pattern_oracle(tensors):
    """The paired layer by an explicit index loop over its patterns."""
    n = tensors.n_orbitals
    h = np.zeros((n, n))
    g = np.zeros((n,) * 4)
    for k in range(n):
        h[k, k] = tensors.one_body[k, k]
        for l in range(n):
            for index in ((k, k, l, l), (k, l, l, k), (k, l, k, l)):
                g[index] = tensors.two_body[index]
    return h, g


def test_extraction_reconstructs_input_exactly(h4_tensors):
    layer, residual = extract_hcb(h4_tensors)
    assert np.array_equal(layer.one_body + residual.one_body, h4_tensors.one_body)
    assert np.array_equal(layer.two_body + residual.two_body, h4_tensors.two_body)
    assert (layer.e_nuc, residual.e_nuc) == (h4_tensors.e_nuc, 0.0)
    assert layer.basis == residual.basis == h4_tensors.basis


def test_extraction_idempotent(h4_tensors):
    layer, _ = extract_hcb(extract_hcb(h4_tensors)[1])
    assert not np.any(layer.one_body)
    assert not np.any(layer.two_body)


def test_beta_delta_exclude_diagonal_pairs(h4_tensors):
    """The pair-hop (kkll), exchange (kllk) and density (klkl) diagonals of g
    share only the on-site entries g[k,k,k,k], which the layer holds once."""
    n = h4_tensors.n_orbitals
    layer, residual = extract_hcb(h4_tensors)
    for pattern in ("kkll->kl", "kllk->kl", "klkl->kl"):
        assert np.array_equal(np.einsum(pattern, layer.two_body),
                              np.einsum(pattern, h4_tensors.two_body))
        assert not np.any(np.einsum(pattern, residual.two_body))
    assert np.count_nonzero(_layer_masks(n)[1]) == 3 * n * n - 2 * n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_mask_cut_matches_the_index_loop(n, seed):
    tensors = random_tensors(n, seed, e_nuc=0.5)
    layer, residual = extract_hcb(tensors)
    assert np.array_equal(layer.one_body + residual.one_body, tensors.one_body)
    assert np.array_equal(layer.two_body + residual.two_body, tensors.two_body)
    h, g = _pattern_oracle(tensors)
    assert np.array_equal(layer.one_body, h)
    assert np.array_equal(layer.two_body, g)
    again, _ = extract_hcb(residual)
    assert not np.any(again.one_body) and not np.any(again.two_body)


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
    _, residual = extract_hcb(tensors)
    assert np.max(np.abs(residual.two_body)) == 0.0
    assert np.max(np.abs(residual.one_body)) == 0.0


def test_h2_natural_basis_residual_vanishes(h2_natural_tensors):
    op = build_qubit_hamiltonian(h2_natural_tensors, "interleaved", 0.0)
    from hcbmeasure.simulator import ground_state

    _, state = ground_state(op, 2)
    _, residual = extract_hcb(h2_natural_tensors)
    res_op = build_qubit_hamiltonian(residual, "interleaved", 0.0)
    assert abs(expectation(state, res_op)) < 1e-12


def test_split_is_linear_on_random_states(h4_tensors):
    layer, rest = extract_hcb(h4_tensors)
    full = build_qubit_hamiltonian(h4_tensors, "interleaved", 0.0)
    paired = build_qubit_hamiltonian(layer, "interleaved", 0.0)
    residual = build_qubit_hamiltonian(rest, "interleaved", 0.0)
    for seed in range(3):
        state = _random_state(8, seed)
        total = expectation(state, paired) + expectation(state, residual)
        assert abs(total - expectation(state, full)) < 1e-10


def test_alpha_only_decomposition_has_empty_off_diagonal_groups():
    n = 2
    tensors = IntegralTensors(n, np.diag([-1.0, -0.5]), np.zeros((n,) * 4))
    groups = hcb_to_groups(extract_hcb(tensors)[0])
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
    groups = hcb_to_groups(extract_hcb(tensors)[0])
    labels2 = {s.label() for s, _ in groups[1].members}
    labels3 = {s.label() for s, _ in groups[2].members}
    assert labels2 == {"Y0 X1 X2 Y3", "X0 Y1 Y2 X3"}
    assert labels3 == {"Y0 Y1 X2 X3", "X0 X1 Y2 Y3"}


def test_groups_partition_paired_operator_both_orderings(h4_tensors):
    layer, _ = extract_hcb(h4_tensors)
    for ordering in ("interleaved", "reordered"):
        op = build_qubit_hamiltonian(layer, ordering, 0.0)
        groups = hcb_to_groups(layer, ordering)
        assert sum_gap(op, group_union(groups)) < 1e-10


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("n_atoms", [4, 6, 8])
def test_groups_hold_every_layer_string_above_zero_tol(n_atoms, ordering):
    """Under the top pairing graph of the H4-H8 lines the three groups hold
    each off-diagonal layer string above ZERO_TOL, and every diagonal one,
    once and with its encoded coefficient; nothing else."""
    geometry = build_geometry(n_atoms, 1.5, "line")
    rotation = graph_rotation(distance_ranked_matchings(geometry.distances(), 1)[0])
    layer = extract_hcb(rotate_integrals(minimal_basis_integrals(geometry), rotation))[0]
    encoded = build_qubit_hamiltonian(layer, ordering, 0.0)
    want = {s: c for s, c in encoded.terms() if s.x_mask == 0 or abs(c) > ZERO_TOL}
    assert dict(group_union(hcb_to_groups(layer, ordering)).terms()) == want


def test_full_tensors_do_not_fit_the_paired_groups(h4_tensors):
    with pytest.raises(ValueError, match="does not fit any paired-layer group"):
        hcb_to_groups(h4_tensors)


@pytest.mark.parametrize("size,fits", [(1e-13, False), (ZERO_TOL, True)])
def test_an_entry_outside_the_layer_fits_only_up_to_zero_tol(h4_tensors, size, fits):
    """An off-layer hopping h[0,1] above ZERO_TOL raises, naming the entry;
    one at ZERO_TOL gives no strings, as the encoder gives none."""
    layer = extract_hcb(h4_tensors)[0]
    h = layer.one_body.copy()
    h[0, 1] = h[1, 0] = size
    padded = IntegralTensors(layer.n_orbitals, h, layer.two_body, layer.e_nuc)
    if not fits:
        with pytest.raises(ValueError, match=r"entry h\[0, 1\] = 1\.000e-13 does not fit"):
            hcb_to_groups(padded)
        return
    for got, want in zip(hcb_to_groups(padded), hcb_to_groups(layer)):
        assert membership_digest([got]) == membership_digest([want])


def _assert_groups_are_the_jw_route(layer, ordering):
    """Masks and coefficient bits of the closed-form groups equal the JW
    oracle's, the ZERO_TOL cut included."""
    for got, want in zip(hcb_to_groups(layer, ordering), jw_layer_groups(layer, ordering)):
        assert np.array_equal(got.op.x, want.x)
        assert np.array_equal(got.op.z, want.z)
        assert np.array_equal(got.op.coeffs, want.coeffs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       ordering=st.sampled_from(ORDERINGS), rotate=st.booleans(),
       e_nuc=st.sampled_from([0.0, 0.7]))
def test_closed_form_groups_are_the_jw_route(n, seed, ordering, rotate, e_nuc):
    """Random paired tensors, as drawn or under a random real rotation:
    their off-diagonal strings cancel pairwise to residues that the
    ZERO_TOL cut drops, as on the molecular lines."""
    tensors = random_tensors(n, seed, e_nuc=e_nuc)
    if rotate:
        tensors = rotate_integrals(tensors, random_orthogonal_rotation(n, seed))
    _assert_groups_are_the_jw_route(extract_hcb(tensors)[0], ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h4", "h6", "h8"])
def test_protocol_groups_are_the_jw_route_on_the_lines(request, system, ordering):
    """Every layer of a protocol run over the top pairing graphs and two
    random rotations, the first layer carrying e_nuc."""
    tensors = request.getfixturevalue(f"{system}_tensors")
    n = tensors.n_orbitals
    distances = request.getfixturevalue(f"{system}_geometry").distances()
    rotations = [graph_rotation(g) for g in distance_ranked_matchings(distances, 2)]
    rotations += [random_orthogonal_rotation(n, seed) for seed in (1, 2)]
    residual = tensors
    for rotation in rotations:
        layer, rest = extract_hcb(rotate_integrals(residual, rotation))
        _assert_groups_are_the_jw_route(layer, ordering)
        residual = rotate_integrals(rest, rotation.transpose())


def test_protocol_runs_without_the_encoder(monkeypatch, h8_tensors, h8_ground, h8_rotations):
    """hcb_to_groups writes the groups from the tensors: with every encoder
    entry point raising, the H8 protocol still completes."""
    def refuse(*args, **kwargs):
        raise AssertionError("the protocol called the Jordan-Wigner encoder")

    for name in ("jw_encode", "_encode_batches", "build_qubit_hamiltonian"):
        monkeypatch.setattr(encoding, name, refuse)
    exact, state = h8_ground
    records = run_protocol(h8_tensors, [*h8_rotations, random_orthogonal_rotation(8, 3)], state)
    assert [len(r.groups) for r in records] == [3, 3, 3]
    assert abs(records[-1].cumulative + records[-1].residual_expectation - exact) < 1e-9


# sha256 of the three groups' labels, kinds and members (masks, coefficient
# bits) of the layer under the top distance-ranked pairing graph and under a
# seeded random rotation
PINNED_LAYER_GROUPS = [
    ("h4", "graph", "interleaved", (37, 12, 12),
     "4ac8484e8b017506606ecb7f1c3b39929dd11e0f91c0427c6cffb528fda57417"),
    ("h4", "graph", "reordered", (37, 12, 12),
     "b3de72cc563da813d7439774827fb7d4f4ad091ab061b104810ecd73fc87643f"),
    ("h4", "random", "interleaved", (37, 12, 12),
     "20117802337546713bfe3e661a26c7a89ed894400c8647928011d10474319f41"),
    ("h4", "random", "reordered", (37, 12, 12),
     "8a6a7d7cfed647fc43359c0c2200350ca4a3212b5ad08156e84833d9f8507fa8"),
    ("h6", "graph", "interleaved", (79, 30, 30),
     "12a2e6c7d9b0fca3aaee787e151b9cff9c8b129a4b3581fc250094aafa7960d8"),
    ("h6", "graph", "reordered", (79, 30, 30),
     "98fc191858b4c2f87341fca5a3e242fd8a7a8a84fda2cacaa16df426058f79c7"),
    ("h6", "random", "interleaved", (79, 30, 30),
     "7313b02fe41b7a094affbb6dc932554cc5d87fd91f82aa87bec9c0636c715a48"),
    ("h6", "random", "reordered", (79, 30, 30),
     "f83f8b3a2f1d19e970ed6d1658ed041e9db1044dc8ed47781eac1fc0cab033c0"),
]


@pytest.mark.parametrize("system,rotation,ordering,sizes,digest", PINNED_LAYER_GROUPS,
                         ids=["-".join(p[:3]) for p in PINNED_LAYER_GROUPS])
def test_layer_groups_are_pinned(request, system, rotation, ordering, sizes, digest):
    tensors = request.getfixturevalue(f"{system}_tensors")
    n = tensors.n_orbitals
    if rotation == "graph":
        coords = np.asarray(request.getfixturevalue(f"{system}_geometry").coordinates)
        distances = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        r = graph_rotation(distance_ranked_matchings(distances, 1)[0])
    else:
        r = random_orthogonal_rotation(n, 3)
    groups = hcb_to_groups(extract_hcb(rotate_integrals(tensors, r))[0], ordering)
    assert tuple(len(group.members) for group in groups) == sizes
    assert membership_digest(groups) == digest


def test_groups_internally_commute_h6(h6_tensors):
    groups = hcb_to_groups(extract_hcb(h6_tensors)[0])
    for group in groups:
        assert not anticommutation_matrix(group.op).any()
    # off-diagonal families carry no Z-type strings
    for group in groups[1:]:
        assert np.all(group.op.x != 0)


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
    state = _random_block_state(n, n - 1, 1, seed)
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
    one_rdm, two_rdm = spin_rdms(state, ordering)[:2]
    assert abs(rdm_expectation(tensors, one_rdm, two_rdm)
               - expectation(state, op)) < 1e-12


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_rdm_contraction_matches_pauli_path_on_random_state(h4_tensors, ordering):
    """The full-space random state mixes every particle number."""
    state = _random_state(8, 5)
    op = build_qubit_hamiltonian(h4_tensors, ordering, 0.0)
    one_rdm, two_rdm = spin_rdms(state, ordering)[:2]
    assert abs(rdm_expectation(h4_tensors, one_rdm, two_rdm)
               - expectation(state, op)) < 1e-12


def test_protocol_residual_matches_pauli_path(h4_tensors, h4_rotations, h4_ground):
    _, state = h4_ground
    records = run_protocol(h4_tensors, h4_rotations, state)
    residual = h4_tensors
    for rotation, record in zip(h4_rotations, records):
        _, rest = extract_hcb(rotate_integrals(residual, rotation))
        residual = rotate_integrals(rest, rotation.transpose())
        pauli = expectation(state, build_qubit_hamiltonian(residual, "interleaved", 0.0))
        assert abs(record.residual_expectation - pauli) < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       n_rotations=st.integers(1, 3), ordering=st.sampled_from(ORDERINGS),
       data=st.data())
def test_telescoping_identity_property(n, seed, n_rotations, ordering, data):
    tensors = random_tensors(n, seed, e_nuc=0.5)
    rotations = [random_orthogonal_rotation(n, seed=seed + k)
                 for k in range(n_rotations)]
    n_alpha, n_beta = data.draw(st.tuples(st.integers(0, n), st.integers(0, n)))
    state = _random_block_state(n, n_alpha, n_beta, seed, ordering)
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
    before = rdm_expectation(tensors, *spin_rdms(state, ordering)[:2])
    after = rdm_expectation(rotate_integrals(tensors, rotation),
                            *spin_rdms(rotated, ordering)[:2])
    assert abs(after - before) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       ordering=st.sampled_from(ORDERINGS), data=st.data())
def test_spin_rdms_match_the_spin_orbital_oracle(n, seed, ordering, data):
    """Random complex states in one (N_alpha, N_beta) block or spread over
    several, and their real parts, against the spin-orbital oracle and the
    full-space builder."""
    blocks = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                                min_size=1, max_size=3, unique=True))
    weights = np.random.default_rng(seed).normal(size=len(blocks))
    amps = sum(w * _random_block_state(n, a, b, seed + i, ordering).amplitudes
               for i, (w, (a, b)) in enumerate(zip(weights, blocks)))
    complex_state = Statevector(2 * n, amps / np.linalg.norm(amps))
    real_state = Statevector(2 * n, amps.real / np.linalg.norm(amps.real))
    for state in (complex_state, real_state):
        got = spin_rdms(state, ordering)
        for oracle in (spin_orbital_rdms, full_space_spin_rdms):
            for array, want in zip(got, oracle(state, ordering)):
                assert array.shape == (n,) * array.ndim
                assert array.dtype == complex
                assert np.max(np.abs(array - want)) <= 1e-13


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6", "h8"])
def test_spin_rdms_match_the_full_space_builder_on_ground_states(request, system, ordering):
    """The real path on each ground state, and the complex path on a
    global-phase copy of it, within 1e-13 of the full-space builder."""
    tensors = request.getfixturevalue(f"{system}_tensors")
    if ordering == "interleaved":
        _, state = request.getfixturevalue(f"{system}_ground")
    else:
        op = build_qubit_hamiltonian(tensors, ordering)
        _, state = ground_state(op, tensors.n_orbitals, ordering=ordering)
    assert not np.any(state.amplitudes.imag)
    phased = Statevector(state.n_qubits, np.exp(0.7j) * state.amplitudes)
    for psi in (state, phased):
        for got, want in zip(spin_rdms(psi, ordering), full_space_spin_rdms(psi, ordering)):
            assert got.dtype == complex
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_spin_rdms_match_the_full_space_builder_on_an_odd_electron_ground_state(ordering):
    """The H5 line's ground state sits in the (3, 2) block, where the
    alpha and beta string tables differ in size."""
    tensors = minimal_basis_integrals(build_geometry(5, 1.5, "line"))
    _, state = ground_state(build_qubit_hamiltonian(tensors, ordering), 5, ordering)
    assert spin_blocks(state, ordering) == [(3, 2)]
    for got, want in zip(spin_rdms(state, ordering), full_space_spin_rdms(state, ordering)):
        assert got.dtype == complex
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


def test_rdm_checks_reject_corrupted_pairs(h4_ground):
    _, state = h4_ground
    one_rdm, two_rdm, _ = spin_rdms(state)
    support = np.flatnonzero(state.amplitudes)
    psi = state.amplitudes[support]
    _check_rdms(support, psi, one_rdm, two_rdm)
    skewed = one_rdm.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ValueError, match="1-RDM Hermiticity gap"):
        _check_rdms(support, psi, skewed, two_rdm)
    with pytest.raises(ValueError, match="1-RDM trace vs <N> gap"):
        _check_rdms(support, psi, 1.01 * one_rdm, two_rdm)
    with pytest.raises(ValueError, match="2-RDM trace"):
        _check_rdms(support, psi, one_rdm, 1.01 * two_rdm)


def test_rdm_expectation_rejects_mismatched_shapes(h4_tensors):
    with pytest.raises(ValueError, match="do not match N=4"):
        rdm_expectation(h4_tensors, np.zeros((3, 3)), np.zeros((3,) * 4))


# ---------------------------------------------------------------------------
# the group values from the RDMs against the rotated-state Pauli route,
# which stays the oracle


def _assert_values_match_pauli_route(tensors, rotations, state, ordering):
    n = tensors.n_orbitals
    for record in run_protocol(tensors, rotations, state, ordering):
        rotated = apply_circuit(state, rotation_circuit(record.rotation, n, ordering))
        pauli = [expectation(rotated, group.op) for group in record.groups]
        assert np.max(np.abs(np.subtract(record.contributions, pauli))) < 1e-12


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("system", ["h2", "h4", "h6"])
def test_group_values_match_the_pauli_route_on_ground_states(request, system, ordering):
    tensors = request.getfixturevalue(f"{system}_tensors")
    n = tensors.n_orbitals
    coords = np.asarray(request.getfixturevalue(f"{system}_geometry").coordinates)
    distances = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    rotations = [graph_rotation(g) for g in distance_ranked_matchings(distances, 1)]
    rotations += [random_orthogonal_rotation(n, seed) for seed in (3, 4)]
    _, state = ground_state(build_qubit_hamiltonian(tensors, ordering), n, ordering)
    _assert_values_match_pauli_route(tensors, rotations, state, ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_group_values_match_the_pauli_route_on_a_pair_ansatz_state(
        h4_tensors, h4_graphs, h4_rotations, ordering):
    ansatz = build_pair_ansatz(list(h4_graphs[:2]), ordering)
    params = np.random.default_rng(5).uniform(-1, 1, ansatz.n_parameters)
    rotations = [*h4_rotations, random_orthogonal_rotation(4, 6)]
    _assert_values_match_pauli_route(h4_tensors, rotations, ansatz.prepare(params),
                                     ordering)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       ordering=st.sampled_from(ORDERINGS), data=st.data())
def test_group_values_match_the_pauli_route_on_random_block_states(n, seed, ordering, data):
    n_alpha, n_beta = data.draw(st.tuples(st.integers(0, n), st.integers(0, n)))
    tensors = random_tensors(n, seed, e_nuc=0.5)
    rotations = [random_orthogonal_rotation(n, seed + k) for k in range(2)]
    state = _random_block_state(n, n_alpha, n_beta, seed, ordering)
    _assert_values_match_pauli_route(tensors, rotations, state, ordering)


def test_protocol_rejects_a_state_spanning_two_blocks(h2_tensors):
    amps = np.zeros(16)
    amps[0b0011] = amps[0b0101] = np.sqrt(0.5)  # interleaved: (1, 1) and (2, 0)
    with pytest.raises(ValueError, match=r"blocks \[\(1, 1\), \(2, 0\)\]"):
        run_protocol(h2_tensors, [identity_rotation(2)], Statevector(4, amps))


def test_protocol_raises_on_a_wrongly_rotated_rdm(monkeypatch, h4_tensors, h4_rotations,
                                                 h4_ground):
    """RDMs rotated by R^T instead of R break cumulative + residual = <H>."""
    rotate = hcb.rotate_array
    monkeypatch.setattr(hcb, "rotate_array", lambda array, r: rotate(array, r.T))
    with pytest.raises(ValueError, match=r"^step 1: cumulative \+ residual misses <H> by"):
        run_protocol(h4_tensors, h4_rotations[1:], h4_ground[1])
