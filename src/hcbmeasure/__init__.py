"""Measurement-reduction toolkit for paired-orbital quantum chemistry.

The package builds minimal-basis hydrogen-chain Hamiltonians, splits them
into hard-core-boson layers extracted under orbital rotations, groups the
remaining Pauli terms for simultaneous measurement, estimates shot budgets,
and simulates the whole pipeline on a dense statevector backend.
"""

__version__ = "0.1.0"

from .circuits import Circuit, Gate
from .encoding import ORDERINGS, build_qubit_hamiltonian, jw_encode, spin_orbital_index
from .experiments import ExperimentConfig, config_from_dict, load_config
from .fcidump import read_fcidump, read_fcidump_header, write_fcidump
from .geometry import Geometry, build_geometry, from_xyz, to_xyz
from .grouping import (
    GroupingResult,
    ShotEstimate,
    depth_overhead,
    estimate_shots,
    lf_grouping,
    protocol_shot_estimate,
    rlf_grouping,
    si_grouping,
)
from .groups import (
    CommutingGroup,
    conjugate_pauli,
    diagonalized_members,
    diagonalizing_circuit,
)
from .hcb import (
    ProtocolRecord,
    extract_hcb,
    hcb_to_groups,
    records_to_csv,
    run_protocol,
)
from .integrals import (
    IntegralTensors,
    chemist_to_internal,
    internal_to_chemist,
    minimal_basis_integrals,
    rdm_expectation,
)
from .paulis import PauliString, PauliSum, anticommutation_matrix
from .rotations import (
    OrbitalRotation,
    PairingGraph,
    distance_ranked_matchings,
    givens_rotation,
    graph_rotation,
    identity_rotation,
    parse_graph,
    perfect_matchings,
    random_orthogonal_rotation,
    rotate_integrals,
)
from .simulator import (
    PairAnsatz,
    SampledEnergies,
    Statevector,
    apply_circuit,
    build_pair_ansatz,
    expectation,
    finite_sample_experiment,
    ground_state,
    optimize_ansatz,
    pauli_expectations,
    rotation_circuit,
    sample_group,
    spin_summed_rdms,
)

__all__ = [
    "__version__",
    # geometry / integrals / interchange
    "Geometry", "build_geometry", "from_xyz", "to_xyz",
    "IntegralTensors", "minimal_basis_integrals",
    "chemist_to_internal", "internal_to_chemist", "rdm_expectation",
    "read_fcidump", "write_fcidump", "read_fcidump_header",
    # rotations
    "OrbitalRotation", "PairingGraph", "parse_graph", "identity_rotation",
    "givens_rotation", "graph_rotation", "random_orthogonal_rotation",
    "rotate_integrals", "perfect_matchings", "distance_ranked_matchings",
    # qubit encoding / Pauli algebra
    "ORDERINGS", "spin_orbital_index", "jw_encode", "build_qubit_hamiltonian",
    "PauliString", "PauliSum", "anticommutation_matrix",
    # paired-layer extraction and the iterative protocol
    "extract_hcb", "hcb_to_groups",
    "ProtocolRecord", "run_protocol", "records_to_csv",
    # commuting groups, baselines, shots, depth
    "CommutingGroup", "conjugate_pauli",
    "diagonalizing_circuit", "diagonalized_members",
    "GroupingResult", "lf_grouping", "rlf_grouping",
    "si_grouping", "ShotEstimate", "estimate_shots", "protocol_shot_estimate",
    "depth_overhead",
    # circuits and simulation
    "Gate", "Circuit", "Statevector", "apply_circuit",
    "rotation_circuit", "PairAnsatz", "build_pair_ansatz", "optimize_ansatz",
    "expectation", "pauli_expectations", "ground_state", "sample_group",
    "SampledEnergies", "finite_sample_experiment", "spin_summed_rdms",
    # experiment harness
    "ExperimentConfig", "config_from_dict", "load_config",
]
