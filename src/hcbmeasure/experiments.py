"""Experiment harness: configuration schema and the command implementations.

The CLI in :mod:`hcbmeasure.cli` is a thin argparse wrapper around the
``cmd_*`` functions here.  Each command takes a validated
:class:`ExperimentConfig`, writes CSV/JSON files into the output directory,
and returns a JSON-serializable summary dictionary.  Every command is
deterministic given config plus seeds: identical inputs produce
byte-identical output files (fixed float formats, sorted JSON keys, no
timestamps; batch sweeps merge worker results in job order).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .encoding import build_qubit_hamiltonian, check_ordering
from .fcidump import read_fcidump, read_fcidump_header, write_fcidump
from .geometry import Geometry, build_geometry, from_xyz, to_xyz
from .grouping import (
    depth_overhead,
    estimate_shots,
    lf_grouping,
    protocol_shot_estimate,
    rlf_grouping,
    si_grouping,
)
from .hcb import ProtocolRecord, records_to_csv, run_protocol
from .integrals import IntegralTensors, minimal_basis_integrals
from .paulis import PauliString, PauliSum
from .rotations import (
    OrbitalRotation,
    distance_ranked_matchings,
    graph_rotation,
    parse_graph,
    random_orthogonal_rotation,
)
from .simulator import (
    Statevector,
    apply_circuit,
    build_pair_ansatz,
    exact_plan_energy,
    finite_sample_experiment,
    ground_state,
    ground_state_and_ansatz_optimum,
    rotation_circuit,
)

__all__ = [
    "ExperimentConfig",
    "SystemSpec",
    "RotationSpec",
    "AnsatzSpec",
    "BatchSpec",
    "ResolvedSystem",
    "load_config",
    "config_from_dict",
    "resolve_system",
    "build_rotations",
    "prepare_scenario_state",
    "cmd_integrals",
    "cmd_eigen",
    "cmd_decompose",
    "cmd_groups",
    "cmd_shots",
    "cmd_sample",
    "cmd_depth",
    "COMMANDS",
]

# Cutoff that reproduces the published per-system Pauli-term counts; the
# working default stays at the much tighter value in ExperimentConfig.
CALIBRATED_TERM_CUTOFF = 5e-8
# |residual| (Ha) a batch sweep counts as reaching the target.
BATCH_ERROR_TARGET = 2e-3

_FLOAT = "%.12e"


# ---------------------------------------------------------------------------
# configuration schema


def _check_min(key: str, value: int | None, floor: int) -> None:
    """Raise ValueError, naming the key, unless the value is unset or at
    least floor: 0 for counts and seeds (NumPy takes no negative seed)."""
    if value is not None and value < floor:
        raise ValueError(f"{key} must be >= {floor}, got {value}")


@dataclass(frozen=True)
class SystemSpec:
    """Where the molecular tensors come from.

    Exactly one source wins, in precedence order: ``fcidump`` path,
    ``xyz`` path, or a generated hydrogen arrangement
    (``shape``/``n_atoms``/``spacing``/``seed``).
    """

    shape: str = "line"
    n_atoms: int = 4
    spacing: float = 1.5
    seed: int | None = None
    xyz: str | None = None
    fcidump: str | None = None
    orbital_mode: str = "lowdin"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"system.spacing must be finite and positive, got {self.spacing}")
        _check_min("system.seed", self.seed, 0)

    def label(self) -> str:
        if self.fcidump:
            return f"fcidump:{Path(self.fcidump).name}"
        if self.xyz:
            return f"xyz:{Path(self.xyz).name}"
        tag = f"H{self.n_atoms}-{self.shape}-{self.spacing:g}A"
        if self.shape == "random":
            tag += f"-seed{self.seed}"
        return tag


@dataclass(frozen=True)
class RotationSpec:
    """Rotation set: explicit graphs, auto-ranked matchings, random extras.

    ``graphs`` are edge-list strings like ``"0-1,2-3"``; ``auto_graphs``
    appends the top-K pairing graphs ranked by total edge length on the
    system geometry; ``random_count`` appends seeded random orthogonal
    rotations.  ``theta`` (radians) applies to every graph rotation.
    Unset, ``auto_graphs`` is 0 unless the section gives no other source
    and the system has a geometry; then it is min(3, (n-1)!!), the count
    of perfect matchings of n orbitals capped at 3 (see build_rotations).
    """

    graphs: tuple[str, ...] = ()
    theta: float = math.pi / 2.0
    auto_graphs: int | None = None
    random_count: int = 0
    random_seed: int = 0

    def __post_init__(self) -> None:
        for key in ("auto_graphs", "random_count", "random_seed"):
            _check_min(f"rotations.{key}", getattr(self, key), 0)


@dataclass(frozen=True)
class AnsatzSpec:
    """Scenario II reference-state recipe (variationally optimized)."""

    graphs: tuple[str, ...] = ()
    extra_pairs: tuple[str, ...] = ()
    restarts: int = 6
    seed: int = 11

    def __post_init__(self) -> None:
        _check_min("ansatz.restarts", self.restarts, 1)
        _check_min("ansatz.seed", self.seed, 0)


@dataclass(frozen=True)
class BatchSpec:
    """Free-geometry sweep: the whole config on ``count`` random geometries
    seeded from ``seed`` upward, each with ``random_rotations`` random
    rotations seeded from its seed * 1000 after the section's graphs."""

    count: int = 100
    seed: int = 3000
    random_rotations: int = 50

    def __post_init__(self) -> None:
        _check_min("batch.count", self.count, 1)
        _check_min("batch.seed", self.seed, 0)
        _check_min("batch.random_rotations", self.random_rotations, 0)


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec = field(default_factory=SystemSpec)
    ordering: str = "interleaved"
    scenario: str = "I"
    rotations: RotationSpec = field(default_factory=RotationSpec)
    epsilon: float = 1e-3
    repetitions: int = 100
    prune_threshold: float = 1e-12
    max_steps: int | None = None
    seed: int = 2024
    output_dir: str = "out"
    workers: int = 1
    sample_method: str = "si"
    infinite_shots: bool = False
    ansatz: AnsatzSpec | None = None
    batch: BatchSpec | None = None

    def __post_init__(self) -> None:
        check_ordering(self.ordering)
        if self.scenario not in ("I", "II"):
            raise ValueError(f"scenario must be 'I' or 'II', got {self.scenario!r}")
        if self.scenario == "II" and self.ansatz is None:
            raise ValueError("scenario II requires an 'ansatz' section")
        if self.scenario == "I" and self.ansatz is not None:
            raise ValueError("scenario I forbids an 'ansatz' section")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        _check_min("repetitions", self.repetitions, 1)
        _check_min("seed", self.seed, 0)
        if not self.prune_threshold >= 0:
            raise ValueError("prune_threshold must be >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 when given")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.sample_method not in ("si", "protocol"):
            raise ValueError(
                f"sample_method must be 'si' or 'protocol', got {self.sample_method!r}"
            )


def _checked(key: str, value, hint):
    """The config value as its field's type, or ValueError naming all three.

    Floats also accept ints and numeric strings (YAML 1.1 reads ``1e-3``
    as a string); ints accept ints only, never bools or strings.
    """
    options = typing.get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if hint is float and not isinstance(value, bool):
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif hint in (str, bool):
        if isinstance(value, hint):
            return value
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
            return tuple(value)
    expected = "list of str" if typing.get_origin(hint) is tuple else hint.__name__
    raise ValueError(
        f"config key {key!r} has value {value!r} ({type(value).__name__}), "
        f"expected {expected}"
    )


def _typed(cls, raw: dict, prefix: str = "") -> dict:
    """raw's values checked against the field types of dataclass cls."""
    hints = typing.get_type_hints(cls)
    return {name: _checked(prefix + name, value, hints[name])
            for name, value in raw.items()}


def _section(data: dict, key: str, cls):
    raw = data.get(key)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError(f"config section {key!r} must be a mapping")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {key!r} section: {sorted(unknown)}")
    return cls(**_typed(cls, raw, f"{key}."))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed mapping."""
    if not isinstance(data, dict):
        raise ValueError("config root must be a mapping")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    sections = ("system", "rotations", "ansatz", "batch")
    kwargs = _typed(ExperimentConfig,
                    {k: v for k, v in data.items() if k not in sections})
    system = _section(data, "system", SystemSpec)
    if system is not None:
        kwargs["system"] = system
    rotations = _section(data, "rotations", RotationSpec)
    if rotations is not None:
        kwargs["rotations"] = rotations
    kwargs["ansatz"] = _section(data, "ansatz", AnsatzSpec)
    kwargs["batch"] = _section(data, "batch", BatchSpec)
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration file."""
    with open(path) as handle:
        data = yaml.safe_load(handle)
    if data is None:
        data = {}
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# system / rotation / state resolution


@dataclass(frozen=True)
class ResolvedSystem:
    tensors: IntegralTensors
    n_electrons: int
    geometry: Geometry | None
    label: str


def resolve_system(config: ExperimentConfig) -> ResolvedSystem:
    """Produce integral tensors (and electron count) from the system spec."""
    spec = config.system
    if spec.fcidump:
        tensors = read_fcidump(spec.fcidump)
        header = read_fcidump_header(spec.fcidump)
        n_electrons = header.get("NELEC", tensors.n_orbitals)
        return ResolvedSystem(tensors, n_electrons, None, spec.label())
    if spec.xyz:
        geometry = from_xyz(Path(spec.xyz).read_text())
    else:
        geometry = build_geometry(spec.n_atoms, spec.spacing, spec.shape, spec.seed)
    tensors = minimal_basis_integrals(geometry, mode=spec.orbital_mode)
    return ResolvedSystem(tensors, tensors.n_orbitals, geometry, spec.label())


def _matching_count(n: int) -> int:
    """(n-1)!!, the count of perfect matchings of n orbitals; 0 for odd n."""
    return math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0


def build_rotations(
    config: ExperimentConfig, system: ResolvedSystem
) -> list[OrbitalRotation]:
    """Assemble the rotation sequence from the rotations section."""
    spec = config.rotations
    n = system.tensors.n_orbitals
    rotations: list[OrbitalRotation] = []
    for text in spec.graphs:
        rotations.append(graph_rotation(parse_graph(text, n), spec.theta))
    auto_graphs = spec.auto_graphs
    if auto_graphs is None:
        # an otherwise empty set takes the top ranked matchings, if any exist
        bare = not spec.graphs and not spec.random_count
        auto_graphs = min(3, _matching_count(n)) if bare and system.geometry is not None else 0
    if auto_graphs > 0:
        if system.geometry is None:
            raise ValueError("auto_graphs needs a geometry-backed system, not FCIDUMP")
        ranked = distance_ranked_matchings(system.geometry.distances(), auto_graphs)
        rotations.extend(graph_rotation(g, spec.theta) for g in ranked)
    for k in range(spec.random_count):
        rotations.append(random_orthogonal_rotation(n, spec.random_seed + k))
    if not rotations:
        raise ValueError("the rotation set is empty; give graphs, auto_graphs, "
                         "or random_count")
    if config.max_steps is not None:
        rotations = rotations[: config.max_steps]
    return rotations


def prepare_scenario_state(
    config: ExperimentConfig, system: ResolvedSystem, op: PauliSum
) -> tuple[Statevector, dict]:
    """Scenario I: exact ground state.  Scenario II: optimized pair ansatz."""
    if config.scenario == "I":
        exact_energy, exact_state = ground_state(op, system.n_electrons,
                                                 config.ordering)
        return exact_state, {"scenario": "I", "exact_energy": exact_energy,
                             "state_energy": exact_energy}
    spec = config.ansatz
    assert spec is not None  # enforced by config validation
    n = system.tensors.n_orbitals
    graphs = [parse_graph(text, n) for text in spec.graphs]
    if not graphs:
        raise ValueError("scenario II ansatz needs at least one graph")
    extras = [edge for text in spec.extra_pairs
              for edge in parse_graph(text, n).edges]
    ansatz = build_pair_ansatz(graphs, config.ordering, extra_pairs=extras)
    if ansatz.n_electrons != system.n_electrons:
        raise ValueError(
            f"the scenario II ansatz prepares {ansatz.n_electrons} electrons "
            f"(two per edge of its first graph), the system has {system.n_electrons}")
    (exact_energy, _), (params, energy) = ground_state_and_ansatz_optimum(
        ansatz, op, restarts=spec.restarts, seed=spec.seed)
    return ansatz.prepare(params), {
        "scenario": "II",
        "exact_energy": exact_energy,
        "state_energy": energy,
        "ansatz_error": energy - exact_energy,
        "n_parameters": ansatz.n_parameters,
    }


# ---------------------------------------------------------------------------
# output helpers


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_integrals(config: ExperimentConfig) -> dict:
    """Generate or ingest tensors; write normalized FCIDUMP + JSON metadata."""
    out = _out_dir(config)
    system = resolve_system(config)
    fcidump_path = out / "integrals.fcidump"
    write_fcidump(system.tensors, fcidump_path, n_electrons=system.n_electrons)
    metadata = {
        "system": system.label,
        "n_orbitals": system.tensors.n_orbitals,
        "n_electrons": system.n_electrons,
        "e_nuc": system.tensors.e_nuc,
        "basis": system.tensors.basis,
        "fcidump": fcidump_path.name,
    }
    if system.geometry is not None:
        (out / "geometry.xyz").write_text(to_xyz(system.geometry))
        metadata["geometry_file"] = "geometry.xyz"
    _write_json(out / "integrals.json", metadata)
    return metadata


def cmd_eigen(config: ExperimentConfig) -> dict:
    """Exact ground energy of the qubit Hamiltonian in the electron sector
    (solved on its spin block, see simulator.ground_state)."""
    out = _out_dir(config)
    system = resolve_system(config)
    op = build_qubit_hamiltonian(system.tensors, config.ordering,
                                 config.prune_threshold)
    energy, _ = ground_state(op, system.n_electrons, config.ordering)
    payload = {
        "system": system.label,
        "ordering": config.ordering,
        "n_qubits": op.n_qubits,
        "n_terms": len(op),
        "n_electrons": system.n_electrons,
        "ground_energy": energy,
    }
    _write_json(out / "eigen.json", payload)
    return payload


def _records_payload(records: list[ProtocolRecord]) -> list[dict]:
    return [
        {
            "step": r.step,
            "rotation": r.rotation.label,
            "contributions": list(r.contributions),
            "cumulative": r.cumulative,
            "residual_expectation": r.residual_expectation,
            "abs_error": r.abs_error,
        }
        for r in records
    ]


def _scenario_protocol(config: ExperimentConfig):
    """(system, op, state, state_info, records): the config's system, its
    qubit Hamiltonian, the scenario state and the protocol's records."""
    system = resolve_system(config)
    op = build_qubit_hamiltonian(system.tensors, config.ordering,
                                 config.prune_threshold)
    rotations = build_rotations(config, system)
    state, state_info = prepare_scenario_state(config, system, op)
    records = run_protocol(system.tensors, rotations, state, config.ordering)
    return system, op, state, state_info, records


def cmd_decompose(config: ExperimentConfig) -> dict:
    """Run the iterative protocol; emit the error curve + step records.

    With a ``batch`` section the command instead sweeps randomly placed
    systems (one per seed) and emits a distribution summary.
    """
    if config.batch is not None:
        return _cmd_decompose_batch(config)
    out = _out_dir(config)
    system, _, _, state_info, records = _scenario_protocol(config)
    (out / "error_curve.csv").write_text(records_to_csv(records))
    payload = {
        "system": system.label,
        "ordering": config.ordering,
        **state_info,
        "n_steps": len(records),
        "final_abs_error": records[-1].abs_error,
        "best_step": min(records, key=lambda r: r.abs_error).step,
        "best_abs_error": min(r.abs_error for r in records),
        "records": _records_payload(records),
    }
    _write_json(out / "protocol.json", payload)
    return payload


def _free_geometry_job(config: ExperimentConfig) -> dict:
    """One free-geometry protocol run (worker-pool entry point)."""
    records = _scenario_protocol(config)[-1]
    best = min(records, key=lambda r: r.abs_error)
    reaching = [r.step for r in records if r.abs_error <= BATCH_ERROR_TARGET]
    return {
        "seed": config.system.seed,
        "n_rotations": len(records),
        "best_step": best.step,
        "best_abs_error": best.abs_error,
        "steps_to_target": reaching[0] if reaching else -1,
        "final_abs_error": records[-1].abs_error,
    }


def _cmd_decompose_batch(config: ExperimentConfig) -> dict:
    """Distribution of protocol accuracy over randomly placed systems."""
    out = _out_dir(config)
    batch = config.batch
    assert batch is not None
    spec, rotations = config.system, config.rotations
    if spec.fcidump or spec.xyz:
        raise ValueError("batch mode generates its own random geometries; "
                         "use a shape-based system section")
    per_seed = [name for name, given in (
        ("system.seed", spec.seed is not None),
        ("rotations.random_count", rotations.random_count != 0),
        ("rotations.random_seed", rotations.random_seed != 0)) if given]
    if per_seed:
        raise ValueError(f"batch mode sets {', '.join(per_seed)} per seed; use "
                         "batch.seed and batch.random_rotations instead")
    # default: the top 5 pairing graphs, or all (n-1)!! when there are
    # fewer (none for odd n); an explicit auto_graphs, 0 included, wins
    auto_graphs = rotations.auto_graphs
    if auto_graphs is None:
        auto_graphs = min(5, _matching_count(spec.n_atoms))
    if not (rotations.graphs or auto_graphs or batch.random_rotations):
        raise ValueError("the rotation set is empty; give graphs, auto_graphs "
                         "or batch random_rotations")
    rotations = dataclasses.replace(rotations, auto_graphs=auto_graphs,
                                    random_count=batch.random_rotations)
    jobs = [
        dataclasses.replace(
            config, batch=None,
            system=dataclasses.replace(spec, shape="random", seed=seed),
            rotations=dataclasses.replace(rotations, random_seed=seed * 1000))
        for seed in range(batch.seed, batch.seed + batch.count)
    ]
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            results = list(pool.map(_free_geometry_job, jobs))
    else:
        results = [_free_geometry_job(job) for job in jobs]

    rows = [
        f"{r['seed']},{r['n_rotations']},{r['best_step']},"
        f"{_FLOAT % r['best_abs_error']},{r['steps_to_target']},"
        f"{_FLOAT % r['final_abs_error']}"
        for r in results
    ]
    _write_csv(out / "batch.csv",
               "seed,n_rotations,best_step,best_abs_error,steps_to_target,"
               "final_abs_error", rows)

    best_errors = np.array([r["best_abs_error"] for r in results])
    best_steps = np.array([r["best_step"] for r in results])
    reached = best_errors <= BATCH_ERROR_TARGET

    def stats(mask: np.ndarray) -> dict:
        if not np.any(mask):
            return {"count": 0}
        return {
            "count": int(np.sum(mask)),
            "mean_best_error": float(np.mean(best_errors[mask])),
            "max_best_error": float(np.max(best_errors[mask])),
            "mean_best_step": float(np.mean(best_steps[mask])),
            "std_best_step": float(np.std(best_steps[mask])),
            "mean_groups": float(np.mean(3 * best_steps[mask])),
            "std_groups": float(np.std(3 * best_steps[mask])),
        }

    payload = {
        "system": f"H{spec.n_atoms}-random",
        "batch_count": batch.count,
        "error_target": BATCH_ERROR_TARGET,
        "unfiltered": stats(np.ones(len(results), dtype=bool)),
        "filtered": stats(reached),
        "reached_target_fraction": float(np.mean(reached)),
    }
    _write_json(out / "batch_summary.json", payload)
    return payload


def cmd_groups(config: ExperimentConfig) -> dict:
    """Group-count table: term counts, LF/RLF/SI baselines, protocol count."""
    out = _out_dir(config)
    system = resolve_system(config)
    # prune(a).prune(b) == prune(max(a, b)): one encoding serves both counts
    encoded = build_qubit_hamiltonian(
        system.tensors, config.ordering,
        min(config.prune_threshold, CALIBRATED_TERM_CUTOFF))
    op = encoded.prune(config.prune_threshold)
    op_calibrated = encoded.prune(CALIBRATED_TERM_CUTOFF)
    rotations = build_rotations(config, system)
    counts = {
        f"terms(prune={config.prune_threshold:g})": len(op),
        f"terms(prune={config.prune_threshold:g},no-identity)":
            len(op) - (1 if PauliString(op.n_qubits) in op else 0),
        f"terms(prune={CALIBRATED_TERM_CUTOFF:g})": len(op_calibrated),
        "LF": lf_grouping(op).group_count,
        "RLF": rlf_grouping(op).group_count,
        "SI": si_grouping(op).group_count,
        "protocol": 3 * len(rotations),
    }
    rows = [f"{name},{value}" for name, value in counts.items()]
    _write_csv(out / "groups.csv", "method,groups", rows)
    payload = {"system": system.label, "ordering": config.ordering,
               "n_steps": len(rotations), **counts}
    _write_json(out / "groups.json", payload)
    return payload


def cmd_shots(config: ExperimentConfig) -> dict:
    """Shot-estimate table across grouping methods on the scenario state."""
    out = _out_dir(config)
    system, op, state, state_info, records = _scenario_protocol(config)

    methods = {
        "LF": estimate_shots(lf_grouping(op), state, config.epsilon),
        "RLF": estimate_shots(rlf_grouping(op), state, config.epsilon),
        "SI": estimate_shots(si_grouping(op), state, config.epsilon),
        f"protocol-scenario-{config.scenario}": protocol_shot_estimate(
            records, state, config.epsilon),
    }
    rows = [f"{name},{len(est.per_group)},{_FLOAT % est.total}"
            for name, est in methods.items()]
    _write_csv(out / "shots.csv", "method,groups,total_shots", rows)
    for name, est in methods.items():
        safe = name.replace("/", "-")
        (out / f"shots_{safe}.csv").write_text(est.to_csv())
    payload = {
        "system": system.label,
        "epsilon": config.epsilon,
        **state_info,
        "totals": {name: est.total for name, est in methods.items()},
    }
    _write_json(out / "shots.json", payload)
    return payload


def _sampling_plan(
    config: ExperimentConfig, system: ResolvedSystem, op: PauliSum,
    state: Statevector,
) -> list:
    """(group, state, shots) rows of the configured sampling method."""
    if config.sample_method == "si":
        grouping = si_grouping(op)
        estimate = estimate_shots(grouping, state, config.epsilon)
        return [(group, state, shots)
                for group, shots in zip(grouping.groups, estimate.per_group)]
    rotations = build_rotations(config, system)
    records = run_protocol(system.tensors, rotations, state, config.ordering)
    estimate = protocol_shot_estimate(records, state, config.epsilon)
    plan = []
    index = 0
    n = system.tensors.n_orbitals
    for record in records:
        rotated = apply_circuit(
            state, rotation_circuit(record.rotation, n, config.ordering))
        for group in record.groups:
            plan.append((group, rotated, estimate.per_group[index]))
            index += 1
    return plan


def cmd_sample(config: ExperimentConfig) -> dict:
    """Finite-shot experiment: per-repetition energies plus error summary.

    ``infinite_shots: true`` replaces sampling with exact expectations
    (a zero-error reference run with the same output shape).
    """
    out = _out_dir(config)
    system = resolve_system(config)
    op = build_qubit_hamiltonian(system.tensors, config.ordering,
                                 config.prune_threshold)
    state, state_info = prepare_scenario_state(config, system, op)
    plan = _sampling_plan(config, system, op, state)

    if config.infinite_shots:
        exact = exact_plan_energy(plan)
        energies = np.full(config.repetitions, exact)
        errors = np.zeros(config.repetitions)
        total_shots = 0
        exact_reference = mean_energy = exact  # np.mean of the copies can miss it by an ulp
    else:
        result = finite_sample_experiment(plan, repetitions=config.repetitions,
                                          seed=config.seed)
        energies = result.energies
        errors = result.errors
        total_shots = int(result.total_shots)
        exact_reference = result.exact
        mean_energy = float(np.mean(energies))

    rows = [f"{k},{_FLOAT % energies[k]},{_FLOAT % errors[k]}"
            for k in range(len(energies))]
    _write_csv(out / "sample.csv", "repetition,energy,abs_error", rows)
    payload = {
        "system": system.label,
        "method": config.sample_method,
        "epsilon": config.epsilon,
        "repetitions": config.repetitions,
        "seed": config.seed,
        "infinite_shots": config.infinite_shots,
        "total_shots": total_shots,
        "exact_reference": float(exact_reference),
        **state_info,
        "mean_energy": mean_energy,
        "mean_abs_error": float(np.mean(errors)),
        "max_abs_error": float(np.max(errors)),
        "error_of_mean": abs(mean_energy - exact_reference),
    }
    _write_json(out / "sample_summary.json", payload)
    return payload


def cmd_depth(config: ExperimentConfig) -> dict:
    """Circuit-depth table per rotation, compiled in both orbital orderings."""
    out = _out_dir(config)
    system = resolve_system(config)
    rotations = build_rotations(config, system)
    n = system.tensors.n_orbitals
    rows = []
    table = []
    for rotation in rotations:
        entry = {"rotation": rotation.label}
        for ordering in ("interleaved", "reordered"):
            circuit = rotation_circuit(rotation, n, ordering)
            total, two_qubit = depth_overhead(circuit)
            entry[ordering] = {"total_depth": total, "two_qubit_depth": two_qubit}
            rows.append(f"{rotation.label},{ordering},{total},{two_qubit}")
        table.append(entry)
    _write_csv(out / "depth.csv", "rotation,ordering,total_depth,two_qubit_depth",
               rows)
    payload = {"system": system.label, "rotations": table}
    _write_json(out / "depth.json", payload)
    return payload


COMMANDS = {
    "integrals": cmd_integrals,
    "eigen": cmd_eigen,
    "decompose": cmd_decompose,
    "groups": cmd_groups,
    "shots": cmd_shots,
    "sample": cmd_sample,
    "depth": cmd_depth,
}
