"""The two benchmark workloads: inputs, the timed operations, and checks.

Constructing a workload from the seed is its set-up: it builds everything
the operations share, namely the integrals, the full qubit Hamiltonian, the
exact ground state, the rotation list and the ansatz.  ``STEPS`` is the
fixed list of operations one round runs, each a call into the package's
public API, and ``step(name, out)`` runs one of them.  A run repeats the
round at least ``ROUNDS`` times, 20 to 50 s of work on a 2-vCPU host.
``check`` compares the outputs with the independent computations in
``reference.py``.

Every call goes through the ``hcbmeasure`` module attribute at call time,
so spans installed by ``tracing.py`` see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import hcbmeasure as hm
import reference

ENERGY_TOL = 1e-8
SHOT_RTOL = 1e-9
SAMPLE_SIGMAS = 5.0


def _distances(geometry) -> np.ndarray:
    coords = np.asarray(geometry.coordinates, dtype=float)
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=-1))


@dataclass
class System:
    label: str
    tensors: object
    op: object
    energy: float
    state: object
    geometry: object

    @classmethod
    def build(cls, label: str, geometry) -> "System":
        tensors = hm.minimal_basis_integrals(geometry)
        op = hm.build_qubit_hamiltonian(tensors)
        energy, state = hm.ground_state(op, geometry.n_atoms)
        return cls(label, tensors, op, energy, state, geometry)

    def ranked_graphs(self, count: int):
        return hm.distance_ranked_matchings(_distances(self.geometry), count)


def _masks(group) -> list[tuple[int, int]]:
    return [(s.x_mask, s.z_mask) for s, _ in group.members]


def _coeffs(group) -> list[float]:
    return [c for _, c in group.members]


@dataclass
class Checker:
    """Collects failed checks with enough detail to find them."""

    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, a: float, b: float, tol: float, message: str) -> None:
        self.expect(abs(a - b) <= tol, f"{message}: {a!r} vs {b!r} (tol {tol:g})")

    def full_ci(self, system: System) -> reference.FullCI:
        t = system.tensors
        fci = reference.full_ci(t.one_body, t.two_body, t.e_nuc, system.geometry.n_atoms)
        self.close(system.energy, fci.energy, ENERGY_TOL, f"{system.label} ground energy vs full CI")
        return fci

    def groups_commute(self, groups, where: str) -> None:
        for group in groups:
            self.expect(reference.all_commute(_masks(group)),
                        f"{where}: group {group.label!r} does not commute")

    def partition(self, grouping, op, where: str) -> None:
        want = {(s.x_mask, s.z_mask): c for s, c in op.terms()}
        seen = set()
        for group in grouping.groups:
            for s, c in group.members:
                key = (s.x_mask, s.z_mask)
                self.expect(key not in seen, f"{where}: term {s} appears twice")
                self.expect(want.get(key) == c, f"{where}: term {s} has coefficient {c!r}")
                seen.add(key)
        self.expect(len(seen) == len(want),
                    f"{where}: {len(seen)} of {len(want)} terms grouped")
        self.groups_commute(grouping.groups, where)

    def shots(self, groups, estimate, state, epsilon: float, where: str) -> None:
        self.expect(len(estimate.per_group) == len(groups),
                    f"{where}: {len(estimate.per_group)} budgets for {len(groups)} groups")
        for group, got in zip(groups, estimate.per_group):
            values = reference.pauli_expectations(state.amplitudes, _masks(group))
            want = reference.shot_budget(_masks(group), _coeffs(group), values, epsilon)
            self.close(got, want, SHOT_RTOL * max(1.0, want),
                       f"{where}: shots of group {group.label!r}")

    def telescoping(self, records, exact: float, where: str) -> None:
        for record in records:
            self.expect(len(record.groups) == 3,
                        f"{where}: step {record.step} has {len(record.groups)} groups")
            self.close(record.cumulative + record.residual_expectation, exact,
                       ENERGY_TOL, f"{where}: step {record.step} cumulative + residual")
            self.groups_commute(record.groups, f"{where} step {record.step}")

    def sampling(self, sample, plan, where: str) -> None:
        """The sampled mean lies within SAMPLE_SIGMAS standard errors of exact.

        The standard error comes from each group's exact single-shot variance
        on its state and the shots drawn for it (budgets round up, at least
        one), so a handful of repetitions cannot under-estimate it.
        """
        drawn = [max(1, int(np.ceil(shots))) for _, _, shots in plan]
        self.expect(sample.total_shots == sum(drawn),
                    f"{where}: {sample.total_shots} shots drawn, plan asks {sum(drawn)}")
        variance = sum(
            reference.group_variance(state.amplitudes, _masks(group), _coeffs(group)) / n
            for (group, state, _), n in zip(plan, drawn))
        error = np.sqrt(variance / len(sample.energies))
        mean = float(np.mean(sample.energies))
        self.expect(abs(mean - sample.exact) <= SAMPLE_SIGMAS * error,
                    f"{where}: sampled mean {mean!r} is more than {SAMPLE_SIGMAS:g} "
                    f"standard errors ({error:.3e}) from {sample.exact!r}")

    def same_rounds(self, rounds: list[dict], key, where: str) -> None:
        values = [key(r) for r in rounds]
        self.expect(all(v == values[0] for v in values),
                    f"{where}: rounds disagree: {values}")


# ---------------------------------------------------------------------------
# protocol: Scenario I on the H8 line, the 16-qubit frontier


class Protocol:
    """run_protocol, then protocol_shot_estimate, on the H8 line at 1.5 A.

    Rotation: one random orthogonal rotation drawn from the seed.  The
    rotated tensors are dense for every seed, so the work per round does not
    depend on the draw.  One rotation keeps a round near 11 s, so a run
    can repeat it.
    """

    EPSILON = 1e-3
    ROUNDS = 2
    STEPS = ("run_protocol", "protocol_shot_estimate")

    def __init__(self, seed: int) -> None:
        self.system = System.build("H8-line-1.5A", hm.build_geometry(8, 1.5, "line"))
        self.rotations = [hm.random_orthogonal_rotation(8, seed)]

    def step(self, name: str, out: dict) -> None:
        s = self.system
        if name == "run_protocol":
            out["records"] = hm.run_protocol(s.tensors, self.rotations, s.state)
        else:
            out["shots"] = hm.protocol_shot_estimate(out["records"], s.state,
                                                     epsilon=self.EPSILON)

    def check(self, rounds: list[dict], c: Checker) -> None:
        fci = c.full_ci(self.system)
        for out in rounds:
            records = out["records"]
            c.expect(len(records) == len(self.rotations), "protocol: step count")
            c.telescoping(records, fci.energy, "protocol")
            groups = [g for r in records for g in r.groups]
            c.shots(groups, out["shots"], self.system.state, self.EPSILON, "protocol")
        c.same_rounds(rounds, lambda r: [x.cumulative for x in r["records"]], "protocol")


# ---------------------------------------------------------------------------
# variational: Scenario II on the H6 line: the protocol against LF, RLF and SI
# grouping on the optimised state, with sampling


class Variational:
    """optimize_ansatz, then the protocol, LF, RLF and SI grouping with their
    shot budgets on the optimised state, and sampling of two plans.

    The ansatz is built on the top-ranked pairing graph of the H6 line; the
    protocol runs under the two top-ranked graph rotations; the sampling
    seeds come from the benchmark seed.  The groupings depend only on the
    Hamiltonian, so the grouping work is the same for every seed.  The optimizer's start is fixed
    (OPTIMIZER_SEED): L-BFGS-B needs from 50 to 90 evaluations depending on
    where it starts, which would make the time depend on the seed.
    """

    EPSILON = 5e-3
    REPETITIONS = 10
    ROUNDS = 2
    OPTIMIZER_SEED = 4
    METHODS = ("si", "lf", "rlf")
    STEPS = (
        "optimize_ansatz", "prepare", "run_protocol", "protocol_shot_estimate",
        *(f"{method}{suffix}" for method in METHODS for suffix in ("", "_shots")),
        "sample_protocol", "sample_si",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.system = System.build("H6-line-1.5A", hm.build_geometry(6, 1.5, "line"))
        graphs = self.system.ranked_graphs(2)
        self.rotations = [hm.graph_rotation(g) for g in graphs]
        self.ansatz = hm.build_pair_ansatz(graphs[:1])

    def step(self, name: str, out: dict) -> None:
        s = self.system
        if name == "optimize_ansatz":
            out["params"], out["energy"] = hm.optimize_ansatz(
                self.ansatz, s.op, restarts=1, seed=self.OPTIMIZER_SEED)
        elif name == "prepare":
            out["state"] = self.ansatz.prepare(out["params"])
        elif name == "run_protocol":
            out["records"] = hm.run_protocol(s.tensors, self.rotations, out["state"])
        elif name == "protocol_shot_estimate":
            out["protocol_shots"] = hm.protocol_shot_estimate(
                out["records"], out["state"], epsilon=self.EPSILON)
        elif name in self.METHODS:
            out[name] = getattr(hm, f"{name}_grouping")(s.op)
        elif name.endswith("_shots"):
            out[name] = hm.estimate_shots(out[name[:-6]], out["state"], self.EPSILON)
        elif name == "sample_protocol":
            plan = []
            budgets = iter(out["protocol_shots"].per_group)
            n = s.tensors.n_orbitals
            for record in out["records"]:
                rotated = hm.apply_circuit(out["state"], hm.rotation_circuit(record.rotation, n))
                plan.extend((group, rotated, next(budgets)) for group in record.groups)
            out["protocol_plan"] = plan
            out["protocol_sample"] = hm.finite_sample_experiment(
                plan, self.REPETITIONS, seed=2 * self.seed)
        elif name == "sample_si":
            plan = [(group, out["state"], shots)
                    for group, shots in zip(out["si"].groups, out["si_shots"].per_group)]
            out["si_plan"] = plan
            out["si_sample"] = hm.finite_sample_experiment(
                plan, self.REPETITIONS, seed=2 * self.seed + 1)

    def check(self, rounds: list[dict], c: Checker) -> None:
        fci = c.full_ci(self.system)
        for out in rounds:
            c.expect(out["energy"] >= fci.energy - 1e-9,
                     f"variational: optimised energy {out['energy']!r} below full CI {fci.energy!r}")
            value = fci.state_energy(out["state"].amplitudes)
            c.close(out["energy"], value, ENERGY_TOL, "variational: optimiser energy vs <psi|H|psi>")
            records = out["records"]
            c.telescoping(records, value, "variational protocol")
            groups = [g for r in records for g in r.groups]
            c.shots(groups, out["protocol_shots"], out["state"], self.EPSILON,
                    "variational protocol")
            for method in self.METHODS:
                where = f"variational {method}"
                c.partition(out[method], self.system.op, where)
                c.shots(out[method].groups, out[f"{method}_shots"], out["state"],
                        self.EPSILON, where)
            c.close(out["si_sample"].exact, value, ENERGY_TOL, "SI plan exact vs <psi|H|psi>")
            c.close(out["protocol_sample"].exact, records[-1].cumulative, ENERGY_TOL,
                    "protocol plan exact vs cumulative estimate")
            for key in ("si", "protocol"):
                c.sampling(out[f"{key}_sample"], out[f"{key}_plan"], f"variational {key}")
        c.same_rounds(rounds, lambda r: [r["energy"]] + [r[m].group_count for m in self.METHODS],
                      "variational")


WORKLOADS = {"protocol": Protocol, "variational": Variational}
