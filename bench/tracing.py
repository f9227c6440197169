"""Spans around the package's public functions, installed from outside it.

The package binds names at import (``hcb`` imports ``expectation`` and
``build_qubit_hamiltonian`` by name, ``simulator`` imports the group
helpers), so a wrapper is rebound in every ``hcbmeasure`` module that holds
the original; otherwise calls made inside the package would go untimed.
``paulis`` gets no span: its functions run millions of times per operation,
and their cost shows in the self time of the spans that call them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

# (module, attribute, layer); "Class.method" attributes wrap a method.
TARGETS = (
    ("integrals", "minimal_basis_integrals", "integrals"),
    ("encoding", "build_qubit_hamiltonian", "encoding"),
    ("rotations", "rotate_integrals", "rotations"),
    ("rotations", "graph_rotation", "rotations"),
    ("rotations", "random_orthogonal_rotation", "rotations"),
    ("rotations", "distance_ranked_matchings", "rotations"),
    ("simulator", "rotation_circuit", "rotations"),
    ("hcb", "run_protocol", "hcb"),
    ("hcb", "extract_hcb", "hcb"),
    ("hcb", "hcb_to_groups", "hcb"),
    ("groups", "diagonalizing_circuit", "groups"),
    ("groups", "diagonalized_members", "groups"),
    ("groups", "CommutingGroup.check_commuting", "groups"),
    ("grouping", "lf_grouping", "grouping.lf"),
    ("grouping", "rlf_grouping", "grouping.rlf"),
    ("grouping", "si_grouping", "grouping.si"),
    ("grouping", "estimate_shots", "grouping.shots"),
    ("grouping", "protocol_shot_estimate", "grouping.shots"),
    ("simulator", "ground_state", "simulator.ground_state"),
    ("simulator", "expectation", "simulator.expectation"),
    ("simulator", "apply_circuit", "simulator.apply_circuit"),
    ("simulator", "optimize_ansatz", "simulator.optimize"),
    ("simulator", "finite_sample_experiment", "simulator.sample"),
    ("simulator", "sample_group", "simulator.sample"),
)

LAYER_TIMES = (
    "integrals", "encoding", "rotations", "hcb", "groups",
    "grouping.lf", "grouping.rlf", "grouping.si", "grouping.shots",
    "simulator.ground_state", "simulator.expectation",
    "simulator.apply_circuit", "simulator.optimize", "simulator.sample",
)


COUNTS = (
    "encoding.calls", "encoding.terms", "hcb.steps", "groups.pairs_checked",
    "grouping.lf.groups", "grouping.rlf.groups", "grouping.si.groups",
    "grouping.shots_total", "simulator.expectation.calls",
    "simulator.expectation.terms", "simulator.apply_circuit.calls",
    "simulator.sample_group.calls", "simulator.shots_drawn",
)

RATIOS = ("hcb.kept_ratio", "simulator.clifford_reuse")


class Tracer:
    """Records (name, start, end, parent) spans and per-span counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, {}]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            _count(name, signature.bind(*args, **kwargs).arguments, result, span[4])
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "hcbmeasure" or key.startswith("hcbmeasure.")]
        for module_name, attribute, _layer in TARGETS:
            home = sys.modules[f"hcbmeasure.{module_name}"]
            name = f"{module_name}.{attribute}"
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], **s[4]}
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")

    def metrics(self, segments: list[tuple[int, int, float]]) -> dict[str, float]:
        """Layer metrics of the spans in each (first, last, weight) segment.

        Times and counts add up with the segment's weight; the two ratios are
        taken between weighted sums.
        """
        layer_of = {f"{m}.{a}": layer for m, a, layer in TARGETS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.s": 0.0 for layer in LAYER_TIMES}
        totals: dict[str, float] = {}
        hcb_terms = 0.0
        distinct_pairs = 0.0
        for first, last, weight in segments:
            pairs: set = set()
            for index in range(first, last):
                name, start, end, parent, counts = self.spans[index]
                out[f"{layer_of[name]}.s"] += weight * ((end - start) - child_time[index])
                for key, value in counts.items():
                    if key == "pair":
                        pairs.add((parent if parent >= 0 else index, *value))
                    else:
                        totals[key] = totals.get(key, 0.0) + weight * value
                if (name == "encoding.build_qubit_hamiltonian" and parent >= 0
                        and self.spans[parent][0] == "hcb.hcb_to_groups"):
                    hcb_terms += weight * counts["encoding.terms"]
            distinct_pairs += weight * len(pairs)
        for key in COUNTS:
            out[key] = totals.get(key, 0.0)
        kept = totals.get("hcb.kept", 0.0)
        out["hcb.kept_ratio"] = kept / hcb_terms if hcb_terms else 0.0
        calls = totals.get("simulator.sample_group.calls", 0.0)
        out["simulator.clifford_reuse"] = distinct_pairs / calls if calls else 0.0
        return out


def unit(name: str) -> str:
    """Unit of a layer metric name."""
    if name in COUNTS:
        return "count"
    return "ratio" if name in RATIOS else "s"


def _count(name: str, arguments: dict, result, counts: dict) -> None:
    """Per-span counts, taken from the call's arguments and result."""
    if name == "encoding.build_qubit_hamiltonian":
        counts["encoding.calls"] = 1
        counts["encoding.terms"] = len(result)
    elif name == "hcb.run_protocol":
        counts["hcb.steps"] = len(result)
    elif name == "hcb.hcb_to_groups":
        counts["hcb.kept"] = sum(len(group.members) for group in result)
    elif name == "groups.CommutingGroup.check_commuting":
        m = len(arguments["self"].members)
        counts["groups.pairs_checked"] = m * (m - 1) // 2
    elif name in ("grouping.lf_grouping", "grouping.rlf_grouping", "grouping.si_grouping"):
        method = name.split(".")[1].split("_")[0]
        counts[f"grouping.{method}.groups"] = result.group_count
    elif name in ("grouping.estimate_shots", "grouping.protocol_shot_estimate"):
        counts["grouping.shots_total"] = result.total
    elif name == "simulator.expectation":
        counts["simulator.expectation.calls"] = 1
        counts["simulator.expectation.terms"] = len(arguments["op"])
    elif name == "simulator.apply_circuit":
        counts["simulator.apply_circuit.calls"] = 1
    elif name == "simulator.sample_group":
        counts["simulator.sample_group.calls"] = 1
        counts["simulator.shots_drawn"] = int(arguments["shots"])
        counts["pair"] = (id(arguments["state"]), id(arguments["group"]))
