"""The one circuit model: named gates on qubits, in a checked list.

Gates and the operators they apply (qubit j is spin orbital j):

  H, S, X, Z           one qubit, the usual Clifford gates
  CNOT (c, t), CZ      two qubits
  GIVENS (i, j)        exp[angle/2 (a+_i a_j - a+_j a_i)]
  PAIR_HOP (pu, pd, qu, qd)
                       exp[angle/2 (a+_pu a+_pd a_qd a_qu - h.c.)]

The two fermionic gates take qubits, not spatial orbitals: the builders
(simulator.rotation_circuit, PairAnsatz.circuit) resolve (orbital, spin)
with encoding.qubit_table.  They carry exact Jordan-Wigner phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2, "GIVENS": 2, "PAIR_HOP": 4}
CLIFFORD_GATES = ("H", "S", "X", "Z", "CNOT", "CZ")


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float = 0.0


@dataclass
class Circuit:
    """Gates over n_qubits qubits; every gate is checked as it is added."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"a circuit needs at least one qubit, got {self.n_qubits}")
        gates, self.gates = self.gates, []
        for gate in gates:
            self.add(gate.name, *gate.qubits, angle=gate.angle)

    def add(self, name: str, *qubits: int, angle: float = 0.0) -> None:
        arity = ARITY.get(name)
        if arity is None:
            raise ValueError(f"unknown gate {name!r}; expected one of {tuple(ARITY)}")
        if len(qubits) != arity:
            raise ValueError(f"{name} takes {arity} qubit(s), got {qubits}")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"{name} qubit {q} out of range for {self.n_qubits} qubits")
        if len(set(qubits)) != arity:
            raise ValueError(f"{name} qubits must be distinct, got {qubits}")
        if angle and name in CLIFFORD_GATES:
            raise ValueError(f"{name} takes no angle, got {angle}")
        self.gates.append(Gate(name, qubits, angle))

    def __len__(self) -> int:
        return len(self.gates)
