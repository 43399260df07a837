"""The benchmark's workloads: seeded inputs, one round of work, output checks.

Each workload runs in whole rounds, so every run attempts the same mix of
operations whatever its length.  The program sees only what a round hands
it: gate specs, seeded Haar-random input states or unitaries, generated
circuits and a seeded protocol random stream.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Iterator, Union

import numpy as np

import laws
import oracle
from tracing import PACKAGE, timed_calls

PREPS = ("measured", "direct")
ONE_QUBIT_GATES = ("H", "T", "X", "Y", "Z")


@dataclass
class Package:
    """A freshly imported package, with the specs and configs a workload uses."""

    protocol: ModuleType
    qcore: ModuleType
    identities: ModuleType
    cli: ModuleType
    specs: dict
    configs: dict


def load_package(gates: tuple[str, ...]) -> Package:
    """Import the package from scratch (empty caches) and build gate specs."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mod = {n: importlib.import_module(f"{PACKAGE}.{n}") for n in ("protocol", "qcore", "identities", "cli")}
    protocol = mod["protocol"]
    return Package(
        specs={g: protocol.GateSpec.named(g) for g in gates},
        configs={p: protocol.ProtocolConfig(prep_mode=p) for p in PREPS},
        **mod,
    )


@dataclass
class Recorder:
    """What the program did in one phase, and what was wrong with it."""

    gate_s: list = field(default_factory=list)
    host_s: float = 0.0
    verdicts: int = 0
    tallies: dict = field(default_factory=lambda: {"1q": laws.Tally(), "cnot": laws.Tally()})
    errors: list = field(default_factory=list)
    min_fidelity: float = 1.0
    #: configuration -> [gates, host seconds]
    by_config: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(t.gates for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies.values())

    @property
    def trials(self) -> int:
        return sum(t.trials for t in self.tallies.values())

    def spent(self, config: str, seconds: float, gates: int) -> None:
        """Add host time spent inside the program on one configuration."""
        self.host_s += seconds
        entry = self.by_config.setdefault(config, [0, 0.0])
        entry[0] += gates
        entry[1] += seconds

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def output(self, what: str, expected: np.ndarray, state, labels: tuple) -> None:
        """Check a returned register against the reference vector."""
        if tuple(state.labels) != labels:
            self.error(f"{what}: register labels {state.labels!r}, expected {labels!r}")
            return
        f = oracle.fidelity(expected, np.asarray(state.data))
        self.min_fidelity = min(self.min_fidelity, f)
        if not f >= oracle.MIN_FIDELITY:
            self.error(f"{what}: fidelity {f!r} against the reference")


def teleport(
    pkg: Package,
    rec: Recorder,
    rng: np.random.Generator,
    gate: Union[str, np.ndarray],
    psi: np.ndarray,
    prep: str,
) -> None:
    """Teleport one gate onto input ``psi``, timed, and check the output.

    ``gate`` names a catalogue gate or is a custom 2x2 unitary, whose spec is
    built inside the timed region because a user builds one per gate.
    """
    custom = isinstance(gate, np.ndarray)
    arity = 1 if custom or gate != "CNOT" else 2
    labels = tuple(range(arity))
    state = pkg.qcore.QuantumState.pure(psi, labels)
    cfg = pkg.configs[prep]
    protocol = pkg.protocol
    t0 = time.perf_counter()
    spec = protocol.GateSpec.custom(gate) if custom else pkg.specs[gate]
    if arity == 1:
        out, trace = protocol.simulate_one_qubit(spec, state, 0, cfg, rng)
    else:
        out, trace = protocol.simulate_cnot(state, (0, 1), cfg, rng)
    dt = time.perf_counter() - t0
    rec.gate_s.append(dt)
    rec.spent(f"{'custom' if custom else gate}/{prep}", dt, 1)
    rec.tallies["1q" if arity == 1 else "cnot"].add(trace)
    if trace.succeeded:
        if arity == 2:
            expected = oracle.cnot_operator(0, 1, 2) @ psi
        else:
            expected = (gate if custom else oracle.ONE_QUBIT[gate]) @ psi
        rec.output(f"{prep} {'custom' if custom else gate}", expected, out, labels)


class Workload:
    """One benchmark workload; subclasses fill in the round and the CLI calls."""

    name = ""
    why = ""
    gates: tuple[str, ...] = ()
    #: Rounds in the traced phase: fixed work, so its counts repeat exactly.
    trace_rounds = 1

    def warm_up(self, pkg: Package, rng: np.random.Generator) -> None:
        """One operation per configuration, so that caches are filled."""
        self.round(pkg, rng, rng, Recorder())

    def round(self, pkg: Package, inputs: np.random.Generator, proto: np.random.Generator, rec: Recorder) -> None:
        raise NotImplementedError

    def measuring(self, pkg: Package, rec: Recorder) -> contextlib.AbstractContextManager:
        """Context entered around the measured loop; gate workloads need none."""
        return contextlib.nullcontext()

    def cli_calls(self, seed: int, workdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check_cli(self, argv: list[str], report: dict) -> list[str]:
        raise NotImplementedError


class GateStats(Workload):
    """Named gates in both prep modes onto Haar-random inputs."""

    def __init__(self, name: str, why: str, gates: tuple[str, ...], per_config: int,
                 cli_trials: int, trace_rounds: int) -> None:
        self.name, self.why, self.gates = name, why, gates
        self.per_config = per_config
        self.cli_trials = cli_trials
        self.trace_rounds = trace_rounds

    def _each_config(self, pkg, inputs, proto, rec, count):
        for gate in self.gates:
            n = 2 if gate == "CNOT" else 1
            for prep in PREPS:
                for _ in range(count):
                    teleport(pkg, rec, proto, gate, oracle.haar_state(inputs, n), prep)

    def round(self, pkg, inputs, proto, rec):
        self._each_config(pkg, inputs, proto, rec, self.per_config)

    def warm_up(self, pkg, rng):
        self._each_config(pkg, rng, rng, Recorder(), 1)

    def cli_calls(self, seed, workdir):
        return [
            ["stats", "--gate", g, "--prep", p, "--trials", str(self.cli_trials), "--seed", str(seed), "--json"]
            for g in self.gates for p in PREPS
        ]

    def check_cli(self, argv, report):
        gate, prep = argv[2], argv[4]
        hist = {int(k): v for k, v in report.get("histogram", {}).items()}
        problems = []
        if (report.get("gate"), report.get("prep"), report.get("trials")) != (gate, prep, self.cli_trials):
            problems.append(f"stats {gate} {prep}: report echoes {report.get('gate')} {report.get('prep')} "
                            f"{report.get('trials')}")
        if sum(hist.values()) != self.cli_trials:
            problems.append(f"stats {gate} {prep}: histogram holds {sum(hist.values())} runs")
        elif abs(sum(k * v for k, v in hist.items()) / self.cli_trials - report.get("mean_trials", -1)) > 1e-9:
            problems.append(f"stats {gate} {prep}: mean_trials disagrees with the histogram")
        return problems


def random_circuit(rng: np.random.Generator, n: int, length: int) -> list[tuple[str, tuple[int, ...]]]:
    """``length`` gates drawn uniformly from H, T, X, Y, Z and CNOT on n qubits."""
    names = ONE_QUBIT_GATES + ("CNOT",)
    ops = []
    for _ in range(length):
        name = names[int(rng.integers(len(names)))]
        if name == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            ops.append((name, (int(c), int(t))))
        else:
            ops.append((name, (int(rng.integers(n)),)))
    return ops


class Circuits(Workload):
    """Seeded random circuits through ``run_circuit``."""

    def __init__(self, name: str, why: str, sizes: tuple[int, ...], length: int, trace_rounds: int) -> None:
        self.name, self.why = name, why
        self.gates = ONE_QUBIT_GATES + ("CNOT",)
        self.sizes = sizes
        self.length = length
        self.trace_rounds = trace_rounds

    def round(self, pkg, inputs, proto, rec):
        protocol = pkg.protocol
        for n in self.sizes:
            for prep in PREPS:
                ops = random_circuit(inputs, n, self.length)
                circuit = [(pkg.specs[g], q) for g, q in ops]
                final = None
                t0 = time.perf_counter()
                try:
                    final, traces, _ = protocol.run_circuit(circuit, n, pkg.configs[prep], proto)
                except protocol.BudgetExceeded as exc:
                    traces = exc.traces
                rec.spent(f"{n}q/{prep}", time.perf_counter() - t0, len(traces))
                for (g, _q), trace in zip(ops, traces):
                    rec.tallies["cnot" if g == "CNOT" else "1q"].add(trace)
                if final is not None:
                    rec.output(f"{n}-qubit circuit, {prep}", oracle.circuit_state(ops, n), final, tuple(range(n)))

    @contextlib.contextmanager
    def measuring(self, pkg, rec) -> Iterator[None]:
        # run_circuit teleports each gate through these two public functions;
        # timing them gives per-gate host time without tracing anything else.
        with timed_calls(pkg.protocol, ("simulate_one_qubit", "simulate_cnot"), rec.gate_s):
            yield
        if len(rec.gate_s) != rec.attempted:
            rec.error(f"per-gate timer saw {len(rec.gate_s)} calls for {rec.attempted} gates; "
                      "run_circuit no longer dispatches through simulate_one_qubit/simulate_cnot")

    def _circuit_file(self, seed: int, n: int, workdir: Path) -> tuple[Path, list]:
        ops = random_circuit(np.random.default_rng([seed, 6, n]), n, self.length)
        path = workdir / f"circuit-{n}q.txt"
        path.write_text("".join(f"{g} {' '.join(map(str, q))}\n" for g, q in ops), encoding="utf-8")
        return path, ops

    def cli_calls(self, seed, workdir):
        calls = []
        for n in self.sizes:
            path, _ = self._circuit_file(seed, n, workdir)
            calls += [["run", str(path), "--prep", p, "--seed", str(seed), "--json"] for p in PREPS]
        return calls

    def check_cli(self, argv, report):
        ops = [line.split() for line in Path(argv[1]).read_text(encoding="utf-8").splitlines()]
        n = max(int(q) for op in ops for q in op[1:]) + 1
        problems = []
        if not report.get("completed") or report.get("n_gates") != len(ops) or report.get("n_qubits") != n:
            problems.append(f"run {argv[1]}: completed {report.get('completed')}, "
                            f"{report.get('n_gates')} gates on {report.get('n_qubits')} qubits")
        if [g.get("gate") for g in report.get("gates", [])] != [op[0] for op in ops]:
            problems.append(f"run {argv[1]}: reported gates differ from the circuit file")
        if not report.get("fidelity", 0) >= oracle.MIN_FIDELITY:
            problems.append(f"run {argv[1]}: fidelity {report.get('fidelity')}")
        return problems


class CatalogueCold(Workload):
    """Fresh Haar-random custom unitaries in measured prep, with verify between."""

    def __init__(self, name: str, why: str, gates_per_verify: int, trace_rounds: int) -> None:
        self.name, self.why = name, why
        self.gates_per_verify = gates_per_verify
        self.trace_rounds = trace_rounds

    def round(self, pkg, inputs, proto, rec):
        for _ in range(self.gates_per_verify):
            u = oracle.haar_unitary(inputs, 2)
            teleport(pkg, rec, proto, u, oracle.haar_state(inputs, 1), "measured")
        t0 = time.perf_counter()
        checks = pkg.identities.identity_checks()
        rec.spent("verify", time.perf_counter() - t0, 0)
        rec.verdicts += 1
        failed = [c.name for c in checks if not c.passed]
        if failed or not checks:
            rec.error(f"identity checks failed: {failed[:5]} of {len(checks)}")

    def warm_up(self, pkg, rng):
        rec = Recorder()
        teleport(pkg, rec, rng, oracle.haar_unitary(rng, 2), oracle.haar_state(rng, 1), "measured")
        pkg.identities.identity_checks()

    def cli_calls(self, seed, workdir):
        return [["verify", "--json"]]

    def check_cli(self, argv, report):
        if report.get("passed") is not True or report.get("failed_count") != 0 or not report.get("checks"):
            return [f"verify: passed {report.get('passed')}, failed_count {report.get('failed_count')}"]
        return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        GateStats(
            "gate-stats-1q",
            "3-qubit registers keep dense algebra tiny, so per-trial Python overhead dominates; T adds non-Pauli frames",
            gates=("H", "T"), per_config=4, cli_trials=400, trace_rounds=150,
        ),
        GateStats(
            "gate-stats-cnot",
            "6-qubit registers and 16 trials per gate; qcore.measure and ancilla preparation dominate",
            gates=("CNOT",), per_config=1, cli_trials=40, trace_rounds=100,
        ),
        Circuits(
            "circuit-4q",
            "named-gate circuits (H, T, Paulis, CNOT) in both prep modes; registers reach 8 qubits, "
            "where the dense 4^n projector cost peaks",
            sizes=(3, 4), length=30, trace_rounds=5,
        ),
        CatalogueCold(
            "catalogue-cold",
            "fresh custom unitaries miss every protocol cache, so measure construction and identities do the work",
            gates_per_verify=16, trace_rounds=20,
        ),
    )
}
