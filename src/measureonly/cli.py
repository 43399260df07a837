"""Command-line harness: identity verification, protocol runs, statistics.

All subcommands support machine-readable output via ``--json``; a given seed
and flag set always produces byte-identical JSON.  Exit codes: 0 success,
1 verification or protocol failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import identities, protocol, qcore
from .protocol import BudgetExceeded, GateSpec, ProtocolConfig

SCHEMA_VERSION = "1"


def _emit(report: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _input_state(kind: str, arity: int, rng: np.random.Generator) -> qcore.QuantumState:
    labels = tuple(range(arity))
    dim = 2**arity
    if kind == "zero":
        return qcore.zero_state(labels)
    if kind == "plus":
        return qcore.QuantumState.pure(np.full(dim, 1 / np.sqrt(dim), dtype=complex), labels)
    if kind == "random":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return qcore.QuantumState.pure(v / np.linalg.norm(v), labels)
    raise ValueError(f"unknown input state {kind!r}")


def _shared_args_error(args: argparse.Namespace) -> Optional[str]:
    """Range errors in the options simulate, stats and run share, or None."""
    if args.seed < 0:
        return f"seed must be a non-negative integer, got {args.seed}"
    if not 0.0 < args.epsilon < 1.0:
        return f"epsilon must lie in (0, 1), got {args.epsilon}"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance > 0):
        return _usage_error(f"tolerance must be a positive finite number, got {args.tolerance}")
    checks = identities.identity_checks(tolerance=args.tolerance)
    passed = all(c.passed for c in checks)
    failed = [c for c in checks if not c.passed]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "tolerance": args.tolerance,
        "passed": passed,
        "failed_count": len(failed),
        "checks": [
            {"name": c.name, "deviation": c.deviation, "tolerance": c.tolerance, "passed": c.passed}
            for c in checks
        ],
    }
    lines = [
        f"{'ok  ' if c.passed else 'FAIL'} {c.name:<45} deviation {c.deviation:.3e} (tol {c.tolerance:.1e})"
        for c in checks
    ]
    lines.append(f"verification: {len(checks) - len(failed)}/{len(checks)} checks passed")
    _emit(report, args.json, lines)
    return 0 if passed else 1


def _gate_report(gate: GateSpec, state_kind: str, args: argparse.Namespace) -> tuple[dict, list[str], int]:
    rng_state = np.random.default_rng([args.seed, 0])
    rng_proto = np.random.default_rng([args.seed, 1])
    initial = _input_state(state_kind, gate.arity, rng_state)
    cfg = ProtocolConfig(epsilon=args.epsilon, prep_mode=args.prep)
    if gate.arity == 1:
        out, trace = protocol.simulate_one_qubit(gate, initial, 0, cfg, rng_proto)
    else:
        out, trace = protocol.simulate_cnot(initial, (0, 1), cfg, rng_proto)
    reference = qcore.apply_unitary(initial, gate.matrix, initial.labels)
    fidelity = qcore.fidelity_up_to_phase(out, reference)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "gate": gate.name,
        "state": state_kind,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "prep": args.prep,
        "max_trials": cfg.budget(gate.arity),
        "succeeded": bool(trace.succeeded),
        "trials": trace.total_trials,
        "fidelity": float(fidelity),
        "trace": trace.to_dict(),
    }
    lines = [
        f"gate {gate.name} on {state_kind} input "
        f"(seed {args.seed}, prep {args.prep}, epsilon {args.epsilon}, budget {cfg.budget(gate.arity)})",
        f"{'succeeded' if trace.succeeded else 'FAILED'} after {trace.total_trials} trial(s); "
        f"fidelity vs direct application {fidelity:.12f}",
    ]
    for t in trace.trials:
        lines.append(
            f"  trial {t.index}: prepared {t.prepared}, measured {t.outcome}"
            f"{' (success)' if t.success else ''}"
        )
    if not trace.succeeded:
        lines.append(f"  residual error: {trace.residual_pauli}")
    return report, lines, 0 if trace.succeeded else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    name = args.gate.upper()
    if name not in protocol._GATE_MATRICES:
        return _usage_error(f"unknown gate {args.gate!r} (expected one of {', '.join(protocol._GATE_MATRICES)})")
    gate = GateSpec.named(name)
    report, lines, status = _gate_report(gate, args.state, args)
    _emit(report, args.json, lines)
    return status


def cmd_stats(args: argparse.Namespace) -> int:
    name = args.gate.upper()
    if name not in protocol._GATE_MATRICES:
        return _usage_error(f"unknown gate {args.gate!r} (expected one of {', '.join(protocol._GATE_MATRICES)})")
    if args.trials < 1:
        return _usage_error("trials must be at least 1")
    gate = GateSpec.named(name)
    cfg = ProtocolConfig(epsilon=args.epsilon, prep_mode=args.prep)
    counts: dict[int, int] = {}
    first_successes = 0
    total = 0
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, i])
        initial = qcore.zero_state(tuple(range(gate.arity)))
        if gate.arity == 1:
            _, trace = protocol.simulate_one_qubit(gate, initial, 0, cfg, rng)
        else:
            _, trace = protocol.simulate_cnot(initial, (0, 1), cfg, rng)
        counts[trace.total_trials] = counts.get(trace.total_trials, 0) + 1
        total += trace.total_trials
        if trace.trials[0].success:
            first_successes += 1
    mean = total / args.trials
    first_rate = first_successes / args.trials
    histogram = {str(k): counts[k] for k in sorted(counts)}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "stats",
        "gate": gate.name,
        "trials": args.trials,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "prep": args.prep,
        "mean_trials": mean,
        "first_trial_success_rate": first_rate,
        "histogram": histogram,
    }
    lines = [
        f"gate {gate.name}: {args.trials} runs (seed {args.seed}, prep {args.prep})",
        f"mean trials per success: {mean:.4f}",
        f"first-trial success rate: {first_rate:.4f}",
        "histogram: " + ", ".join(f"{k}:{v}" for k, v in histogram.items()),
    ]
    _emit(report, args.json, lines)
    return 0


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_circuit_file(text: str) -> list[tuple[GateSpec, tuple[int, ...]]]:
    """Parse a circuit file: one gate per line, '#' comments, blank lines allowed.

    Grammar: ``H q`` | ``T q`` | ``X q`` | ``Y q`` | ``Z q`` | ``CNOT qc qt``
    with qubit indices written in ASCII decimal digits, below ``qcore.MAX_QUBITS``,
    and distinct controlled-NOT operands.
    """
    ops: list[tuple[GateSpec, tuple[int, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        if name not in protocol._GATE_MATRICES:
            raise CircuitParseError(line_no, f"unknown gate {parts[0]!r}")
        gate = GateSpec.named(name)
        if len(parts) != gate.arity + 1:
            raise CircuitParseError(line_no, f"{name} takes {gate.arity} qubit operand(s)")
        if not all(p.isascii() and p.isdigit() for p in parts[1:]):
            raise CircuitParseError(line_no, f"qubit operands must be integers: {line!r}")
        qubits = tuple(int(p) for p in parts[1:])
        if any(q >= qcore.MAX_QUBITS for q in qubits):
            raise CircuitParseError(line_no, f"qubit indices must lie in 0..{qcore.MAX_QUBITS - 1}")
        if name == "CNOT" and qubits[0] == qubits[1]:
            raise CircuitParseError(line_no, "controlled-NOT operands must be distinct")
        ops.append((gate, qubits))
    return ops


def cmd_run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.circuit).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(f"cannot read {args.circuit!r}: {exc}")
    try:
        circuit = parse_circuit_file(text)
    except CircuitParseError as exc:
        return _usage_error(f"{args.circuit}: {exc}")
    n_qubits = max((max(q) for _, q in circuit), default=0) + 1
    cfg = ProtocolConfig(epsilon=args.epsilon, prep_mode=args.prep)
    rng = np.random.default_rng([args.seed, 1])
    aborted = None
    try:
        final, traces, _register = protocol.run_circuit(circuit, n_qubits, cfg, rng)
    except BudgetExceeded as exc:
        aborted = exc
        final, traces = exc.state, exc.traces
    reference = protocol.direct_state(circuit[: len(traces)], n_qubits)
    fidelity = qcore.fidelity_up_to_phase(final, reference)
    gates = []
    for (gate, qubits), trace in zip(circuit, traces):
        gates.append(
            {
                "gate": gate.name,
                "qubits": list(qubits),
                "trials": trace.total_trials,
                "succeeded": bool(trace.succeeded),
                "residual": str(trace.residual_pauli) if trace.residual_pauli is not None else None,
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
        "file": str(args.circuit),
        "n_qubits": n_qubits,
        "n_gates": len(circuit),
        "seed": args.seed,
        "epsilon": args.epsilon,
        "prep": args.prep,
        "completed": aborted is None,
        "fidelity": float(fidelity),
        "gates": gates,
    }
    lines = [f"circuit {args.circuit}: {len(circuit)} gate(s) on {n_qubits} qubit(s) (seed {args.seed})"]
    for entry in gates:
        qubits = " ".join(str(q) for q in entry["qubits"])
        status = "ok" if entry["succeeded"] else f"FAILED (residual {entry['residual']})"
        lines.append(f"  {entry['gate']} {qubits}: {entry['trials']} trial(s) {status}")
    if aborted is not None:
        lines.append(f"aborted: {aborted}")
    lines.append(f"final fidelity vs direct simulation: {fidelity:.12f}")
    _emit(report, args.json, lines)
    return 0 if aborted is None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measureonly",
        description="Simulate quantum gates using projective measurements only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every algebraic identity check")
    p_verify.add_argument("--tolerance", type=float, default=None, help="override all check tolerances")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.set_defaults(func=cmd_verify)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--epsilon", type=float, default=1e-9, help="per-gate failure budget")
    common.add_argument("--prep", choices=("measured", "direct"), default="measured",
                        help="ancilla preparation mode")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p_sim = sub.add_parser("simulate", parents=[common], help="run one gate teleportation")
    p_sim.add_argument("--gate", required=True, help="H, T, X, Y, Z or CNOT")
    p_sim.add_argument("--state", choices=("zero", "plus", "random"), default="zero",
                       help="input state")
    p_sim.set_defaults(func=cmd_simulate)

    p_stats = sub.add_parser("stats", parents=[common], help="Monte Carlo trial statistics")
    p_stats.add_argument("--gate", required=True, help="H, T, X, Y, Z or CNOT")
    p_stats.add_argument("--trials", type=int, default=1000, help="number of independent runs")
    p_stats.set_defaults(func=cmd_stats)

    p_run = sub.add_parser("run", parents=[common], help="execute a circuit file")
    p_run.add_argument("circuit", help="path to the circuit file")
    p_run.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify":
        error = _shared_args_error(args)
        if error is not None:
            return _usage_error(error)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
