"""Golden seeded traces of custom one-qubit gates: every trial of a fresh Haar gate is pinned.

``tests/data/custom_traces.json`` holds, for a fixed matrix of cases, a
Haar-random 2x2 unitary and input register (written out exactly, so the case
does not depend on how a platform's QR factorisation rounds), the protocol's
seed, prep mode and budget, and what ``simulate_one_qubit`` returned: the
trace's dictionary and the fidelity of the output, with the residual gate
still owed applied, against the gate applied directly.  Budgets of one and
three trials end with a residual often, so the residual is pinned too.  The
catalogue's one-qubit matrices and the phase gate, passed as custom gates,
get fresh frames too: their chains snap to phased Paulis within two
failures, and their preparations reach outcomes of probability zero.  Every
field must match exactly except ``fidelity`` and ``residual_matrix``, which
are floating-point results compared to 1e-12.

A custom gate misses every interned frame, so each trial fills fresh frames:
their preparation nodes, rows and successors.  A change to that arithmetic
that flips a drawn bit, a prepared index or a snapped residual fails here.

To regenerate (only when a change is meant to alter seeded output), run from
the repository root:

    PYTHONPATH=src python tests/test_custom_traces.py --regenerate
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from measureonly import qcore
from measureonly.protocol import GateSpec, ProtocolConfig, simulate_one_qubit

FIXTURE = Path(__file__).resolve().parent / "data" / "custom_traces.json"
TOL = 1e-12

#: (gate, registers of n qubits with the gate on qubit q, trial budget or None for epsilon 1e-9, seeds), per mode.
SETTINGS = [("haar", (1, 0), None, range(12)), ("haar", (1, 0), 1, range(12)), ("haar", (3, 1), None, range(12)),
            ("haar", (2, 1), 3, range(12)),
            *((name, (1, 0), budget, range(3)) for name in ("H", "T", "X", "Y", "Z", "S") for budget in (None, 1, 3))]
EXACT = {"S": np.diag([1, 1j]), **{name: GateSpec.named(name).matrix for name in "HTXYZ"}}


def _case_inputs(case: dict) -> tuple[np.ndarray, np.ndarray]:
    """The case's 2x2 unitary, Haar-random or named, and a Haar-random n-qubit state, from one seeded stream."""
    gen = np.random.default_rng([case["seed"], 0])
    z = (gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    psi = gen.normal(size=2 ** case["n"]) + 1j * gen.normal(size=2 ** case["n"])
    gate = case["gate"]
    gate = q @ np.diag(d / np.abs(d)) if gate == "haar" else EXACT[gate]
    return np.asarray(gate, dtype=complex), psi / np.linalg.norm(psi)


def _pairs(a: np.ndarray) -> list:
    """Complex entries as [real, imag] pairs, nested as the array is; JSON floats round-trip exactly."""
    return [[float(z.real), float(z.imag)] for z in a] if a.ndim == 1 else [_pairs(row) for row in a]


def _complex(pairs: list) -> np.ndarray:
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def _cases() -> list[dict]:
    return [
        {"gate": gate, "seed": seed, "prep": prep, "n": n, "qubit": q, "max_trials": budget}
        for gate, (n, q), budget, seeds in SETTINGS for prep in ("measured", "direct") for seed in seeds
    ]


def _run(case: dict, gate: np.ndarray, psi: np.ndarray) -> dict:
    n, q = case["n"], case["qubit"]
    state = qcore.QuantumState.pure(psi, tuple(range(n)))
    cfg = ProtocolConfig(max_trials=case["max_trials"], prep_mode=case["prep"])
    out, trace = simulate_one_qubit(GateSpec.custom(gate), state, q, cfg, np.random.default_rng([case["seed"], 1]))
    if not trace.succeeded:  # the gate still owed, applied: the output must then be the gate's
        out = qcore.apply_unitary(out, trace.residual_matrix, (q,))
    fidelity = qcore.fidelity_up_to_phase(out, qcore.apply_unitary(state, gate, (q,)))
    return {"trace": trace.to_dict(), "fidelity": fidelity}


@pytest.fixture(scope="module")
def fixture_cases() -> list[dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_case_matrix(fixture_cases):
    assert [c["case"] for c in fixture_cases] == _cases()
    # every setting of the matrix is exercised: successes, residuals both snapped and not
    traces = [c["result"]["trace"] for c in fixture_cases]
    assert any(t["succeeded"] for t in traces)
    assert any(t["residual"] is not None for t in traces)
    assert any(t["residual_matrix"] is not None for t in traces)


@pytest.mark.parametrize("index", range(len(_cases())),
                         ids=["{gate} {prep} n{n} q{qubit} budget {max_trials} seed {seed}".format(**c)
                              for c in _cases()])
def test_custom_gate_matches_fixture(fixture_cases, index):
    want = fixture_cases[index]
    got = _run(want["case"], _complex(want["gate"]), _complex(want["state"]))
    trace, want_trace = dict(got["trace"]), dict(want["result"]["trace"])
    matrix, want_matrix = trace.pop("residual_matrix"), want_trace.pop("residual_matrix")
    assert json.dumps(trace, sort_keys=True) == json.dumps(want_trace, sort_keys=True)
    assert (matrix is None) == (want_matrix is None)
    if matrix is not None:
        assert np.abs(np.array(matrix) - np.array(want_matrix)).max() <= TOL
    assert abs(got["fidelity"] - want["result"]["fidelity"]) <= TOL
    assert got["fidelity"] >= 1 - 1e-9


def _regenerate() -> None:
    cases = []
    for case in _cases():
        gate, psi = _case_inputs(case)
        cases.append({"case": case, "gate": _pairs(gate), "state": _pairs(psi), "result": _run(case, gate, psi)})
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_custom_traces.py --regenerate")
    _regenerate()
