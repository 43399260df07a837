"""Golden seeded traces: the CLI's discrete output is pinned byte for byte.

``tests/data/seeded_traces.json`` holds the JSON reports of a fixed matrix of
seeded CLI calls: ``simulate`` for every gate, both prep modes and all three
input states (plus budget-starved runs that end with a residual), ``stats
--trials 50`` for H, T and CNOT in both prep modes, and ``run`` on the two
fixed circuit files beside it, in both prep modes.  Every field must match
exactly except ``fidelity`` and ``residual_matrix``, which are floating-point
results compared to 1e-12.  A change that alters how the random stream is
consumed, or any outcome, prepared index, bit, histogram or residual, fails
here.

The fixture was written by the dense full-register implementation.  To
regenerate it (only when a change is meant to alter seeded output), run from
the repository root:

    PYTHONPATH=src python tests/test_seeded_traces.py --regenerate
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from measureonly.cli import main

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "seeded_traces.json"
FLOAT_KEYS = ("fidelity", "residual_matrix")
TOL = 1e-12


def _calls() -> list[list[str]]:
    calls = []
    for gate in ("H", "T", "X", "Y", "Z", "CNOT"):
        for prep in ("measured", "direct"):
            for state in ("zero", "plus", "random"):
                calls.append(["simulate", "--gate", gate, "--prep", prep, "--state", state, "--seed", "5"])
        # A starved budget (one trial for one-qubit gates, two for CNOT)
        # fails often, so the residual gate is pinned too.
        for seed in ("1", "2", "3"):
            calls.append(["simulate", "--gate", gate, "--state", "random", "--epsilon", "0.9", "--seed", seed])
    for gate in ("H", "T", "CNOT"):
        for prep in ("measured", "direct"):
            calls.append(["stats", "--gate", gate, "--prep", prep, "--trials", "50", "--seed", "9"])
    for name in ("circuit-3q.txt", "circuit-4q.txt"):
        for prep in ("measured", "direct"):
            calls.append(["run", name, "--prep", prep, "--seed", "13"])
    return [argv + ["--json"] for argv in calls]


def _invoke(argv: list[str]) -> tuple[int, dict]:
    """Run one call; circuit files resolve in the data directory."""
    real = [str(DATA / a) if a.endswith(".txt") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(real)
    report = json.loads(buf.getvalue())
    if "file" in report:
        report["file"] = Path(report["file"]).name
    return status, report


def _split(report: dict) -> tuple[dict, dict]:
    """(discrete fields, floating-point fields) of a report, nested traces included."""
    floats: dict = {}

    def strip(node, path):
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if key in FLOAT_KEYS:
                    floats[f"{path}/{key}"] = value
                else:
                    out[key] = strip(value, f"{path}/{key}")
            return out
        if isinstance(node, list):
            return [strip(v, f"{path}/{i}") for i, v in enumerate(node)]
        return node

    return strip(report, ""), floats


def _max_gap(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return float("inf")
        return max((_max_gap(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(a - b)


@pytest.fixture(scope="module")
def fixture_cases() -> list[dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(_calls())), ids=[" ".join(a[:-1]) for a in _calls()])
def test_seeded_report_matches_fixture(fixture_cases, index):
    case = fixture_cases[index]
    status, report = _invoke(case["argv"])
    assert status == case["exit"]
    got, got_floats = _split(report)
    want, want_floats = _split(case["report"])
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got_floats.keys() == want_floats.keys()
    for key, value in want_floats.items():
        assert _max_gap(got_floats[key], value) <= TOL, key


def test_fixture_covers_the_call_matrix(fixture_cases):
    assert [c["argv"] for c in fixture_cases] == _calls()


def _regenerate() -> None:
    cases = []
    for argv in _calls():
        status, report = _invoke(argv)
        cases.append({"argv": argv, "exit": status, "report": report})
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n", encoding="utf-8"
    )
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_seeded_traces.py --regenerate")
    _regenerate()
