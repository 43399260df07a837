"""Command-line harness: exit codes, reports, schema conformance, determinism."""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import measureonly.identities as identities
from measureonly.cli import main, parse_circuit_file
from measureonly.qcore import MAX_QUBITS

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "report.schema.json").read_text())
# Every check's (name, float.hex(deviation)) as `verify --json` reports them, in report order.
VERIFY_DEVIATIONS = Path(__file__).resolve().parent / "data" / "verify_deviations.json"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def run_json(argv):
    status, out = run_cli(argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return status, report


class TestVerify:
    def test_passes_with_default_tolerances(self):
        status, report = run_json(["verify", "--json"])
        assert status == 0
        assert report["passed"] is True
        assert report["failed_count"] == 0
        cnot_rows = [c for c in report["checks"] if c["name"].startswith("cnot conjugation")]
        assert len(cnot_rows) == 16
        assert all(c["passed"] for c in cnot_rows)

    def test_pair_sum_deviation_is_tiny(self):
        _, report = run_json(["verify", "--json"])
        row = next(c for c in report["checks"] if c["name"] == "bell pair sum (i=1)")
        assert row["deviation"] <= 1e-12

    def test_deviations_are_pinned_bit_for_bit(self):
        # the catalogue's arithmetic is shared with the protocol's frame fills, so a change there that moves
        # any deviation shows here; regenerate the fixture only when the move is meant and stated
        _, report = run_json(["verify", "--json"])
        got = [[c["name"], float.hex(c["deviation"])] for c in report["checks"]]
        assert got == json.loads(VERIFY_DEVIATIONS.read_text(encoding="utf-8"))

    def test_corrupted_sign_vector_fails_naming_the_identity(self, monkeypatch):
        monkeypatch.setattr(identities, "GAMMA", (0, 1, 1, 1))
        status, report = run_json(["verify", "--json"])
        assert status == 1
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["bell pair sum (i=2)"]

    def test_absurd_tolerance_override_fails(self):
        status, report = run_json(["verify", "--json", "--tolerance", "1e-30"])
        assert status == 1
        assert report["failed_count"] > 0

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_non_positive_tolerance_is_a_usage_error(self, tolerance, capsys):
        # a report with such a tolerance would break the schema's exclusiveMinimum
        status, out = run_cli(["verify", "--json", f"--tolerance={tolerance}"])
        assert status == 2
        assert out == ""
        assert "tolerance" in capsys.readouterr().err

    def test_text_output_summarises(self):
        status, out = run_cli(["verify"])
        assert status == 0
        assert "checks passed" in out

    def test_completes_quickly(self):
        import time

        start = time.perf_counter()
        run_cli(["verify", "--json"])
        assert time.perf_counter() - start < 5.0


class TestSimulate:
    def test_hadamard_on_zero(self):
        status, report = run_json(["simulate", "--gate", "H", "--state", "zero", "--seed", "1", "--json"])
        assert status == 0
        assert report["succeeded"] is True
        assert report["trials"] >= 1
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_cnot_on_random_state(self):
        status, report = run_json(["simulate", "--gate", "cnot", "--state", "random", "--seed", "7", "--json"])
        assert status == 0
        assert report["gate"] == "CNOT"
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_every_gate_and_mode(self):
        for gate in ("H", "T", "X", "Y", "Z", "CNOT"):
            for prep in ("measured", "direct"):
                status, report = run_json(
                    ["simulate", "--gate", gate, "--state", "random", "--seed", "3",
                     "--prep", prep, "--json"]
                )
                assert status == 0
                assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_bad_epsilon_is_a_usage_error(self):
        status, _ = run_cli(["simulate", "--gate", "H", "--epsilon", "2"])
        assert status == 2

    def test_unknown_gate_is_a_usage_error(self):
        status, _ = run_cli(["simulate", "--gate", "SWAP"])
        assert status == 2


class TestStats:
    def test_single_run_histogram(self):
        status, report = run_json(["stats", "--gate", "H", "--trials", "1", "--seed", "5", "--json"])
        assert status == 0
        assert len(report["histogram"]) == 1
        assert sum(report["histogram"].values()) == 1

    def test_mean_trials_near_four(self):
        status, report = run_json(
            ["stats", "--gate", "H", "--trials", "4000", "--seed", "0", "--prep", "direct", "--json"]
        )
        assert status == 0
        # geometric with p = 1/4: mean 4, variance 12
        standard_error = (12 / 4000) ** 0.5
        assert abs(report["mean_trials"] - 4.0) < 4 * standard_error
        assert abs(report["first_trial_success_rate"] - 0.25) < 0.03

    def test_rejects_zero_trials(self):
        status, _ = run_cli(["stats", "--gate", "H", "--trials", "0"])
        assert status == 2


class TestRun:
    def test_bell_pair_file(self, tmp_path):
        path = tmp_path / "bell.txt"
        path.write_text("H 0\nCNOT 0 1\n")
        status, report = run_json(["run", str(path), "--seed", "2", "--json"])
        assert status == 0
        assert report["completed"] is True
        assert report["n_qubits"] == 2
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert [g["gate"] for g in report["gates"]] == ["H", "CNOT"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        status, report = run_json(["run", str(path), "--json"])
        assert status == 0
        assert report["n_gates"] == 0
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_crlf_and_inline_comments(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"H 0\r\nT 1  # inline\r\n")
        status, report = run_json(["run", str(path), "--json"])
        assert status == 0
        assert report["n_gates"] == 2

    def test_identical_cnot_operands_rejected_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("H 0\nCNOT 1 1\n")
        status, _ = run_cli(["run", str(path)])
        assert status == 2
        assert "line 2" in capsys.readouterr().err

    def test_out_of_range_index_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"H {MAX_QUBITS}\n")
        status, _ = run_cli(["run", str(path)])
        assert status == 2
        assert f"line 1: qubit indices must lie in 0..{MAX_QUBITS - 1}" in capsys.readouterr().err

    def test_widest_register_runs(self, tmp_path):
        path = tmp_path / "widest.txt"
        path.write_text(f"H {MAX_QUBITS - 1}\n")
        status, report = run_json(["run", str(path), "--seed", "3", "--json"])
        assert status == 0
        assert report["n_qubits"] == MAX_QUBITS
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_schema_maxima_follow_the_qubit_cap(self):
        run = next(branch["then"]["properties"] for branch in SCHEMA["allOf"]
                   if branch["if"]["properties"]["command"]["const"] == "run")
        assert run["n_qubits"]["maximum"] == MAX_QUBITS
        assert run["gates"]["items"]["properties"]["qubits"]["items"]["maximum"] == MAX_QUBITS - 1

    def test_highest_index_runs(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("H 7\nCNOT 7 0\n")
        status, report = run_json(["run", str(path), "--seed", "3", "--json"])
        assert status == 0
        assert report["n_qubits"] == 8
        assert report["gates"][1]["qubits"] == [7, 0]
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfeH 0\n")
        status, out = run_cli(["run", str(path), "--json"])
        assert status == 2
        assert out == ""
        assert "cannot read" in capsys.readouterr().err

    def test_missing_file(self):
        status, _ = run_cli(["run", "/nonexistent/circuit.txt"])
        assert status == 2


class TestSharedArguments:
    @pytest.fixture
    def argv(self, request, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("H 0\n")
        return {
            "simulate": ["simulate", "--gate", "H"],
            "stats": ["stats", "--gate", "H", "--trials", "2"],
            "run": ["run", str(path)],
        }[request.param]

    @pytest.mark.parametrize("argv", ["simulate", "stats", "run"], indirect=True)
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        status, out = run_cli(argv + ["--seed=-1", "--json"])
        assert status == 2
        assert out == ""
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["simulate", "stats", "run"], indirect=True)
    @pytest.mark.parametrize("epsilon", ["1", "nan"])
    def test_epsilon_outside_the_open_unit_interval_is_a_usage_error(self, argv, epsilon, capsys):
        status, out = run_cli(argv + [f"--epsilon={epsilon}"])
        assert status == 2
        assert out == ""
        assert "epsilon" in capsys.readouterr().err


class TestParseCircuitFile:
    def test_parses_all_gate_names(self):
        ops = parse_circuit_file("H 0\nT 1\nX 2\nY 3\nZ 0\nCNOT 0 1\n")
        assert [g.name for g, _ in ops] == ["H", "T", "X", "Y", "Z", "CNOT"]
        assert ops[-1][1] == (0, 1)

    def test_unknown_gate_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_circuit_file("H 0\nFOO 1\n")

    def test_wrong_operand_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_circuit_file("CNOT 0\n")

    @pytest.mark.parametrize("operand", ["+1", "-1", "\u0663", "\uff10", "1_0", "\u00b2", "1.0", "0x1"])
    def test_operands_are_ascii_decimal_digits(self, operand):
        with pytest.raises(ValueError, match="line 1: qubit operands must be integers"):
            parse_circuit_file(f"H {operand}\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--json"],
            ["simulate", "--gate", "T", "--state", "random", "--seed", "11", "--json"],
            ["simulate", "--gate", "CNOT", "--state", "random", "--seed", "11", "--prep", "direct", "--json"],
            ["stats", "--gate", "H", "--trials", "50", "--seed", "4", "--json"],
        ],
    )
    def test_repeated_invocations_are_byte_identical(self, argv):
        status1, out1 = run_cli(argv)
        status2, out2 = run_cli(argv)
        assert status1 == status2
        assert out1.encode() == out2.encode()

    def test_run_command_is_byte_identical(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("H 0\nCNOT 0 1\nT 1\n")
        argv = ["run", str(path), "--seed", "9", "--json"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1.encode() == out2.encode()

    def test_different_seeds_differ(self):
        _, out1 = run_cli(["simulate", "--gate", "H", "--state", "random", "--seed", "1", "--json"])
        _, out2 = run_cli(["simulate", "--gate", "H", "--state", "random", "--seed", "2", "--json"])
        assert out1 != out2
