"""Benchmark for measureonly: end-to-end gate teleportation cost and per-layer traces.

Run from the repository root:

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload circuit-4q --seed 3 --seconds 55 --trace 0

One process, one call at a time (a closed loop with a single client), BLAS
pinned to one thread.  Each workload is set up several times (fresh import,
gate specs, one warm-up per configuration) and the median set-up time is
reported; then whole rounds run for ``--seconds`` and the end-to-end metrics
are taken, untraced.  With ``--trace 1`` a fixed number of further rounds
and the workload's CLI calls run under the span tracer, and the per-layer
metrics are printed instead.  Every output is checked against the
benchmark's own reference, the exact trial laws and the report schema.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import laws  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Package, Recorder, Workload, load_package  # noqa: E402

#: Set-ups before and again after the measured loop; the median of all of
#: them is setup_s.  Splitting them puts the two halves in different phases
#: of the host's load, which varies over seconds on a shared machine.
SETUP_REPEATS = 4
#: Gates the measured loop attempts at least, so that the 99th percentile
#: leaves at least ten samples beyond it.
MIN_GATES = 1000

BENCH_DIR = Path(__file__).resolve().parent


def commit_hash(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path) -> dict:
    return {
        "commit": commit_hash(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "loop": "closed, one client, one call at a time",
    }


def run_cli(pkg: Package, wl: Workload, seed: int, workdir: Path, validator) -> list[str]:
    """Run the workload's CLI calls in process; schema, content and determinism problems."""

    def call(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pkg.cli.main(argv)
        return code, buf.getvalue()

    problems: list[str] = []
    first = None
    for argv in wl.cli_calls(seed, workdir):
        code, out = call(argv)
        first = first or (argv, out)
        if code != 0:
            problems.append(f"cli {' '.join(argv)}: exit code {code}")
            continue
        try:
            report = json.loads(out)
        except ValueError:
            problems.append(f"cli {' '.join(argv)}: output is not JSON")
            continue
        problems += [f"cli {' '.join(argv)}: schema: {e.message}" for e in validator.iter_errors(report)]
        problems += wl.check_cli(argv, report)
    if first is not None and call(first[0])[1] != first[1]:
        problems.append(f"cli {' '.join(first[0])}: a second run with the same seed is not byte-identical")
    return problems


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, validator) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, human-readable lines)."""
    setup: list[float] = []

    def set_up() -> Package:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pkg = load_package(wl.gates)
            wl.warm_up(pkg, np.random.default_rng([seed, 4]))
            setup.append(time.perf_counter() - t0)
            # Free the previous import's modules and caches, so that peak
            # memory reflects one live package.
            gc.collect()
        return pkg

    pkg = set_up()
    rec = Recorder()
    inputs, proto = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])
    with wl.measuring(pkg, rec):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or rec.attempted < MIN_GATES:
            wl.round(pkg, inputs, proto, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured_s = time.perf_counter() - start
    pkg = set_up()
    trials_per_s = rec.trials / rec.host_s
    gate_ms = np.asarray(rec.gate_s) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (trials_per_s, "trials/s"),
        "gates_per_s": ((rec.attempted - rec.failed) / rec.host_s, "gates/s"),
        "gate_ms_p50": (float(np.percentile(gate_ms, 50)), "ms"),
        "gate_ms_p99": (float(np.percentile(gate_ms, 99)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [f"{wl.name}: {rec.attempted} gate teleportations attempted, {rec.failed} failed, "
             f"{rec.trials} trials, {len(gate_ms)} timed gates, {rec.verdicts} verify verdicts, "
             f"worst output fidelity {rec.min_fidelity!r}, {measured_s:.2f} s measured"]
    lines += [f"{wl.name}: config {config:<16} {n} gates, {secs * 1e3 / n if n else secs * 1e3 / rec.verdicts:.4f} ms "
              f"per {'gate' if n else 'verdict'}" for config, (n, secs) in rec.by_config.items()]

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as tmp:
        workdir = Path(os.path.relpath(tmp))
        if trace:
            tr, trec = tracing.Tracer(), Recorder()
            hits0, misses0 = tracing.cache_counts(pkg.protocol)
            tr.install()
            try:
                rngs = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 3])
                for _ in range(wl.trace_rounds):
                    wl.round(pkg, *rngs, trec)
                hits1, misses1 = tracing.cache_counts(pkg.protocol)
                cli_problems = run_cli(pkg, wl, seed, workdir, validator)
            finally:
                tr.uninstall()
            traced_tps = trec.trials / trec.host_s
            metrics = tracing.layer_metrics(tr, (hits1 - hits0, misses1 - misses0), trec.trials,
                                            trec.attempted - trec.failed)
            metrics["trace.overhead"] = (trials_per_s / traced_tps, "ratio")
            lines.append(f"{wl.name}: tracing overhead {trials_per_s:.1f} untraced vs {traced_tps:.1f} traced "
                         f"trials/s over {wl.trace_rounds} traced rounds")
            if tr.absent:
                lines.append(f"{wl.name}: absent layer targets: {', '.join(tr.absent)}")
            rec.errors += trec.errors
        else:
            cli_problems = run_cli(pkg, wl, seed, workdir, validator)

    problems = rec.errors + cli_problems
    for cls, tally in rec.tallies.items():
        if tally.gates:
            problems += laws.check(cls, tally)
    lines += [f"{wl.name}: {name:<32} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{wl.name}: PROBLEM {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    schema = root / "report.schema.json"
    if not (src / tracing.PACKAGE / "__init__.py").is_file() or not schema.is_file():
        print(f"error: run from the repository root; {src / tracing.PACKAGE} or {schema} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import jsonschema
    except ImportError:
        print("error: the jsonschema package is required", file=sys.stderr)
        return 2
    validator = jsonschema.Draft7Validator(json.loads(schema.read_text(encoding="utf-8")))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), validator)
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps({"meta": metadata(root), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
