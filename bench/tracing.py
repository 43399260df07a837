"""In-memory span tracing around the package's layer boundaries.

The benchmark never edits the package.  Instead it replaces the module and
class attributes each layer is called through with wrappers that time the
call.  Spans nest on a stack: when a span ends its duration is added to its
parent's child time, and its self time (duration minus child time) to its
name.  Only these per-name aggregates are kept, so memory does not grow with
run length.

Targets are given by dotted path.  A target that no longer exists (a later
refactor may delete ``_bell_instruments_at`` or ``PendingGate``) is listed as
absent and the run goes on without it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator, Optional

PACKAGE = "measureonly"

#: Layers are the package's modules.
LAYERS = ("pauli", "qcore", "measure", "protocol", "identities", "cli")

#: (dotted target below the package, span name).  Several targets may share
#: a span name; the name's first component is its layer.
TARGETS: tuple[tuple[str, str], ...] = (
    ("pauli.nearest_phased_pauli", "pauli.nearest"),
    ("pauli.pauli_product", "pauli.product"),
    ("pauli.cnot_frame_update", "pauli.product"),
    ("qcore.measure", "qcore.measure"),
    ("qcore.QuantumState.__post_init__", "qcore.state_new"),
    ("qcore.Projector.__post_init__", "qcore.projector_new"),
    ("qcore.tensor", "qcore.tensor"),
    ("qcore.factor_out", "qcore.factor_out"),
    ("qcore.permute_to", "qcore.permute_to"),
    ("qcore.relabel", "qcore.relabel"),
    ("qcore.embed_at", "qcore.embed"),
    ("qcore.apply_unitary", "qcore.apply_unitary"),
    ("qcore.zero_state", "qcore.zero_state"),
    ("qcore.epr_state", "qcore.epr_state"),
    ("qcore.fidelity_up_to_phase", "qcore.fidelity"),
    ("measure.solve_two_qubit_parity_form", "measure.parity_form"),
    ("measure.expand_f_separate", "measure.expand"),
    ("protocol.simulate_one_qubit", "protocol.loop"),
    ("protocol.simulate_cnot", "protocol.loop"),
    ("protocol.run_circuit", "protocol.circuit"),
    ("protocol._prepare_one", "protocol.prepare_one"),
    ("protocol._prepare_two", "protocol.prepare_two"),
    ("protocol._bell_measure_bits", "protocol.bell_measure"),
    ("protocol._bell_instruments_at", "protocol.bell_instruments"),
    ("protocol.PendingGate.advanced", "protocol.frame_update"),
    ("protocol._PendingTwoQubit.advanced", "protocol.frame_update"),
    ("identities.identity_checks", "identities.checks"),
    ("cli.main", "cli.report"),
)

#: Register sizes reported for ``qcore.measure``.
MEASURE_SIZES = range(2, 9)


def _resolve(modules: dict[str, ModuleType], target: str) -> Optional[tuple[object, str, object]]:
    """(owner, attribute, current value) for a dotted target, or None if absent."""
    head, *rest = target.split(".")
    owner: object = modules.get(head)
    if owner is None or not rest:
        return None
    for name in rest[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, rest[-1], None)
    if value is None:
        return None
    return owner, rest[-1], value


def package_modules() -> dict[str, ModuleType]:
    """The package's loaded submodules by short name."""
    prefix = PACKAGE + "."
    return {name[len(prefix):]: mod for name, mod in sys.modules.items() if name.startswith(prefix)}


class Patches:
    """Replaces attributes, including every ``from x import y`` binding of them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        owners = [owner]
        if isinstance(owner, ModuleType):
            # Other package modules may hold the same function under their
            # own global name; their callers look it up there.
            owners += [
                m for m in sys.modules.values()
                if m is not owner and getattr(m, "__name__", "").split(".")[0] == PACKAGE
                and getattr(m, attr, None) is original
            ]
        for o in owners:
            self._undo.append((o, attr, original))
            setattr(o, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def timed_calls(module: ModuleType, names: tuple[str, ...], sink: list[float]) -> Iterator[None]:
    """Append the duration of every call to ``module.<name>`` to ``sink``."""
    patches = Patches()
    clock = time.perf_counter
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, **kwargs):
            t0 = clock()
            try:
                return _fn(*args, **kwargs)
            finally:
                sink.append(clock() - t0)

        patches.replace(module, name, fn, functools.wraps(fn)(wrapper))
    try:
        yield
    finally:
        patches.restore()


class Tracer:
    """Span tracer over the package's layer boundaries."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans = 0
        self.absent: list[str] = []
        self.measure_calls: dict[int, int] = defaultdict(int)
        self.measure_s: dict[int, float] = defaultdict(float)
        self.operator_bytes = 0
        self._stack: list[list[float]] = []
        self._patches = Patches()

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable]) -> Callable:
        stack, clock = self._stack, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[0]
                if after is not None:
                    after(args, kwargs, dur)

        return functools.wraps(fn)(wrapper)

    def _after_measure(self, args: tuple, kwargs: dict, dur: float) -> None:
        state = args[0] if args else kwargs.get("state")
        instrument = args[1] if len(args) > 1 else kwargs.get("instrument", ())
        n = getattr(state, "n", None)
        if n is not None:
            self.measure_calls[n] += 1
            self.measure_s[n] += dur
        try:
            for p in instrument:
                self.operator_bytes += getattr(getattr(p, "matrix", None), "nbytes", 0)
        except TypeError:
            pass  # an instrument that is not a sequence of projectors has no matrices to count

    def install(self) -> None:
        modules = package_modules()
        for target, name in TARGETS:
            found = _resolve(modules, target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            after = self._after_measure if target == "qcore.measure" else None
            self._patches.replace(owner, attr, original, self._wrap(original, name, after))

    def uninstall(self) -> None:
        self._patches.restore()
        self.spans = sum(self.calls.values())

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def cache_counts(module: Optional[ModuleType]) -> tuple[int, int]:
    """Summed (hits, misses) of every ``functools.lru_cache`` in a module."""
    hits = misses = 0
    for value in vars(module).values() if module is not None else ():
        # A traced cache is hidden behind its span wrapper.
        for candidate in (value, getattr(value, "__wrapped__", None)):
            info = getattr(candidate, "cache_info", None)
            if callable(info):
                ci = info()
                hits += ci.hits
                misses += ci.misses
                break
    return hits, misses


def layer_metrics(tr: Tracer, cache_delta: tuple[int, int], trials: int, successes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def count_and_self(name: str) -> None:
        m[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (tr.self_s.get(name, 0.0), "s")

    count_and_self("qcore.measure")
    for n in MEASURE_SIZES:
        c = tr.measure_calls.get(n, 0)
        m[f"qcore.measure.us_n{n}"] = (tr.measure_s[n] / c * 1e6 if c else 0.0, "us")
    m["qcore.measure.operator_mb"] = (tr.operator_bytes / 1e6, "MB")
    count_and_self("qcore.state_new")
    for name in ("qcore.tensor", "qcore.factor_out", "qcore.permute_to", "qcore.relabel"):
        m[f"{name}.self_s"] = (tr.self_s.get(name, 0.0), "s")
    m["qcore.embed.calls"] = (tr.calls.get("qcore.embed", 0), "count")
    for name in ("protocol.prepare_one", "protocol.prepare_two", "protocol.bell_measure",
                 "protocol.frame_update", "measure.parity_form", "measure.expand", "pauli.nearest"):
        count_and_self(name)
    m["protocol.loop.self_s"] = (tr.self_s.get("protocol.loop", 0.0), "s")
    m["protocol.success_per_trial"] = (successes / trials if trials else 0.0, "ratio")
    hits, misses = cache_delta
    m["protocol.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    checks = tr.calls.get("identities.checks", 0)
    m["identities.checks.ms"] = (tr.total_s["identities.checks"] / checks * 1e3 if checks else 0.0, "ms")
    m["identities.checks.count"] = (checks, "count")
    m["cli.report.self_s"] = (tr.self_s.get("cli.report", 0.0), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    m["trace.spans"] = (tr.spans, "count")
    m["trace.absent"] = (len(tr.absent), "count")
    return m
