"""Measurement-only gate simulation by repeat-until-success teleportation.

Each trial prepares a fresh ancilla register in a gate-twisted Bell state by
measurement alone, Bell-measures the data qubit(s) against the first half of
the ancilla, and succeeds when the measured index matches the prepared one.
On failure the residual Pauli error is tracked classically and folded into
the gate attempted on the next trial, so a successful trial always leaves
exactly the requested gate applied, up to a global phase.

The gates still owed are interned frames (``_Frame``), one per one-qubit
target in a bounded cache, one for the controlled-NOT and one per phased
Pauli pair a failed controlled-NOT leaves.  A frame keeps its preparation
plan, its ancillas' Bell maps and its successor after each failure, so a
trial costs lookups, the random draws and one product with the data block,
kept in one layout for the whole gate.  A pair frame owes a product of two
one-qubit gates: its trials prepare each factor's ancilla through that
factor's one-qubit frame and measure both pairs in one 16-outcome Bell step.
A fresh one-qubit frame, which every trial of a custom gate meets, builds
its preparation slots from its 2x2 target in one batched pass, and its
successor by snapping to a phased Pauli or by a closed-form polar step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import measure as msr
from . import qcore
from .pauli import PhasedPauli, SIGMA, _phased_pauli_row, cnot_frame_update, kron2, nearest_phased_pauli, pauli_product
from .qcore import Label, QuantumState

__all__ = [
    "BIT_DECODE",
    "GateSpec",
    "PendingGate",
    "ProtocolConfig",
    "TrialRecord",
    "ProtocolTrace",
    "ProtocolError",
    "BudgetExceeded",
    "trials_needed",
    "prepare_ancilla_one",
    "bell_measure",
    "simulate_one_qubit",
    "simulate_cnot",
    "run_circuit",
    "direct_state",
]

#: (x-type bit, z-type bit) -> basis index for the twisted-Bell bases.
BIT_DECODE: dict[tuple[int, int], int] = {(0, 0): 0, (0, 1): 1, (1, 0): 3, (1, 1): 2}

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

_GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "T": np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]),
    "X": SIGMA[1],
    "Y": SIGMA[2],
    "Z": SIGMA[3],
    "CNOT": _CNOT,
}
for _m in _GATE_MATRICES.values():
    _m.setflags(write=False)

# Internal labels of ancilla registers while they are prepared by measurement;
# a trial uses only their vectors, in this qubit order.
_PREP1 = ("prep0", "prep1")
_PREP2 = ("prep0", "prep1", "prep2", "prep3")
_ZERO1 = qcore.zero_state(_PREP1)


class ProtocolError(Exception):
    """A protocol-level failure (unsupported gate, inconsistent register)."""


class BudgetExceeded(ProtocolError):
    """A gate ran out of trials; carries the partial traces and final state."""

    def __init__(self, message: str, traces: list["ProtocolTrace"], state: QuantumState, gate_index: int):
        super().__init__(message)
        self.traces = traces
        self.state = state
        self.gate_index = gate_index


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A gate to simulate: one of the named gates or a custom unitary."""

    name: str
    matrix: np.ndarray
    arity: int

    def __post_init__(self) -> None:
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity!r}")
        # a read-only copy, shared by frames and trial records; + 0.0 clears
        # signed zeros, so equal gates have equal frame keys
        matrix = qcore._require_unitary(self.matrix, 2**self.arity) + 0.0
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        named = _GATE_MATRICES.get(self.name)
        if named is not None and not (named.shape == matrix.shape
                                      and np.abs(matrix - named).max() <= qcore.STRUCT_TOL):
            raise ValueError(f"the matrix of a gate named {self.name!r} must be that gate's")

    @classmethod
    def named(cls, name: str) -> "GateSpec":
        key = name.upper()
        if key not in _GATE_MATRICES:
            raise ValueError(f"unknown gate {name!r} (expected one of {sorted(_GATE_MATRICES)})")
        m = _GATE_MATRICES[key]
        return cls(key, m, 1 if m.shape == (2, 2) else 2)

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "GateSpec":
        matrix = np.asarray(matrix, dtype=complex)
        arity = 1 if matrix.shape == (2, 2) else 2
        return cls("custom", matrix, arity)


def trials_needed(epsilon: float, arity: int) -> int:
    """Smallest trial budget whose overall failure probability is <= epsilon.

    A trial fails with probability 3/4 for one-qubit gates and 15/16 for the
    controlled-NOT, independently per trial.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity!r}")
    fail = 0.75 if arity == 1 else 15.0 / 16.0
    n = max(1, math.ceil(math.log(epsilon) / math.log(fail)))
    while fail**n > epsilon:
        n += 1
    while n > 1 and fail ** (n - 1) <= epsilon:
        n -= 1
    return n


@dataclass(frozen=True)
class ProtocolConfig:
    """Trial budget and preparation mode for protocol runs.

    The budget is either explicit (``max_trials``) or derived per arity from
    the failure budget ``epsilon``.  ``prep_mode`` selects how ancillas are
    prepared: ``"measured"`` runs the preparation measurements on an all-zero
    register, ``"direct"`` draws the index uniformly and writes the state
    vector down (statistically indistinguishable, useful for large runs).
    """

    epsilon: Optional[float] = 1e-9
    max_trials: Optional[int] = None
    prep_mode: str = "measured"

    def __post_init__(self) -> None:
        if self.prep_mode not in ("measured", "direct"):
            raise ValueError(f"prep_mode must be 'measured' or 'direct', got {self.prep_mode!r}")
        if self.epsilon is None and self.max_trials is None:
            raise ValueError("either epsilon or max_trials must be set")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if self.max_trials is not None and (type(self.max_trials) is not int or self.max_trials < 1):
            raise ValueError(f"max_trials must be an integer of at least 1, got {self.max_trials!r}")

    def budget(self, arity: int) -> int:
        if self.max_trials is not None:
            return self.max_trials
        return trials_needed(self.epsilon, arity)


@dataclass(frozen=True, eq=False)
class PendingGate:
    """The unitary still owed to the data qubit, one trial at a time.

    After a trial that prepared index j but measured m, the next target is
    target . sigma_m . sigma_j . target^dagger, which undoes the Pauli error
    the failed trial left behind.
    """

    target: np.ndarray
    history: tuple[tuple[int, int], ...] = ()

    def advanced(self, prepared: int, measured: int) -> "PendingGate":
        nxt = _next_target(np.ascontiguousarray(self.target), prepared, measured)
        return PendingGate(nxt, self.history + ((prepared, measured),))


def _next_target(t: np.ndarray, prepared: int, measured: int) -> np.ndarray:
    nxt = t @ SIGMA[measured] @ SIGMA[prepared] @ t.conj().T
    pauli = _phased_pauli_row(nxt, 1, 1e-10)
    if pauli is not None:
        # The catalogue gates close into phased Paulis after at most two
        # trials, and in floating point a custom gate's chain closes too:
        # each failure doubles its axis's angle to the failure's Pauli axis.
        # Snapping keeps the chain exact from then on.
        phase, row = pauli
        nxt = phase * SIGMA[row]
    else:
        # The update conjugates by the previous target, so floating-point
        # error would otherwise compound multiplicatively along the chain.
        nxt = _unitary_part(nxt)
    nxt = nxt + 0.0  # clears signed zeros, which would split equal frame keys
    nxt.setflags(write=False)
    return nxt


def _unitary_part(m: np.ndarray) -> np.ndarray:
    """The unitary polar factor of an invertible 2x2 matrix, in closed form.

    For m = u p with p positive, Cayley-Hamilton gives p^2 + |det m| = tr(p) p,
    so m + |det m| m^(-dagger) = tr(p) u, where |det m| m^(-dagger) is
    (det m / |det m|) adj(m)^dagger and tr(p)^2 = |m|_F^2 + 2 |det m|.
    """
    (a, b), (c, d) = m.tolist()
    det = a * d - b * c
    w = det / abs(det)
    scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2 + 2 * abs(det))
    return np.array([[a + w * d.conjugate(), b - w * c.conjugate()],
                     [c - w * b.conjugate(), d + w * a.conjugate()]]) / scale


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One trial of a protocol run."""

    index: int
    prepared: Union[int, tuple[int, int]]
    outcome: Union[int, tuple[int, int]]
    prep_bits: Optional[tuple[int, ...]]
    bell_bits: tuple[int, ...]
    success: bool
    target: np.ndarray

    def to_dict(self) -> dict:
        as_list = lambda v: list(v) if isinstance(v, tuple) else v
        return {
            "trial": self.index,
            "prepared": as_list(self.prepared),
            "outcome": as_list(self.outcome),
            "prep_bits": list(self.prep_bits) if self.prep_bits is not None else None,
            "bell_bits": list(self.bell_bits),
            "success": self.success,
        }


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Full record of a gate simulation: all trials plus the residual error."""

    trials: tuple[TrialRecord, ...]
    succeeded: bool
    residual_matrix: Optional[np.ndarray] = None
    residual_pauli: Optional[PhasedPauli] = None

    @property
    def total_trials(self) -> int:
        return len(self.trials)

    def to_dict(self) -> dict:
        residual_matrix = None
        if self.residual_matrix is not None and self.residual_pauli is None:
            residual_matrix = [
                [[float(z.real), float(z.imag)] for z in row] for row in self.residual_matrix
            ]
        return {
            "trials": [t.to_dict() for t in self.trials],
            "total_trials": self.total_trials,
            "succeeded": self.succeeded,
            "residual": str(self.residual_pauli) if self.residual_pauli is not None else None,
            "residual_matrix": residual_matrix,
        }


class _BranchTable:
    """Measured preparation of one frame, replayed from its outcome branches.

    The table maps the bits drawn so far to the next measurement's outcome
    probabilities and post-measurement states on the all-|0> register, and
    the bits of a whole preparation (a leaf) to its ancilla's Bell maps.
    Each entry is filled on its first visit, branches by ``qcore.measure``'s
    arithmetic, so a replay draws the same bits and reaches the same state
    as running the measurements afresh on the same random stream.
    """

    def __init__(self, instruments: tuple[tuple[np.ndarray, np.ndarray], ...], start: QuantumState):
        self.instruments = instruments
        self.start = start
        self.branches: dict[tuple[int, ...], object] = {}

    def replay(self, rng: np.random.Generator) -> tuple[tuple[int, ...], np.ndarray]:
        state, bits = self.start, ()
        for mats in self.instruments:
            branch = self.branches.get(bits)
            if branch is None:
                branch = self.branches[bits] = qcore._collapse(state, mats)
            probs, posts = branch
            b = qcore._draw2(probs[0], probs[1], rng)
            state, bits = posts[b], bits + (b,)
        return bits, state.data

    def prepare(self, rng: np.random.Generator) -> tuple[tuple[int, ...], np.ndarray]:
        """The bits of one replayed preparation and the Bell maps of its ancilla."""
        bits, ancilla = self.replay(rng)
        maps = self.branches.get(bits)
        if maps is None:
            maps = self.branches[bits] = _bell_maps(ancilla)
        return bits, maps


# The Bell maps of one ancilla, or the pair of a pair frame's two one-qubit ancillas' maps.
_Maps = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]


@lru_cache(maxsize=1)
def _cnot_prep_table() -> _BranchTable:
    binaries = msr.cnot_measurement_set(labels=_PREP2)
    mats = tuple(tuple(qcore.embed(p.matrix, m.labels, _PREP2) for p in m.slots()) for m in binaries)
    return _BranchTable(mats, qcore.zero_state(_PREP2))


class _Frame:
    """The gate still owed to k data qubits, interned, with what a trial from it needs.

    One-qubit frames are keyed on their target, two-qubit frames on the
    controlled-NOT (None) or on the phased-Pauli pair a failed trial of it
    left, with the whole phase on the first half.  A frame holds its
    read-only target, its measured-preparation plan and its Bell maps per
    prepared index for direct mode (filled on first use), and its successor
    after each failed trial, at code prepared * 4^k + measured.  A pair
    frame's ``halves`` key the one-qubit frames of its two factors: its plan
    and maps are pairs of theirs, held here to outlive the bounded cache and
    multiplied into joint maps per trial, and its successor pairs their
    one-qubit successors.  Halves and one-qubit successors are keys into the
    bounded frame cache, so no link keeps a one-qubit frame alive; the at
    most 65 two-qubit frames are never dropped and link directly.
    """

    def __init__(self, k: int, key, target: np.ndarray):
        self.k, self.key, self.target = k, key, target
        self.halves = None if k == 1 or key is None else tuple(p.matrix().tobytes() for p in key)
        self._plan: Union[_BranchTable, tuple[_BranchTable, _BranchTable], None] = None
        self.direct: list[Optional[_Maps]] = [None] * 4**k
        self.successors: list = [None] * 16**k

    def plan(self) -> Union[_BranchTable, tuple[_BranchTable, _BranchTable]]:
        if self._plan is None:
            if self.k == 1:
                slots = msr._xz_parity_slots(qcore._require_unitary(self.target, 2))
                self._plan = _BranchTable(tuple(slots), _ZERO1)
            elif self.halves:
                self._plan = tuple(_one_qubit_frame(h).plan() for h in self.halves)
            else:
                self._plan = _cnot_prep_table()
        return self._plan

    def ancilla(self, code: int) -> np.ndarray:
        """The 2k-qubit ancilla vector (order ``_PREP1``/``_PREP2``) prepared with index code ``code``."""
        if self.k == 1:
            return qcore.twisted_bell(self.target @ SIGMA[code], _PREP1).data
        j, k = divmod(code, 4)
        return qcore.twisted_bell(self.target @ kron2(SIGMA[j], SIGMA[k]), _PREP2).data

    @cached_property
    def pauli(self) -> Optional[PhasedPauli]:
        """The target as a phased Pauli, or None when it is not one."""
        return nearest_phased_pauli(self.target)

    def maps(self, code: int) -> _Maps:
        """The Bell maps of the ancilla prepared with index code ``code``."""
        maps = self.direct[code]
        if maps is None:
            if self.halves:
                maps = tuple(_one_qubit_frame(h).maps(i) for h, i in zip(self.halves, divmod(code, 4)))
            else:
                maps = _bell_maps(self.ancilla(code))
            self.direct[code] = maps
        return maps

    def prepare(self, mode: str, rng: np.random.Generator) -> tuple[int, _Maps, Optional[tuple[int, ...]]]:
        """(prepared index code, Bell maps, preparation bits) of one fresh ancilla.

        A two-qubit frame draws the control's index and then the target's; a
        pair frame returns the pair of its halves' maps.
        """
        if mode == "measured":
            if self.halves:
                (bits_a, maps_a), (bits_b, maps_b) = (half.prepare(rng) for half in self.plan())
                bits, maps = bits_a + bits_b, (maps_a, maps_b)
            else:
                bits, maps = self.plan().prepare(rng)
            return _CODE[bits], maps, bits
        code = int(rng.integers(0, 4))
        if self.k == 2:
            code = 4 * code + int(rng.integers(0, 4))
        return code, self.maps(code), None

    def after(self, prepared: int, measured: int) -> "_Frame":
        """The frame left by a failed trial, from the index codes it prepared and measured."""
        code = prepared * 4**self.k + measured
        nxt = self.successors[code]
        if nxt is None:
            if self.k == 1:
                nxt = _next_target(self.target, prepared, measured).tobytes()
            else:
                (j, k), (m, n) = divmod(prepared, 4), divmod(measured, 4)
                if self.key is None:
                    alpha, p = pauli_product(m, j)
                    beta, q = pauli_product(n, k)
                    gamma, p, q = cnot_frame_update(p, q)
                    a, b = PhasedPauli(alpha * beta * gamma, (p,)), PhasedPauli(1, (q,))
                else:
                    a, b = (_one_qubit_frame(h).after(i, o).pauli for h, i, o in zip(self.halves, (j, k), (m, n)))
                nxt = _two_qubit_frame((PhasedPauli(a.phase * b.phase, a.indices), PhasedPauli(1, b.indices)))
            self.successors[code] = nxt
        return _one_qubit_frame(nxt) if self.k == 1 else nxt


@lru_cache(maxsize=512)
def _one_qubit_frame(target_bytes: bytes) -> _Frame:
    return _Frame(1, target_bytes, np.frombuffer(target_bytes, dtype=complex).reshape(2, 2))


# At most 65 keys: the controlled-NOT or a two-qubit Pauli with its phase on the first half.
@lru_cache(maxsize=None)
def _two_qubit_frame(pair: Optional[tuple[PhasedPauli, PhasedPauli]]) -> _Frame:
    target = _CNOT if pair is None else kron2(pair[0].matrix(), pair[1].matrix())
    target.setflags(write=False)
    return _Frame(2, pair, target)


def prepare_ancilla_one(
    u: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    labels: tuple[Label, Label] = ("anc0", "anc1"),
) -> tuple[QuantumState, int]:
    """Prepare two fresh qubits in one of the four u-twisted Bell states.

    In ``"measured"`` mode the pair starts in |00> and is collapsed by the
    two commuting parity-form binaries for ``u``; the returned index is
    decoded from their bits, and cannot be chosen in advance.  In
    ``"direct"`` mode the index is drawn uniformly and the state is written
    down directly.  Returns (state, index).
    """
    frame = _one_qubit_frame((qcore._require_unitary(u, 2) + 0.0).tobytes())
    if mode == "measured":
        bits, ancilla = frame.plan().replay(rng)
        j = BIT_DECODE[bits]
    elif mode == "direct":
        j = int(rng.integers(0, 4))
        ancilla = frame.ancilla(j)
    else:
        raise ValueError(f"unknown preparation mode {mode!r}")
    # the vector is shared with the preparation plan
    return QuantumState.pure(ancilla.copy(), labels), j


#: The conjugated Bell states <B_i| in bit order: row 2x + z is the Bell state
#: with x-type bit x and z-type bit z, that is B_{BIT_DECODE[(x, z)]}.
_BELL_ROWS = np.array([qcore.bell_state(BIT_DECODE[divmod(r, 2)]).data.conj() for r in range(4)])

# Bell rows of k pairs (data d_i, ancilla a_i) on a 2k-qubit ancilla
# (a_1..a_k, f_1..f_k): their product with the ancilla vector lists the 4^k
# maps, row (r_1..r_k, f_1..f_k), column (d_1..d_k), from the data qubits to
# the ancilla's free half f.
_B, _I2 = _BELL_ROWS.reshape(4, 2, 2), np.eye(2)
_BELL_MAPS = {
    1: np.einsum("rda,fg->rfdag", _B, _I2).reshape(16, 4),
    2: np.einsum("xca,ytb,fh,gi->xyfgctabhi", _B, _B, _I2, _I2).reshape(256, 16),
}

#: Index code of the bits of one or two Bell pairs, x-type bit first in each:
#: BIT_DECODE of one pair, 4 * first + second of two.
_CODE = {**BIT_DECODE, **{a + b: 4 * BIT_DECODE[a] + BIT_DECODE[b] for a in BIT_DECODE for b in BIT_DECODE}}


def _bell_maps(ancilla: np.ndarray) -> np.ndarray:
    """The Bell maps of a 2k-qubit ancilla vector, one row per (outcome, free-half) pair."""
    k = 1 if ancilla.size == 4 else 2
    return (_BELL_MAPS[k] @ ancilla).reshape(-1, 2**k)


def _draw_bell(w: list[float], rng: np.random.Generator,
               variant: tuple[int, int] = (0, 0)) -> tuple[int, tuple[int, int]]:
    """Row 2x + z of a Bell outcome drawn from the four rows' weights, and its bits.

    The x-type then the z-type bit are drawn as two parity measurements
    would draw them; ``variant`` negates either binary's second input bit.
    """
    vx, vz = variant
    a = qcore._draw2(w[2 * vx] + w[2 * vx + 1], w[2 - 2 * vx] + w[3 - 2 * vx], rng)
    x = a ^ vx
    px = w[2 * x] + w[2 * x + 1]
    b = qcore._draw2(w[2 * x + vz] / px, w[2 * x + 1 - vz] / px, rng)
    return 2 * x + (b ^ vz), (a, b)


def _bell_measure_bits(
    state: QuantumState,
    pair: tuple[Label, Label],
    rng: np.random.Generator,
    variant: tuple[int, int] = (0, 0),
) -> tuple[int, QuantumState, tuple[int, int]]:
    """Bell-measure a pure register's pair by one local contraction.

    Each Bell row times the (4, 2^(n-2)) block of the pair's axes is the rest
    of the register given that Bell state; its squared norm is the outcome's
    weight.
    """
    pos = (state.position(pair[0]), state.position(pair[1]))
    axes = pos + tuple(p for p in range(state.n) if p not in pos)
    rows = _BELL_ROWS @ state.data.reshape((2,) * state.n).transpose(axes).reshape(4, -1)
    w = (np.abs(rows) ** 2).sum(axis=1).tolist()
    r, bits = _draw_bell(w, rng, variant)
    rest = tuple(q for q in state.labels if q not in pair)
    return BIT_DECODE[bits], QuantumState._trusted(rows[r] / np.sqrt(w[r]), rest), bits


def _bell_block(block: np.ndarray, maps: np.ndarray,
                rng: np.random.Generator) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Bell-measure the k data qubits heading a (2^k, 2^(n-k)) block against an ancilla's maps.

    Row r of the maps times the block is, flattened, the new block given outcome r (the
    ancilla's free half takes the data qubits' place); its squared norm is r's weight.
    The pairs are drawn in order, the second given the first.  Returns (outcome index code, new block, bits).
    """
    rows = (maps @ block).reshape(len(maps) // len(block), -1)
    parts = rows.view(np.float64)
    w = (parts * parts).sum(axis=1).tolist()
    r, bits = _draw_bell(w if len(w) == 4 else [sum(w[:4]), sum(w[4:8]), sum(w[8:12]), sum(w[12:])], rng)
    if len(w) == 16:
        r2, bits2 = _draw_bell(w[4 * r:4 * r + 4], rng)
        r, bits = 4 * r + r2, bits + bits2
    return _CODE[bits], (rows[r] / math.sqrt(w[r])).reshape(block.shape), bits


def _pair_block(block: np.ndarray, maps: tuple[np.ndarray, np.ndarray],
                rng: np.random.Generator) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Bell-measure the control and the target heading a (4, 2^(n-2)) block in one 16-outcome
    step over their ancillas' joint maps (rows r1 r2 f1 f2, columns d1 d2), returning as ``_bell_block``."""
    joint = (maps[0].reshape(4, 1, 2, 1, 2, 1) * maps[1].reshape(1, 4, 1, 2, 1, 2)).reshape(64, 4)
    return _bell_block(block, joint, rng)


def _to_front(data: np.ndarray, axes: tuple[int, ...], k: int) -> np.ndarray:
    """The (2^k, 2^(n-k)) block of an n-qubit vector with qubits ``axes[:k]`` at the front."""
    return data.reshape((2,) * len(axes)).transpose(axes).reshape(2**k, -1)


def _from_front(block: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The n-qubit vector of a block from ``_to_front``, its qubits back in place."""
    out = np.empty(block.size, dtype=complex)
    out.reshape((2,) * len(axes)).transpose(axes)[...] = block.reshape((2,) * len(axes))
    return out


def bell_measure(
    state: QuantumState,
    pair: tuple[Label, Label],
    rng: np.random.Generator,
    variant: tuple[int, int] = (0, 0),
) -> tuple[int, QuantumState]:
    """Bell-measure two labelled qubits of a pure register and drop them from it.

    The measurement is performed as two commuting parity-form binaries (x
    axis then z axis).  ``variant`` optionally negates the second input bit
    of either binary, which relabels the outcomes of the same four Bell
    projectors: with variant (0, 0) outcome m projects onto Bell state m,
    and the negated variants report the prepared index of the corresponding
    Pauli-gate ancilla instead.  Returns (outcome, remaining state).
    """
    if tuple(variant) not in BIT_DECODE:
        raise ValueError("variant must be a pair of bits")
    if pair[0] == pair[1]:
        raise ValueError("Bell measurement needs two distinct qubits")
    m, post, _bits = _bell_measure_bits(state, pair, rng, variant)
    return m, post


def _teleport(frame: _Frame, state: QuantumState, qubits: tuple[Label, ...], cfg: ProtocolConfig,
              rng: np.random.Generator) -> tuple[QuantumState, ProtocolTrace]:
    """Teleport the gate owed by ``frame`` onto ``qubits`` until a trial succeeds or the budget runs out.

    The data qubits move to the front of the register once: each Bell step
    leaves the ancilla's free half in their place, so the block keeps its
    layout until the gate is done.
    """
    k, index = frame.k, (range(4) if frame.k == 1 else [divmod(c, 4) for c in range(16)])
    axes = tuple(state.position(q) for q in qubits)
    axes += tuple(p for p in range(state.n) if p not in axes)
    block = _to_front(state.data, axes, k)
    trials: list[TrialRecord] = []
    for r in range(1, cfg.budget(k) + 1):
        prepared, maps, prep_bits = frame.prepare(cfg.prep_mode, rng)
        measured, block, bell_bits = (_pair_block if frame.halves else _bell_block)(block, maps, rng)
        success = measured == prepared
        trials.append(TrialRecord(r, index[prepared], index[measured], prep_bits, bell_bits, success, frame.target))
        if success:
            break
        frame = frame.after(prepared, measured)
    state = QuantumState._trusted(_from_front(block, axes), state.labels)
    if trials[-1].success:
        return state, ProtocolTrace(tuple(trials), True)
    return state, ProtocolTrace(tuple(trials), False, frame.target, frame.pauli)


def simulate_one_qubit(
    gate: GateSpec,
    state: QuantumState,
    qubit: Label,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> tuple[QuantumState, ProtocolTrace]:
    """Apply a one-qubit gate to one qubit of a pure register, by measurements only.

    Each trial Bell-measures the qubit against the first half of the
    ancilla, whose second half takes its place in the register.  Returns the
    new register (same labels and order as the input) and the trial trace.
    When the trial budget runs out the trace reports the residual gate still
    owed, canonicalised to a phased Pauli whenever it is one.
    """
    if gate.arity != 1:
        raise ValueError("expected a one-qubit gate")
    return _teleport(_one_qubit_frame(gate.matrix.tobytes()), state, (qubit,), cfg, rng)


def simulate_cnot(
    state: QuantumState,
    qubits: tuple[Label, Label],
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> tuple[QuantumState, ProtocolTrace]:
    """Apply a controlled-NOT (first label controls) to a pure register by measurements only.

    The first trial prepares four ancilla qubits with the four-measurement
    set and Bell-measures the control then the target against its first two
    qubits, whose partners take their places in the register.  Failed trials
    reduce the pending gate to a tensor product of phased Paulis, so later
    trials prepare one ancilla pair per factor and measure both in one step.
    """
    if len(qubits) != 2:
        raise ValueError(f"controlled-NOT acts on exactly two qubits, got {len(qubits)} labels")
    if qubits[0] == qubits[1]:
        raise ValueError("controlled-NOT needs two distinct qubits")
    return _teleport(_two_qubit_frame(None), state, tuple(qubits), cfg, rng)


def run_circuit(
    circuit: Sequence[tuple[GateSpec, tuple[Label, ...]]],
    n_qubits: int,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> tuple[QuantumState, list[ProtocolTrace], list[Label]]:
    """Execute a circuit on an all-zero register, measurement-only.

    The logical register keeps labels 0..n-1 throughout (each gate is
    teleported in place).  Raises ValueError, before any gate runs, if a
    gate's label count is not its arity, and BudgetExceeded with the partial
    traces if any gate exhausts its trial budget.
    """
    if type(n_qubits) is not int or not 1 <= n_qubits <= 8:
        raise ValueError(f"the logical register holds between 1 and 8 qubits, got {n_qubits!r}")
    for idx, (gate, labels) in enumerate(circuit):
        if len(labels) != gate.arity:
            raise ValueError(f"gate {idx} ({gate.name}) acts on {gate.arity} qubit(s), got {len(labels)} labels")
    state = qcore.zero_state(tuple(range(n_qubits)))
    traces: list[ProtocolTrace] = []
    for idx, (gate, labels) in enumerate(circuit):
        if gate.arity == 1:
            state, trace = simulate_one_qubit(gate, state, labels[0], cfg, rng)
        elif gate.name == "CNOT":
            state, trace = simulate_cnot(state, labels, cfg, rng)
        else:
            raise ProtocolError("two-qubit teleportation is implemented for the controlled-NOT only")
        traces.append(trace)
        if not trace.succeeded:
            raise BudgetExceeded(f"gate {idx} ({gate.name}) exhausted its trial budget", traces, state, idx)
    return state, traces, list(range(n_qubits))


def direct_state(
    circuit: Sequence[tuple[GateSpec, tuple[Label, ...]]],
    n_qubits: int,
) -> QuantumState:
    """Reference result of the same circuit applied as plain unitaries."""
    state = qcore.zero_state(tuple(range(n_qubits)))
    for gate, labels in circuit:
        state = qcore.apply_unitary(state, gate.matrix, labels)
    return state
