"""Measurement-only gate simulation by repeat-until-success teleportation.

Each trial prepares a fresh ancilla register in a gate-twisted Bell state by
measurement alone, Bell-measures the data qubit(s) against the first half of
the ancilla, and succeeds when the measured index matches the prepared one.
On failure the residual Pauli error is tracked classically and folded into
the gate attempted on the next trial, so a successful trial always leaves
exactly the requested gate applied, up to a global phase.

The gates still owed are frames (``_Frame``), interned exactly: one per
catalogue gate and one per phased Pauli on one or two qubits, which with
their successors make at most 24 one-qubit and 65 two-qubit frames; a custom
gate gets fresh frames that die with its call.  A frame keeps its preparation
plan, its ancillas' Bell maps and its successor frame after each failure.
The ancilla is maximally entangled, so each Bell pair's outcome has
probability 1/4 whatever the data (Gottesman-Chuang, quant-ph/9908010) and
no choice a trial makes depends on the data: a trial is lookups, one batched
draw of uniforms (``_Frame.prepare``) and the drawn Bell map's product with
the data block (``_bell_block``).  The maps are unitary, so the block is
normalised once per gate.  ``bell_measure`` draws from weights of its block,
as an arbitrary register has no such law.  A pair frame owes a product of
two one-qubit Paulis and joins their frames' maps.
Every successor follows one rule, ``_next_frame``: a failed trial from
target t that prepared sigma_p and measured sigma_m owes t sigma_m sigma_p
t^dagger, snapped to a phased Pauli when it is one (always on two qubits),
else re-unitarised by a closed-form polar step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import measure as msr
from . import qcore
from .pauli import _PAULIS, PhasedPauli, SIGMA, kron2, nearest_phased_pauli
from .qcore import Label, QuantumState

__all__ = [
    "BIT_DECODE",
    "GateSpec",
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

_GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "T": np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]),
    "X": SIGMA[1],
    "Y": SIGMA[2],
    "Z": SIGMA[3],
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
for _m in _GATE_MATRICES.values():
    _m.setflags(write=False)

# Internal labels of the controlled-NOT's ancilla while it is prepared by
# measurement; a trial uses only its vector, in this qubit order.
_PREP2 = ("prep0", "prep1", "prep2", "prep3")


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
    """A gate to simulate: one of the named gates or a custom 2x2 or 4x4 unitary, whose shape gives the arity."""

    name: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.matrix)
        if shape not in ((2, 2), (4, 4)):
            raise ValueError(f"expected a 2x2 or 4x4 gate matrix, got shape {shape}")
        # a read-only copy, shared by frames and trial records
        matrix = qcore._require_unitary(self.matrix, shape[0]).copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        named = _GATE_MATRICES.get(self.name)
        if named is not None and not (named.shape == matrix.shape
                                      and np.abs(matrix - named).max() <= qcore.STRUCT_TOL):
            raise ValueError(f"the matrix of a gate named {self.name!r} must be that gate's")

    @property
    def arity(self) -> int:
        return 1 if len(self.matrix) == 2 else 2

    @classmethod
    def named(cls, name: str) -> "GateSpec":
        key = name.upper()
        if key not in _GATE_MATRICES:
            raise ValueError(f"unknown gate {name!r} (expected one of {sorted(_GATE_MATRICES)})")
        return cls(key, _GATE_MATRICES[key])

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "GateSpec":
        return cls("custom", matrix)


# Every gate asks for its budget, which depends on these two values only.
@lru_cache(maxsize=64)
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


def _next_frame(t: np.ndarray, k: int, prepared: int, measured: int) -> "_Frame":
    """The frame owed after a failed trial from target t: t sigma_measured sigma_prepared t^dagger."""
    nxt = t @ _PAULIS[k][measured] @ _PAULIS[k][prepared] @ t.conj().T
    pauli = nearest_phased_pauli(nxt)
    if pauli is not None:
        # The controlled-NOT normalises the Paulis, and the one-qubit catalogue
        # gates close into phased Paulis after at most two trials; in floating
        # point a custom gate's chain closes too, as each failure doubles its
        # axis's angle to the failure's Pauli axis.  Snapping keeps it exact.
        return _pauli_frame(pauli)
    # One qubit: the update conjugates by the previous target, so floating-point
    # error would otherwise compound multiplicatively along the chain.
    nxt = _unitary_part(nxt)
    nxt.setflags(write=False)
    return _Frame(None, nxt)


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
    probabilities and post-measurement vectors, starting from the all-|0>
    vector ``start``, and the bits of a whole preparation (a leaf) to its
    ancilla's Bell maps.  ``instruments`` is one (measurements, 2, d, d)
    array of projector pairs on the whole ancilla.  Each
    entry is filled on its first visit, branches by ``qcore.measure``'s
    arithmetic, so a walk on uniforms drawn from a random stream draws the
    same bits and reaches the same state as running the measurements afresh
    on that stream.
    """

    def __init__(self, instruments: np.ndarray):
        self.instruments = instruments
        self.start = np.eye(1, instruments.shape[-1], dtype=complex)[0]
        self.branches: dict[tuple[int, ...], object] = {}

    def walk(self, us: Sequence[float]) -> tuple[tuple[int, ...], np.ndarray]:
        """The bits and ancilla vector of one preparation, drawn as ``qcore._draw2`` draws, a uniform a step."""
        vector, bits = self.start, ()
        for u in us[:len(self.instruments)]:
            branch = self.branches.get(bits)
            if branch is None:
                (p0, p1), posts = qcore._collapse(vector, self.instruments[len(bits)])
                if p0 + p1 < qcore.STRUCT_TOL:  # _draw2's guard, run once per branch
                    raise ValueError("degenerate state: all outcome probabilities vanish")
                branch = self.branches[bits] = (p0, p0 + p1, posts)
            p0, total, posts = branch
            b = 0 if u * total < p0 else 1
            vector, bits = posts[b], bits + (b,)
        return bits, vector

    def prepare(self, us: Sequence[float]) -> tuple[tuple[int, ...], np.ndarray]:
        """The bits of one walked preparation and the Bell maps of its ancilla."""
        bits, ancilla = self.walk(us)
        maps = self.branches.get(bits)
        if maps is None:
            maps = self.branches[bits] = _bell_maps(ancilla)
        return bits, maps


class _Frame:
    """The gate still owed to k data qubits, with what a trial from it needs.

    ``key`` is the target as a phased Pauli on a frame interned on it, else
    None.  A frame holds its read-only target, its measured-preparation
    plan, its Bell maps per prepared index for direct mode (filled on first
    use), and its successor frame after each failed trial, at code
    prepared * 4^k + measured, filled by ``_next_frame``; codes (j, 0) and
    (0, j) owe one gate and share one.  A pair frame, one with a two-qubit
    key, owes a product of two one-qubit Paulis: its ``halves`` are their
    frames, the first carrying the whole phase, and it prepares through
    them, forming the joint maps of each pair of leaves once (``joint``);
    direct mode pairs their maps in a ``_PairMaps``, as joint maps for all
    16 codes of every pair frame would hold about 4 MB.  Interned frames link
    only to interned frames and the 6 others T reaches, so a custom gate's
    frames are garbage once its call returns.
    """

    def __init__(self, key: Optional[PhasedPauli], target: np.ndarray):
        self.key, self.target = key, target
        self.k = 1 if len(target) == 2 else 2
        self.halves = None
        if self.k == 2 and key is not None:
            (p, q), phase = key.indices, key.phase
            self.halves = (_pauli_frame(PhasedPauli(phase, (p,))), _pauli_frame(PhasedPauli(1, (q,))))
        self._plan: Optional[_BranchTable] = None
        self.direct: list[Union[None, np.ndarray, _PairMaps]] = [None] * 4**self.k
        self.joint: dict[tuple[int, ...], np.ndarray] = {}
        self.successors: list[Optional[_Frame]] = [None] * 16**self.k

    def plan(self) -> _BranchTable:
        if self._plan is None:
            if self.k == 1:
                self._plan = _BranchTable(msr._xz_parity_slots(qcore._require_unitary(self.target, 2)))
            else:  # the controlled-NOT's; a pair frame prepares through its halves
                binaries = msr.cnot_measurement_set(labels=_PREP2)
                self._plan = _BranchTable(np.array([[qcore.embed(p.matrix, m.labels, _PREP2) for p in m.slots()]
                                                    for m in binaries]))
        return self._plan

    def ancilla(self, code: int) -> np.ndarray:
        """The 2k-qubit ancilla vector (order a_1..a_k, f_1..f_k) of index code ``code``; the target is unitary."""
        return qcore._bell_amplitudes(self.target @ _PAULIS[self.k][code])

    def maps(self, code: int) -> Union[np.ndarray, _PairMaps]:
        """The Bell maps of the ancilla prepared with index code ``code``, as ``_bell_block`` takes them."""
        maps = self.direct[code]
        if maps is None:
            if self.halves:
                maps = _PairMaps(*(half.maps(i) for half, i in zip(self.halves, divmod(code, 4))))
            else:
                maps = _bell_maps(self.ancilla(code))
            self.direct[code] = maps
        return maps

    def prepare(self, mode: str, rng: np.random.Generator,
                ) -> tuple[int, Union[np.ndarray, _PairMaps], Optional[tuple[int, ...]], list[float]]:
        """(prepared index code, Bell maps, preparation bits, Bell uniforms) of one trial.

        Measured mode draws 4k uniforms at once and walks the preparation (a
        pair frame's halves in turn) on the first 2k; direct mode draws k
        indices, the control's first, then the 2k uniforms of the Bell step.
        """
        if mode == "measured":
            us = rng.random(4 * self.k).tolist()
            if self.halves:
                a, b = self.halves
                (bits_a, maps_a), (bits_b, maps_b) = a.plan().prepare(us), b.plan().prepare(us[2:])
                bits = bits_a + bits_b
                maps = self.joint.get(bits)
                if maps is None:  # as _PairMaps forms each map
                    maps = self.joint[bits] = np.stack([kron2(maps_a[r >> 2], maps_b[r & 3]) for r in range(16)])
            else:
                bits, maps = self.plan().prepare(us)
            return _CODE[bits], maps, bits, us[2 * self.k:]
        code = int(rng.integers(0, 4))
        if self.k == 2:
            code = 4 * code + int(rng.integers(0, 4))
        return code, self.maps(code), None, rng.random(2 * self.k).tolist()

    def after(self, prepared: int, measured: int) -> "_Frame":
        """The frame left by a failed trial, from the index codes it prepared and measured."""
        if prepared and not measured:
            # sigma_0 sigma_j = sigma_j sigma_0, so codes (j, 0) and (0, j) owe one gate
            prepared, measured = 0, prepared
        code = prepared * 4**self.k + measured
        nxt = self.successors[code]
        if nxt is None:
            nxt = self.successors[code] = _next_frame(self.target, self.k, prepared, measured)
        return nxt


# At most 16 one-qubit and 64 two-qubit keys.
@lru_cache(maxsize=None)
def _pauli_frame(p: PhasedPauli) -> _Frame:
    target = p.matrix()
    target.setflags(write=False)
    return _Frame(p, target)


# At most 6 keys: the catalogue's gates.
@lru_cache(maxsize=None)
def _named_frame(name: str) -> _Frame:
    if name in ("X", "Y", "Z"):
        return _pauli_frame(PhasedPauli(1, ("IXYZ".index(name),)))
    return _Frame(None, _GATE_MATRICES[name])


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
    frame = _Frame(None, qcore._require_unitary(u, 2))
    if mode == "measured":
        bits, ancilla = frame.plan().walk(rng.random(2).tolist())
        j = BIT_DECODE[bits]
    elif mode == "direct":
        j = int(rng.integers(0, 4))
        ancilla = frame.ancilla(j)
    else:
        raise ValueError(f"unknown preparation mode {mode!r}")
    return QuantumState.pure(ancilla, labels), j


#: The conjugated Bell states <B_i| in bit order: row 2x + z is the Bell state
#: with x-type bit x and z-type bit z, that is B_{BIT_DECODE[(x, z)]}.
_BELL_ROWS = np.array([qcore.bell_state(BIT_DECODE[divmod(r, 2)]).data.conj() for r in range(4)])

# Bell rows of k pairs (data d_i, ancilla a_i) on a 2k-qubit ancilla
# (a_1..a_k, f_1..f_k), times 2^k (exactly) so that each map is unitary: their
# product with the ancilla vector lists the 4^k maps, outcome (r_1..r_k), row
# (f_1..f_k), column (d_1..d_k), from the data qubits to the ancilla's free half.
_B, _I2 = _BELL_ROWS.reshape(4, 2, 2), np.eye(2)
_BELL_MAPS = {
    1: 2 * np.einsum("rda,fg->rfdag", _B, _I2).reshape(16, 4),
    2: 4 * np.einsum("xca,ytb,fh,gi->xyfgctabhi", _B, _B, _I2, _I2).reshape(256, 16),
}

#: Index code of the bits of one or two Bell pairs, x-type bit first in each:
#: BIT_DECODE of one pair, 4 * first + second of two.
_CODE = {**BIT_DECODE, **{a + b: 4 * BIT_DECODE[a] + BIT_DECODE[b] for a in BIT_DECODE for b in BIT_DECODE}}

#: The index of each index code as a trace reports it: one Bell pair's, or two pairs' (first, second).
_INDEX = {1: range(4), 2: [divmod(c, 4) for c in range(16)]}
#: Map row and index code of the bits of one or two Bell pairs: the row is the bits read in binary.
_ROWS = {bits: (int("".join(map(str, bits)), 2), code) for bits, code in _CODE.items()}


def _bell_maps(ancilla: np.ndarray) -> np.ndarray:
    """The Bell maps of a 2k-qubit ancilla vector, of shape (outcomes, free half, data) = (4^k, 2^k, 2^k)."""
    k = 1 if ancilla.size == 4 else 2
    return (_BELL_MAPS[k] @ ancilla).reshape(4**k, 2**k, 2**k)


class _PairMaps:
    """The 16 Bell maps of two one-qubit ancillas side by side, each formed when indexed.

    Map 4 r1 + r2 is the Kronecker product of the first ancilla's map r1 and
    the second's map r2: row (f1 f2), column (d1 d2), as ``_bell_maps`` lays
    out one two-qubit ancilla's maps.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b

    def __len__(self) -> int:
        return 16

    def __getitem__(self, r: int) -> np.ndarray:
        return kron2(self.a[r >> 2], self.b[r & 3])


def _draw_bell(w: list[float], us: Sequence[float],
               variant: tuple[int, int] = (0, 0)) -> tuple[int, tuple[int, int]]:
    """Row 2x + z of a Bell outcome drawn on two uniforms from the four rows' weights, and its bits.

    The x-type then the z-type bit are drawn as two parity measurements
    would draw them; ``variant`` negates either binary's second input bit.
    """
    vx, vz = variant
    a = qcore._draw2(w[2 * vx] + w[2 * vx + 1], w[2 - 2 * vx] + w[3 - 2 * vx], us[0])
    x = a ^ vx
    px = w[2 * x] + w[2 * x + 1]
    b = qcore._draw2(w[2 * x + vz] / px, w[2 * x + 1 - vz] / px, us[1])
    return 2 * x + (b ^ vz), (a, b)


def _bell_block(block: np.ndarray, maps: Union[np.ndarray, _PairMaps], us: Sequence[float],
                ) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Bell-measure the qubits heading a ``qcore._to_front`` block through a twisted-Bell ancilla's maps.

    ``maps`` are (outcomes, free, data): map r times the block is the new
    block given outcome r, the ancilla's free half in the data qubits'
    place.  Each map is unitary, so every outcome has weight 4^-k whatever
    the block and the block keeps its norm: the bits, x-type then z-type of
    each pair in turn, take the exact law on the uniforms ``us``, each bit
    0 when its uniform is below 1/2 (as ``_draw_bell`` draws it from weights
    1/4, then 1/16 for a second pair), and only the drawn outcome's block is
    formed, left unnormalised.  Returns (outcome index code, new block, bits).
    """
    bits = tuple([0 if u < 0.5 else 1 for u in us])
    row, code = _ROWS[bits]
    return code, maps[row] @ block, bits


def _normalised(a: np.ndarray) -> np.ndarray:
    """A C-contiguous complex array scaled in place to unit norm, through its real view, allocating nothing."""
    parts = a.reshape(-1).view(np.float64)
    parts *= 1 / math.sqrt(np.dot(parts, parts))
    return a


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
    Pauli-gate ancilla instead.  The outcomes' weights, which depend on the
    register, come from the 4x4 Gram matrix of the pair's block; only the
    drawn outcome's remaining state is formed.  Returns (outcome, remaining
    state).
    """
    if tuple(variant) not in BIT_DECODE:
        raise ValueError("variant must be a pair of bits")
    if len(pair) != 2:
        raise ValueError(f"Bell measurement acts on exactly two qubits, got {len(pair)} labels")
    axes = qcore._axes(state.labels, pair)
    block = qcore._to_front(state.data, axes, 2)
    gram = block @ block.conj().T
    weights = np.einsum("ri,ij,rj->r", _BELL_ROWS, gram, _BELL_ROWS.conj()).real.tolist()
    r, bits = _draw_bell(weights, rng.random(2).tolist(), variant)
    rest = _normalised(_BELL_ROWS[r] @ block)
    return _CODE[bits], QuantumState._trusted(rest, tuple(state.labels[p] for p in axes[2:]))


def _teleport(frame: _Frame, state: QuantumState, qubits: tuple[Label, ...], cfg: ProtocolConfig,
              rng: np.random.Generator) -> tuple[QuantumState, ProtocolTrace]:
    """Teleport the gate owed by ``frame`` onto ``qubits`` until a trial succeeds or the budget runs out.

    The data qubits move to the front of the register once: each Bell step
    leaves the ancilla's free half in their place, so the block keeps its
    layout, and through unitary maps its norm, until the gate is done.
    """
    k, index = frame.k, _INDEX[frame.k]
    axes = qcore._axes(state.labels, qubits)
    block = qcore._to_front(state.data, axes, k)
    trials: list[TrialRecord] = []
    for r in range(1, cfg.budget(k) + 1):
        prepared, maps, prep_bits, us = frame.prepare(cfg.prep_mode, rng)
        measured, block, bell_bits = _bell_block(block, maps, us)
        success = measured == prepared
        trials.append(TrialRecord(r, index[prepared], index[measured], prep_bits, bell_bits, success, frame.target))
        if success:
            break
        frame = frame.after(prepared, measured)
    state = QuantumState._trusted(qcore._from_front(_normalised(block), axes), state.labels)
    if trials[-1].success:
        return state, ProtocolTrace(tuple(trials), True)
    return state, ProtocolTrace(tuple(trials), False, frame.target, frame.key)


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
    frame = _named_frame(gate.name) if gate.name in _GATE_MATRICES else _Frame(None, gate.matrix)
    return _teleport(frame, state, (qubit,), cfg, rng)


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
    return _teleport(_named_frame("CNOT"), state, tuple(qubits), cfg, rng)


def run_circuit(
    circuit: Sequence[tuple[GateSpec, tuple[Label, ...]]],
    n_qubits: int,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> tuple[QuantumState, list[ProtocolTrace], list[Label]]:
    """Execute a circuit on an all-zero register, measurement-only.

    The logical register keeps labels 0..n-1 throughout (each gate is
    teleported in place).  Raises ValueError, before any gate runs, if a
    gate's label count is not its arity or its labels are not distinct
    qubits of the register, ProtocolError, also before any gate runs, for a
    two-qubit gate other than the controlled-NOT, and BudgetExceeded with the
    partial traces if any gate exhausts its trial budget.
    """
    if type(n_qubits) is not int or not 1 <= n_qubits <= qcore.MAX_QUBITS:
        raise ValueError(f"the logical register holds between 1 and {qcore.MAX_QUBITS} qubits, got {n_qubits!r}")
    for idx, (gate, labels) in enumerate(circuit):
        if len(labels) != gate.arity:
            raise ValueError(f"gate {idx} ({gate.name}) acts on {gate.arity} qubit(s), got {len(labels)} labels")
        if any(q not in range(n_qubits) for q in labels) or len(set(labels)) != len(labels):
            raise ValueError(f"gate {idx} ({gate.name}) needs distinct qubits in 0..{n_qubits - 1}, got {labels!r}")
        if gate.arity == 2 and gate.name != "CNOT":
            raise ProtocolError("two-qubit teleportation is implemented for the controlled-NOT only")
    state = qcore.zero_state(tuple(range(n_qubits)))
    traces: list[ProtocolTrace] = []
    for idx, (gate, labels) in enumerate(circuit):
        if gate.arity == 1:
            state, trace = simulate_one_qubit(gate, state, labels[0], cfg, rng)
        else:
            state, trace = simulate_cnot(state, labels, cfg, rng)
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
