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
gate gets fresh frames that die with its call.  A frame keeps three tables, each
filled on first use: its measured preparation as a tree of outcome nodes, its
trials keyed by the bits each drew, and its successor after each failure.  A
one-qubit frame fills its nodes in closed form (``_parity``), the
controlled-NOT's by ``qcore._collapse`` on its dense slots.
The ancilla is maximally entangled, so each Bell pair's outcome has
probability 1/4 whatever the data (Gottesman-Chuang, quant-ph/9908010) and
no trial reads the data: a trial is one draw of 4k uniforms in either
preparation mode (direct mode reads its index from the preparation's bits),
one lookup of its row by the bits it drew (``_Frame.trial``; a first visit
forms only the drawn Bell map) and one 2x2 product composing that map with
those drawn before.  The data is multiplied by the composed map and
normalised once per gate, in one pass (``qcore._apply``).  ``bell_measure``
draws from weights of its block, as an arbitrary register has no such law.  A pair
frame owes a product of two one-qubit Paulis and joins their frames' rows.
Every successor follows one rule, ``_next_frame``: a failed trial from
target t that prepared sigma_p and measured sigma_m owes t sigma_m sigma_p
t^dagger, snapped to a phased Pauli when it is one (always on two qubits),
else re-unitarised by a closed-form polar step.  A pair frame applies it to
each half and joins the two successors (``_pair_frame``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import measure as msr
from . import qcore
from .pauli import _PAULIS, PhasedPauli, SIGMA, _nearest_one_qubit, kron2, nearest_phased_pauli
from .qcore import Label, QuantumState

__all__ = [
    "BIT_DECODE", "GateSpec", "ProtocolConfig", "TrialRecord", "ProtocolTrace", "ProtocolError", "BudgetExceeded",
    "trials_needed", "prepare_ancilla_one", "bell_measure", "simulate_one_qubit", "simulate_cnot", "run_circuit",
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
# The all-|0> start of a preparation: a one-qubit gate's two ancilla qubits (scalars), the controlled-NOT's four.
_ZEROS = {1: (1 + 0j, 0j, 0j, 0j), 2: np.eye(1, 16, dtype=complex)[0]}
for _m in (*_GATE_MATRICES.values(), _ZEROS[2]):
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
    register; ``"direct"`` writes the state vector down with a uniform index
    read from the same 2k preparation uniforms a measured trial draws (a bit
    is 1 when its uniform is at least 1/2, the x-type then the z-type bit of
    each pair read in binary): statistically indistinguishable, and cheaper.
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
        if arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {arity!r}")
        if self.max_trials is not None:
            return self.max_trials
        return trials_needed(self.epsilon, arity)


#: sigma_m sigma_p at [m, p] on k qubits, exact: every entry is 0, +/-1 or +/-i.
_PRODUCTS = {k: paulis[:, None] @ paulis[None] for k, paulis in _PAULIS.items()}


def _read(us: Sequence[float], key: int = 0) -> int:
    """``key`` then the bits of ``us`` read in binary, a bit 1 when its uniform is at least 1/2: a Bell step's map
    row (as ``_draw_bell`` draws from weights 1/4, then 1/16), or a direct preparation's index code, x-type then
    z-type bit of each pair, exactly uniform as ``u < 0.5`` holds for 2^52 of the 2^53 doubles ``random()`` gives."""
    for u in us:
        key = 2 * key + (0 if u < 0.5 else 1)
    return key


def _next_frame(t: np.ndarray, k: int, prepared: int, measured: int) -> "_Frame":
    """The frame owed after a failed trial from target t: t sigma_measured sigma_prepared t^dagger."""
    product = _PRODUCTS[k][measured, prepared]
    nxt = _conjugated(t, product) if k == 1 else t.dot(product).dot(t.conj().T)  # on one qubit, as Python scalars
    pauli = _nearest_one_qubit(*nxt) if k == 1 else nearest_phased_pauli(nxt)
    if pauli is not None:
        # The controlled-NOT normalises the Paulis, and the one-qubit catalogue
        # gates close into phased Paulis after at most two trials; in floating
        # point a custom gate's chain closes too, as each failure doubles its
        # axis's angle to the failure's Pauli axis.  Snapping keeps it exact.
        return _pauli_frame(pauli)
    # One qubit: the update conjugates by the previous target, so floating-point
    # error would otherwise compound multiplicatively along the chain.
    nxt = _unitary_part(*nxt)
    nxt.setflags(write=False)
    return _Frame(None, nxt, checked=True)


def _conjugated(t: np.ndarray, p: np.ndarray) -> tuple[complex, ...]:
    """t p t^dagger for 2x2 matrices, on their entries as Python complex numbers, row-major."""
    a, b, c, d = entries = t.ravel().tolist()
    return _compose(_compose(entries, p.ravel().tolist()), (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()))


def _unitary_part(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """The unitary polar factor of an invertible 2x2 matrix m, from its entries row-major, in closed form.

    For m = u p with p positive, Cayley-Hamilton gives p^2 + |det m| = tr(p) p,
    so m + |det m| m^(-dagger) = tr(p) u, where |det m| m^(-dagger) is
    (det m / |det m|) adj(m)^dagger and tr(p)^2 = |m|_F^2 + 2 |det m|.
    """
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


class _Frame:
    """The gate still owed to k data qubits, and three tables a trial from it reads, each filled on first use.

    ``key`` is the target as a phased Pauli on a frame interned on it, else
    None.  ``nodes`` is the measured preparation as a binary tree of
    outcomes: the node the bits drawn so far reach, keyed 1 then those bits,
    holds its next measurement's (p0, p0 + p1, post-measurement vectors), a
    one-qubit frame's filled in closed form as 4-tuples of Python scalars.
    ``rows`` holds the trials, keyed by the bits each drew: the node its
    preparation reached, or in direct mode the index code it wrote down, then
    its Bell bits, so measured keys lie in [16^k, 2 * 16^k) and direct ones
    below 16^k.  ``successors`` holds the frame after each failed trial, at
    code prepared * 4^k + measured (``after``); codes (j, 0) and (0, j) owe
    one gate and share one.  A pair frame, one with a two-qubit key, owes a
    product of two one-qubit Paulis: its ``halves`` are their frames, the
    first carrying the whole phase, and it holds no nodes or rows but joins a
    row of each half's, as 16 rows for each of its ancillas would hold
    several times the memory of every other frame's.  Interned frames link
    only to interned frames and the 6 others T reaches, so a custom gate's
    frames are garbage once its call returns.  A target ``checked`` unitary
    (a ``GateSpec``'s, or the polar step's) is not checked again.
    """

    def __init__(self, key: Optional[PhasedPauli], target: np.ndarray, checked: bool = False):
        self.key, self.target, self.checked = key, target, checked
        self.k = 1 if len(target) == 2 else 2
        self.halves = None
        if self.k == 2 and key is not None:
            (p, q), phase = key.indices, key.phase
            self.halves = (_pauli_frame(PhasedPauli(phase, (p,))), _pauli_frame(PhasedPauli(1, (q,))))
        self._instruments: Optional[Sequence] = None
        self._ancillas: Optional[Sequence] = None
        self.nodes: dict[int, tuple[float, float, list]] = {}
        self.rows: dict[int, list] = {}
        self.successors: list[Optional[_Frame]] = [None] * 16**self.k

    def instruments(self) -> Sequence:
        """The preparation's 2k binaries, formed once: one qubit's x then z parity binary (I +/- A (x) B) / 2 as the
        entries of A and B = t A t^dagger (B checked as ``measure.solve_two_qubit_parity_form`` checks it), or one array."""
        if self._instruments is None:
            if self.k == 1:
                u = self.target if self.checked else qcore._require_unitary(self.target, 2)
                self._instruments = [(a.ravel().tolist(), msr._unit_observable(*_conjugated(u, a)))
                                     for a in SIGMA[1::2]]
            else:  # the controlled-NOT's; a pair frame prepares through its halves
                self._instruments = np.array([[qcore.embed(p.matrix, m.labels, _PREP2) for p in m.slots()]
                                              for m in msr.cnot_measurement_set(labels=_PREP2)])
        return self._instruments

    def ancillas(self) -> Sequence:
        """The 4^k ancillas direct mode writes down, by index code, formed in one exact product on first use."""
        if self._ancillas is None:
            ancillas = qcore._bell_amplitudes(self.target @ _PAULIS[self.k])
            self._ancillas = list(map(tuple, ancillas.tolist())) if self.k == 1 else ancillas  # one qubit's as scalars
        return self._ancillas

    def walk(self, us: Sequence[float]) -> tuple[int, Sequence[complex]]:
        """The node and ancilla vector one measured preparation reaches, drawn as ``qcore._draw2`` draws,
        a uniform a step, from the all-|0> start; a walk on uniforms drawn from a random stream draws the
        same bits and reaches the same state as running the measurements afresh on that stream."""
        nodes, vector, node = self.nodes, _ZEROS[self.k], 1
        for u in us[:2 * self.k]:
            branch = nodes.get(node)
            if branch is None:
                binary = self.instruments()[node.bit_length() - 1]
                (p0, p1), posts = _parity(vector, *binary) if self.k == 1 else qcore._collapse(vector, binary)
                if p0 + p1 < qcore.STRUCT_TOL:  # _draw2's guard, run once per node
                    raise ValueError("degenerate state: all outcome probabilities vanish")
                branch = nodes[node] = (p0, p0 + p1, posts)
            p0, total, posts = branch
            b = 0 if u * total < p0 else 1
            vector, node = posts[b], 2 * node + b
        return node, vector

    def row(self, prep: int, us: Sequence[float]) -> list:
        """The trial from ``prep`` whose Bell bits the uniforms ``us`` draw, formed on first draw; ``prep``
        is the node a measured preparation reached, or the index code of an ancilla written down.

        Each Bell map is unitary, so every outcome has weight 4^-k whatever the
        data, and the Bell bits read in binary (``_read``) give the map.  A row
        is a list: the record's fields but its index, prepared and measured
        index codes, the drawn map (a row-major 4-tuple of Python complex
        numbers on one qubit), and the frame a failure from it leaves, which
        ``_teleport`` fills from ``after``.
        """
        key = _read(us, prep)  # prep, then the Bell bits
        row = self.rows.get(key)
        if row is None:
            k = self.k
            r = key % 4**k
            if prep < 4**k:  # written down with index code prep
                code, bits, ancilla = prep, None, self.ancillas()[prep]
            else:  # prepared by measurement: the node's bits after its leading 1, and its parent's post vector
                bits = _BITS[k][prep - 4**k]
                code, ancilla = _CODE[bits], self.nodes[prep >> 1][2][prep & 1]
            bell, index = _BITS[k][r], _INDEX[k]
            measured = _CODE[bell]
            fields = {"prepared": index[code], "outcome": index[measured], "prep_bits": bits,
                      "bell_bits": bell, "success": measured == code, "target": self.target}
            if k == 1:  # 2 (B_r anc)^T, the ancilla's amplitudes and <B_r| each read as a 2x2 matrix row-major
                m0, m1, m2, m3 = _compose(_BELL_ROWS[r].tolist(), ancilla)
                drawn = (2 * m0, 2 * m2, 2 * m1, 2 * m3)
            else:
                drawn = _BELL_MAPS[k][r].dot(ancilla).reshape(4, 4)
            row = self.rows[key] = [fields, code, measured, drawn, None]
        return row

    def measured(self, u0: float, u1: float, u2: float, u3: float) -> list:
        """A one-qubit frame's measured trial on four uniforms: once warm, one lookup of its row, keyed by
        the node the walk's arithmetic reaches through the two preparation nodes, then the Bell bits."""
        nodes = self.nodes
        node = nodes.get(1)
        if node:
            code = 2 if u0 * node[1] < node[0] else 3
            node = nodes.get(code)
            if node:
                row = self.rows.get(8 * code + (0 if u1 * node[1] < node[0] else 4) + (0 if u2 < 0.5 else 2)
                                    + (0 if u3 < 0.5 else 1))
                if row:
                    return row
        return self.row(self.walk((u0, u1))[0], (u2, u3))  # a first visit: walk, form the row and file it

    def direct(self, u0: float, u1: float, u2: float, u3: float) -> list:
        """A one-qubit frame's direct trial on four uniforms: one lookup of its row, keyed by their bits read
        in binary (``_read`` inline), the first two the index code written down and the last two the Bell bits."""
        code = (0 if u0 < 0.5 else 2) + (0 if u1 < 0.5 else 1)
        return self.rows.get(4 * code + (0 if u2 < 0.5 else 2) + (0 if u3 < 0.5 else 1)) or self.row(code, (u2, u3))

    def trial(self, mode: str, rng: np.random.Generator) -> list:
        """The row of one trial on 4k uniforms drawn at once in either mode, the preparation's 2k then the
        Bell step's 2k: a pair frame's joins a row of each half, which takes two of each in turn."""
        us = rng.random(4 * self.k).tolist()
        if self.k == 1:
            u0, u1, u2, u3 = us
            return self.measured(u0, u1, u2, u3) if mode == "measured" else self.direct(u0, u1, u2, u3)
        if self.halves:
            half = _Frame.measured if mode == "measured" else _Frame.direct
            (a, b), (u0, u1, u2, u3, u4, u5, u6, u7) = self.halves, us
            return _join(half(a, u0, u1, u4, u5), half(b, u2, u3, u6, u7), self.target)
        # the controlled-NOT's own, or a custom two-qubit target's in direct mode
        return self.row(self.walk(us)[0] if mode == "measured" else _read(us[:4]), us[4:])

    def after(self, prepared: int, measured: int) -> "_Frame":
        """The frame left by a failed trial, from the index codes it prepared and measured."""
        if prepared and not measured:
            # sigma_0 sigma_j = sigma_j sigma_0, so codes (j, 0) and (0, j) owe one gate
            prepared, measured = 0, prepared
        code = prepared * 4**self.k + measured
        nxt = self.successors[code]
        if nxt is None:
            if self.halves:  # P (x) Q owes P sigma_m sigma_p P^dagger (x) Q sigma_n sigma_q Q^dagger
                (p, q), (m, n) = divmod(prepared, 4), divmod(measured, 4)
                nxt = _pair_frame(self.halves[0].after(p, m), self.halves[1].after(q, n))
            else:
                nxt = _next_frame(self.target, self.k, prepared, measured)
            self.successors[code] = nxt
        return nxt


# At most 16 one-qubit and 64 two-qubit keys.
@lru_cache(maxsize=None)
def _pauli_frame(p: PhasedPauli) -> _Frame:
    target = p.matrix()
    target.setflags(write=False)
    return _Frame(p, target)


# At most 16 x 16 keys: the one-qubit Pauli frames.
@lru_cache(maxsize=None)
def _pair_frame(a: _Frame, b: _Frame) -> _Frame:
    """The pair frame owing a's key (x) b's key: phases multiplied, indices side by side."""
    return _pauli_frame(PhasedPauli(a.key.phase * b.key.phase, a.key.indices + b.key.indices))


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
    ``"direct"`` mode the index is the bits of two uniforms read in binary,
    as a direct trial reads it, and the state is written down.  Returns
    (state, index).  Labels other than two distinct ones are refused before
    the first draw.
    """
    labels = tuple(labels)
    if len(labels) != 2 or labels[0] == labels[1]:
        raise ValueError(f"an ancilla pair needs two distinct labels, got {labels!r}")
    frame = _Frame(None, qcore._require_unitary(u, 2), checked=True)
    if mode == "measured":
        node, ancilla = frame.walk(rng.random(2).tolist())
        j = _CODE[_BITS[1][node - 4]]
    elif mode == "direct":
        j = _read(rng.random(2).tolist())
        ancilla = frame.ancillas()[j]
    else:
        raise ValueError(f"unknown preparation mode {mode!r}")
    return QuantumState.pure(ancilla, labels), j


#: The conjugated Bell states <B_i| in bit order: row 2x + z is the Bell state
#: with x-type bit x and z-type bit z, that is B_{BIT_DECODE[(x, z)]}.
_BELL_ROWS = np.array([qcore.bell_state(BIT_DECODE[divmod(r, 2)]).data.conj() for r in range(4)])

# Bell rows of k pairs (data d_i, ancilla a_i) on a 2k-qubit ancilla
# (a_1..a_k, f_1..f_k), times 2^k (exactly) so that each map is unitary, by
# outcome (r_1..r_k): the product of outcome r's with the ancilla vector is its
# map, row (f_1..f_k), column (d_1..d_k), from the data qubits to the ancilla's free half.
_B, _I2 = _BELL_ROWS.reshape(4, 2, 2), np.eye(2)
_BELL_MAPS = {
    1: 2 * np.einsum("rda,fg->rfdag", _B, _I2).reshape(4, 4, 4),
    2: 4 * np.einsum("xca,ytb,fh,gi->xyfgctabhi", _B, _B, _I2, _I2).reshape(16, 16, 16),
}

#: Index code of the bits of one or two Bell pairs, x-type bit first in each:
#: BIT_DECODE of one pair, 4 * first + second of two.
_CODE = {**BIT_DECODE, **{a + b: 4 * BIT_DECODE[a] + BIT_DECODE[b] for a in BIT_DECODE for b in BIT_DECODE}}

#: The index of each index code as a trace reports it: one Bell pair's, or two pairs' (first, second).
_INDEX = {1: range(4), 2: [divmod(c, 4) for c in range(16)]}
#: The bits of one or two Bell pairs by map row: the row is the bits read in binary.
_BITS = {k: sorted(bits for bits in _CODE if len(bits) == 2 * k) for k in (1, 2)}


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
    rest, labels = _BELL_ROWS[r] @ block, tuple(q for q in state.labels if q not in pair)
    return _CODE[bits], QuantumState._trusted(rest / np.linalg.norm(rest), labels)


def _parity(v: Sequence[complex], a: Sequence[complex], b: Sequence[complex]) -> tuple[list[float], list]:
    """``qcore._collapse`` of two qubits' amplitudes v by the parity binary (I +/- A (x) B) / 2, in closed form on
    entries as Python complex numbers, row-major: read as a 2x2 matrix V, (A (x) B) v is A V B^T."""
    (v0, v1, v2, v3), (w0, w1, w2, w3) = v, _compose(_compose(a, v), (b[0], b[2], b[1], b[3]))
    probs, posts = [], []
    for x0, x1, x2, x3 in (((v0 + w0) / 2, (v1 + w1) / 2, (v2 + w2) / 2, (v3 + w3) / 2),
                           ((v0 - w0) / 2, (v1 - w1) / 2, (v2 - w2) / 2, (v3 - w3) / 2)):
        probs.append(p := abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2)
        posts.append((x0 * (r := 1 / math.sqrt(p)), x1 * r, x2 * r, x3 * r) if p > 0 else None)
    return probs, posts


def _join(first: list, second: list, target: np.ndarray) -> list:
    """A pair frame's row from a row of each half: codes 4a + b, bits side by side, success when the codes match."""
    (fa, pa, ma, a, _), (fb, pb, mb, b, _) = first, second
    code, measured, bits = 4 * pa + pb, 4 * ma + mb, fa["prep_bits"]
    fields = {"prepared": _INDEX[2][code], "outcome": _INDEX[2][measured], "prep_bits": None if bits is None else
              bits + fb["prep_bits"], "bell_bits": fa["bell_bits"] + fb["bell_bits"], "success": code == measured,
              "target": target}
    return [fields, code, measured, (a, b), None]


def _compose(x: tuple, y: tuple) -> tuple:
    """The product x y of 2x2 matrices held as row-major 4-tuples of Python complex numbers."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return x0 * y0 + x1 * y2, x0 * y1 + x1 * y3, x2 * y0 + x3 * y2, x2 * y1 + x3 * y3


def _teleport(frame: _Frame, state: QuantumState, qubits: tuple[Label, ...], cfg: ProtocolConfig,
              rng: np.random.Generator) -> tuple[QuantumState, ProtocolTrace]:
    """Teleport the gate owed by ``frame`` onto ``qubits`` until a trial succeeds or the budget runs out.

    The qubits are resolved, and a repeated or unknown label refused, before
    the first draw.  No trial reads the data, so the loop only composes the
    drawn maps: a 2x2 map per data qubit, after the controlled-NOT's 4x4 map
    when a gate starts from it; a failed trial's row keeps the frame it
    leaves.  Each Bell step leaves the ancilla's free half in the data qubits'
    place, so the state is multiplied by the composed map on those qubits'
    own axes and normalised, once per gate.
    """
    k, mode = frame.k, cfg.prep_mode
    axes = qcore._axes(state.labels, qubits)
    a = b = root = None
    trials: list[TrialRecord] = []
    for r in range(1, cfg.budget(k) + 1):
        fields, prepared, measured, drawn, nxt = row = frame.trial(mode, rng)
        record = object.__new__(TrialRecord)  # frozen: one dict update, not one __setattr__ per field
        record.__dict__.update(fields, index=r)
        trials.append(record)
        if k == 1:
            a = drawn if a is None else _compose(drawn, a)
        elif frame.halves:
            a, b = drawn if a is None else (_compose(drawn[0], a), _compose(drawn[1], b))
        else:  # the controlled-NOT's own 4x4 map; its failures all leave pair frames, so only a first trial's
            root = drawn
        if prepared == measured:
            break
        row[4] = frame = nxt or frame.after(prepared, measured)
    if a is None:  # the controlled-NOT's root succeeded at once: kron(I, I) M_root is M_root
        op = root
    elif k == 1:
        op = np.array(a).reshape(2, 2)
    else:
        op = kron2(*np.array((a, b)).reshape(2, 2, 2))
        op = op if root is None else op.dot(root)
    done = prepared == measured
    trace = object.__new__(ProtocolTrace)  # frozen, as a record is
    trace.__dict__.update(trials=tuple(trials), succeeded=done, residual_matrix=None if done else frame.target,
                          residual_pauli=None if done else frame.key)
    return QuantumState._trusted(qcore._apply(state.data, op, axes, normalise=True), state.labels), trace


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
    frame = _named_frame(gate.name) if gate.name in _GATE_MATRICES else _Frame(None, gate.matrix, checked=True)
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
