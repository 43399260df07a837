"""Dense linear algebra on pure states of labelled qubit registers.

Every state is a pure state vector: the protocol measures a memory prepared
in |0...0>, so no density matrix ever arises.  States carry an ordered tuple
of at most ``MAX_QUBITS`` distinct qubit labels; the first label is the most
significant bit of the basis index.  Everything here is a value: operations
return new states and never mutate their inputs, so independent protocol
runs can share nothing but code.

This module owns the register layout: ``_axes`` turns labels into tensor
axes, and no state operation builds an operator larger than 2^k x 2^k on
the k qubits it touches.  ``_apply``, which gates and :func:`apply_unitary`
go through, multiplies by such a map in one pass on the state's own axes
when the qubits are adjacent; :func:`measure` and distant qubits use the
(2^k, 2^(n-k)) block that ``_to_front`` lays out with those qubits first
and ``_from_front`` puts back.  :func:`embed` builds the full-register
operator only for the small catalogue constructions and tests.

The u-twisted Bell states, the resource of gate teleportation, are written
down in closed form by :func:`twisted_bell`.  :func:`measure` is the one
generic projective measurement; the protocol fills the controlled-NOT's
preparation by its arithmetic (``_collapse``), draws by its rule
(``_draw2``), and is tested against it.  The two structural checks the
other modules run at their public boundaries live here once:
``_require_unitary`` and ``_require_instrument``.  Every tolerance check is
written so that NaN or inf fails it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Hashable, Sequence

import numpy as np

from .pauli import SIGMA, kron2

Label = Hashable

#: Tolerance for structural checks (normalisation, projector algebra).
STRUCT_TOL = 1e-10

#: The most qubits a state may hold; a state vector of that many is 16 MiB.
MAX_QUBITS = 20

__all__ = [
    "Label",
    "STRUCT_TOL",
    "MAX_QUBITS",
    "QuantumState",
    "Projector",
    "zero_state",
    "bell_state",
    "twisted_bell",
    "embed",
    "embed_at",
    "apply_unitary",
    "measure",
    "fidelity_up_to_phase",
    "permute_to",
]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state vector on up to ``MAX_QUBITS`` labelled qubits."""

    data: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate qubit labels")
        if len(labels) > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits are supported")
        dim = 2 ** len(labels)
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        if data.shape != (dim,):
            raise ValueError(f"expected a state vector of length {dim}, got shape {data.shape}")
        norm = float(np.sqrt(np.vdot(data, data).real))
        if not abs(norm - 1.0) <= STRUCT_TOL:
            raise ValueError(f"state vector norm {norm} is not 1")

    @classmethod
    def _trusted(cls, data: np.ndarray, labels: tuple[Label, ...]) -> "QuantumState":
        """Unchecked wrap of data the library derived from a validated state."""
        state = object.__new__(cls)
        state.__dict__.update(data=data, labels=labels)
        return state

    @classmethod
    def pure(cls, vector: np.ndarray, labels: Sequence[Label]) -> "QuantumState":
        return cls(np.asarray(vector, dtype=complex), tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True, eq=False)
class Projector:
    """A projection operator supported on an ordered set of labelled qubits."""

    matrix: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate qubit labels")
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        dim = 2 ** len(labels)
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {matrix.shape}")


def zero_state(labels: Sequence[Label]) -> QuantumState:
    """The all-|0> register on the given labels."""
    labels = tuple(labels)
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits are supported")
    v = np.zeros(2 ** len(labels), dtype=complex)
    v[0] = 1.0
    return QuantumState.pure(v, labels)


def bell_state(i: int, labels: Sequence[Label] = (0, 1)) -> QuantumState:
    """Bell state number i: the second-qubit Pauli sigma_i applied to the EPR pair."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Bell index must be one of 0, 1, 2, 3, got {i!r}")
    return twisted_bell(SIGMA[i], labels)


def twisted_bell(op: np.ndarray, labels: Sequence[Label]) -> QuantumState:
    """(I (x) op) applied to k EPR pairs (a_i, f_i), in qubit order (a_1..a_k, f_1..f_k).

    Its amplitude at (a, f) is op[f, a] / sqrt(2^k), so it is written down
    directly; ``op`` must be a 2^k x 2^k unitary.
    """
    labels = tuple(labels)
    if len(labels) % 2:
        raise ValueError(f"a twisted Bell state needs an even number of qubits, got {len(labels)}")
    return QuantumState(_bell_amplitudes(_require_unitary(op, 2 ** (len(labels) // 2))), labels)


def _bell_amplitudes(ops: np.ndarray) -> np.ndarray:
    """The amplitudes of :func:`twisted_bell` for a checked unitary, or row by row for a stack of them."""
    return ops.swapaxes(-1, -2).reshape(*ops.shape[:-2], -1) / np.sqrt(ops.shape[-1])


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity that the structural checks compare against, read-only as it is shared."""
    return np.frombuffer(np.eye(dim).tobytes()).reshape(dim, dim)


def _require_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    """``u`` as a complex array; raises unless it is a dim x dim unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} gate matrix, got shape {u.shape}")
    if not np.abs(u.dot(u.conj().T) - _identity(dim)).max() <= STRUCT_TOL:
        raise ValueError("gate matrix is not unitary")
    return u


def _require_instrument(mats: Sequence[np.ndarray]) -> None:
    """Raise unless ``mats`` are Hermitian idempotents that annihilate pairwise and sum to the identity.

    ``mats`` is one (m, d, d) instrument, or a stack of them on leading axes
    checked in the same passes.  One batched product gives every P_i P_i,
    and one per projector its products with the projectors after it, so no
    temporary holds more than m matrices per member.  The first failing
    member raises its first failure, in the order: per projector
    Hermiticity then idempotency, then completeness, then the pairs i < j in
    lexicographic order; a stack's message names the member.
    """
    mats = np.asarray(mats)
    lead, m, d = mats.shape[:-3], *mats.shape[-3:-1]
    per_projector = np.stack([np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1)),
                              np.abs(mats @ mats - mats).max(axis=(-2, -1))], -1).reshape(*lead, 2 * m)
    complete = np.abs(mats.sum(axis=-3) - _identity(d)).max(axis=(-2, -1)).reshape(*lead, 1)
    pairs = [np.abs(mats[..., i, None, :, :] @ mats[..., i + 1:, :, :]).max(axis=(-2, -1)) for i in range(m - 1)]
    # per member: Hermitian 0, idempotent 0, Hermitian 1, ..., complete, then the pairs
    devs = np.concatenate([per_projector, complete, *pairs], axis=-1)
    if not devs.max() <= STRUCT_TOL:
        *member, c = np.argwhere(~(devs <= STRUCT_TOL))[0]
        if c < 2 * m:
            message = f"projector {c // 2} is not {('Hermitian', 'idempotent')[c % 2]}"
        elif c == 2 * m:
            message = "incomplete instrument: projectors do not sum to the identity"
        else:
            i, j = list(combinations(range(m), 2))[c - 2 * m - 1]
            message = f"projectors {i} and {j} are not mutually annihilating (max overlap {devs[(*member, c)]:.3e})"
        raise ValueError(_member(member, message))


def _member(index: Sequence[int], message: str) -> str:
    """``message``, naming the stack member at ``index`` when there is one."""
    return f"member {', '.join(map(str, index))}: {message}" if len(index) else message


def _axes(labels: tuple[Label, ...], on: Sequence[Label]) -> tuple[int, ...]:
    """The axes of the ``on`` labels in a register on ``labels``; raises on a repeated or unknown label."""
    on = tuple(on)
    if len(on) > 1 and len(set(on)) != len(on):
        raise ValueError(f"duplicate label in {on!r}: the qubits must be distinct")
    try:
        return tuple(map(labels.index, on))
    except ValueError:
        raise ValueError(f"unknown qubit label(s) {[q for q in on if q not in labels]!r}") from None


def _to_front(data: np.ndarray, axes: tuple[int, ...], k: int) -> np.ndarray:
    """The (2^k, 2^(n-k)) block of an n-qubit vector with qubits ``axes[:k]`` at the front, the others in order."""
    n = data.size.bit_length() - 1
    return data.reshape((2,) * n).transpose(axes + tuple(p for p in range(n) if p not in axes)).reshape(2**k, -1)


def _from_front(block: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The n-qubit vector of a block from ``_to_front``, its qubits back in place."""
    n, out = block.size.bit_length() - 1, np.empty(block.size, dtype=complex)
    out.reshape((2,) * n).transpose(axes + tuple(p for p in range(n) if p not in axes))[...] = block.reshape((2,) * n)
    return out


def embed_at(op: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """Embed ``op`` so it acts on the given axis positions of an n-qubit register."""
    positions = tuple(positions)
    k = len(positions)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} position(s)")
    if positions == tuple(range(n)):
        return op.copy()
    full = kron2(op, np.eye(2 ** (n - k), dtype=complex))
    # Tensor axes of `full` are the positions, then the others in order; route
    # each to its place in the register.
    order = _axes(tuple(range(n)), positions)
    order += tuple(p for p in range(n) if p not in order)
    perm = sorted(range(n), key=order.__getitem__)
    return full.reshape((2,) * (2 * n)).transpose(perm + [p + n for p in perm]).reshape(2**n, 2**n)


def embed(op: np.ndarray, on: Sequence[Label], system: Sequence[Label]) -> np.ndarray:
    """Operator acting as ``op`` on the ``on`` qubits and as identity elsewhere.

    Embedding respects label order and commutes with composition: embedding
    A then B on disjoint labels equals embedding A (x) B on the union.
    """
    on = tuple(on)
    system = tuple(system)
    return embed_at(op, _axes(system, on), len(system))


def _apply(data: np.ndarray, op: np.ndarray, axes: tuple[int, ...], normalise: bool = False) -> np.ndarray:
    """A new n-qubit vector: ``op`` on the qubits on tensor ``axes``, scaled in place to unit norm if asked.

    Consecutive qubits in order (a pair in either order, its map swapped) take one product on the state's
    own (2^i, 2^k, c) view, by the numpy call cheapest at that shape: an N-D dot on small registers,
    kron(op, I_c)^T on many short rows, else ``op`` on each of the 2^i slices.  Others go to the front of a
    copy and back.
    """
    k = len(axes)
    if k == 2 and axes[0] > axes[1]:
        op, axes = op.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4), axes[::-1]
    i = axes[0] if axes else 0
    if k == 1 or axes == tuple(range(i, i + k)):
        rows, c = 1 << i, data.size >> (i + k)
        if data.size <= 64:  # on small registers numpy's N-D dot costs least
            out = np.dot(op, data.reshape(rows, -1, c)).transpose(1, 0, 2).reshape(-1)
        elif c <= 16 < rows:
            out = data.reshape(rows, -1).dot(kron2(op, _identity(c)).T).reshape(-1)
        else:
            out = (op @ data.reshape(rows, -1, c)).reshape(-1)
    else:
        out = _from_front(op.dot(_to_front(data, axes, k)), axes)
    if normalise:  # through the real view, allocating nothing
        parts = out.view(np.float64)
        parts *= 1 / math.sqrt(parts.dot(parts))
    return out


def apply_unitary(state: QuantumState, op: np.ndarray, on: Sequence[Label]) -> QuantumState:
    """Apply a unitary to the given qubits of a state, at O(4^k 2^n) cost for k qubits."""
    op = _require_unitary(op, 2 ** len(on))
    return QuantumState.pure(_apply(state.data, op, _axes(state.labels, on)), state.labels)


def measure(
    state: QuantumState,
    instrument: Sequence[Projector],
    rng: np.random.Generator,
) -> tuple[int, QuantumState, float]:
    """Sample a projective-measurement outcome and collapse a pure state.

    Parameters
    ----------
    state:
        The register to measure.
    instrument:
        Mutually annihilating projectors summing to the identity, all on the
        same label tuple (a subset of the state's labels); each acts on the
        block of those qubits.  Every call validates the instrument
        (Hermiticity, idempotency, completeness, mutual annihilation) before
        sampling, and raises ValueError on the first property that fails.
    rng:
        Explicit random stream; outcome ``i`` is drawn with probability
        <psi|P_i|psi>.

    Returns
    -------
    (outcome, post, prob):
        The sampled outcome index, the collapsed state P_i|psi> / sqrt(p_i),
        and p_i.
    """
    projs = tuple(instrument)
    if not projs:
        raise ValueError("empty instrument")
    on = projs[0].labels
    if any(p.labels != on for p in projs):
        raise ValueError("instrument projectors must share one label tuple")
    axes = _axes(state.labels, on)
    mats = np.stack([p.matrix for p in projs])
    _require_instrument(mats)
    probs, posts = _collapse(_to_front(state.data, axes, len(on)), mats)
    outcome = _draw(probs, rng)
    return outcome, QuantumState._trusted(_from_front(posts[outcome], axes), state.labels), probs[outcome]


def _collapse(block: np.ndarray, mats: np.ndarray) -> tuple[list[float], list]:
    """Every outcome's probability <psi|P_i|psi> and collapsed block (None unless p_i > 0).

    ``block`` is a state vector, or its block from ``_to_front``, whose
    leading index the (m, d, d) stack of projectors ``mats`` acts on; one
    stacked product forms every outcome.  This is the arithmetic of
    :func:`measure`, which draws one outcome from it.
    """
    shots = mats.reshape(-1, len(block)).dot(block).reshape(len(mats), *block.shape)
    probs = [float(np.vdot(v, v).real) for v in shots]
    posts = [v / math.sqrt(p) if p > 0 else None for v, p in zip(shots, probs)]
    return probs, posts


def _draw(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Outcome drawn in proportion to ``probs`` from one ``rng.random()`` u: the package's sampling rule.

    Of two outcomes it is 0 exactly when ``u * total < p0``, as ``_draw2``, ``protocol._Frame.walk`` and
    ``protocol._Frame.row``'s Bell bits (``u < 0.5``: p0 / total is 1/2) write inline, each pinned against this
    one (``test_two_outcome_draw_is_the_general_draw``, ``TestBranchTables``, ``TestBellOutcomeLaw``).
    """
    total_p = sum(probs)
    if total_p < STRUCT_TOL:
        raise ValueError("degenerate state: all outcome probabilities vanish")
    r = rng.random() * total_p
    outcome = 0
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        outcome = i
        if r < acc:
            break
    if probs[outcome] <= 0.0:
        # numerically possible only when r lands beyond the last positive bin
        outcome = int(np.argmax(probs))
    return outcome


def _draw2(p0: float, p1: float, u: float) -> int:
    """Two-outcome form of :func:`_draw` on its uniform ``u``, with the same arithmetic and the same outcome.

    ``_draw``'s fallback cannot fire here: if p1 <= 0 then r < p0 + p1 <= p0.
    """
    total_p = p0 + p1
    if total_p < STRUCT_TOL:
        raise ValueError("degenerate state: all outcome probabilities vanish")
    return 0 if u * total_p < p0 else 1


def fidelity_up_to_phase(a: QuantumState, b: QuantumState) -> float:
    """Fidelity |<a|b>|^2 between two pure states on the same labels, blind to global phase."""
    if set(a.labels) != set(b.labels) or a.n != b.n:
        raise ValueError(f"label mismatch: {a.labels!r} vs {b.labels!r}")
    f = float(abs(np.vdot(a.data, permute_to(b, a.labels).data)) ** 2)
    return min(max(f, 0.0), 1.0)


def permute_to(state: QuantumState, new_labels: Sequence[Label]) -> QuantumState:
    """Reorder the qubit axes of a state to the given label order."""
    new = tuple(new_labels)
    if new == state.labels:
        return state
    if set(new) != set(state.labels) or len(new) != state.n:
        raise ValueError(f"label mismatch: {new!r} is not a permutation of {state.labels!r}")
    return QuantumState._trusted(_to_front(state.data, _axes(state.labels, new), state.n).reshape(-1), new)
