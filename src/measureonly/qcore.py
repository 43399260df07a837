"""Dense linear algebra on pure states of labelled qubit registers.

Every state is a pure state vector: the protocol measures a memory prepared
in |0...0>, so no density matrix ever arises.  States carry an ordered tuple
of distinct qubit labels; the first label is the most significant bit of the
basis index.  Everything here is a value: operations return new states and
never mutate their inputs, so independent protocol runs can share nothing
but code.

The u-twisted Bell states, the resource of gate teleportation, are written
down in closed form by :func:`twisted_bell`.  The two structural checks the
other modules run at their public boundaries live here once:
``_require_unitary`` and ``_require_instrument``.  Every tolerance check is
written so that NaN or inf fails it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Hashable, Sequence

import numpy as np

from .pauli import SIGMA, kron2

Label = Hashable

#: Tolerance for structural checks (normalisation, projector algebra).
STRUCT_TOL = 1e-10

__all__ = [
    "Label",
    "STRUCT_TOL",
    "QuantumState",
    "Projector",
    "zero_state",
    "epr_state",
    "bell_state",
    "twisted_bell",
    "embed",
    "embed_at",
    "apply_unitary",
    "measure",
    "fidelity_up_to_phase",
    "tensor",
    "permute_to",
    "relabel",
    "factor_out",
]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state vector on up to eight labelled qubits."""

    data: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate qubit labels")
        if len(labels) > 8:
            raise ValueError("at most 8 qubits are supported")
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

    def position(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}") from None


@dataclass(frozen=True, eq=False)
class Projector:
    """A projection operator supported on an ordered set of labelled qubits."""

    matrix: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        dim = 2 ** len(labels)
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {matrix.shape}")


def zero_state(labels: Sequence[Label]) -> QuantumState:
    """The all-|0> register on the given labels."""
    v = np.zeros(2 ** len(tuple(labels)), dtype=complex)
    v[0] = 1.0
    return QuantumState.pure(v, labels)


def epr_state(labels: Sequence[Label] = (0, 1)) -> QuantumState:
    """The maximally entangled pair (|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
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
    op = _require_unitary(op, 2 ** (len(labels) // 2))
    return QuantumState(op.T.reshape(-1) / np.sqrt(len(op)), labels)


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity that the structural checks compare against, read-only as it is shared."""
    return np.frombuffer(np.eye(dim).tobytes()).reshape(dim, dim)


def _require_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    """``u`` as a complex array; raises unless it is a dim x dim unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} gate matrix, got shape {u.shape}")
    if not np.abs(u @ u.conj().T - _identity(dim)).max() <= STRUCT_TOL:
        raise ValueError("gate matrix is not unitary")
    return u


def _require_instrument(mats: Sequence[np.ndarray]) -> None:
    """Raise unless ``mats`` are Hermitian idempotents that annihilate pairwise and sum to the identity."""
    for i, m in enumerate(mats):
        if not np.abs(m - m.conj().T).max() <= STRUCT_TOL:
            raise ValueError(f"projector {i} is not Hermitian")
        if not np.abs(m @ m - m).max() <= STRUCT_TOL:
            raise ValueError(f"projector {i} is not idempotent")
    if not np.abs(sum(mats) - _identity(len(mats[0]))).max() <= STRUCT_TOL:
        raise ValueError("incomplete instrument: projectors do not sum to the identity")
    for i, j in combinations(range(len(mats)), 2):
        overlap = np.abs(mats[i] @ mats[j]).max()
        if not overlap <= STRUCT_TOL:
            raise ValueError(
                f"projectors {i} and {j} are not mutually annihilating (max overlap {overlap:.3e})"
            )


def embed_at(op: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """Embed ``op`` so it acts on the given axis positions of an n-qubit register."""
    positions = tuple(positions)
    k = len(positions)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} position(s)")
    if len(set(positions)) != k or any(not 0 <= p < n for p in positions):
        raise ValueError(f"invalid positions {positions!r} for {n} qubits")
    full = kron2(op, np.eye(2 ** (n - k), dtype=complex))
    # Tensor axes of `full` are ordered (positions..., rest...); route each to
    # its place in the register.
    src = list(positions) + [p for p in range(n) if p not in positions]
    perm = np.argsort(src)
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(tuple(perm) + tuple(perm + n))
    return t.reshape(2**n, 2**n)


def embed(op: np.ndarray, on: Sequence[Label], system: Sequence[Label]) -> np.ndarray:
    """Operator acting as ``op`` on the ``on`` qubits and as identity elsewhere.

    Embedding respects label order and commutes with composition: embedding
    A then B on disjoint labels equals embedding A (x) B on the union.
    """
    system = tuple(system)
    on = tuple(on)
    if len(set(on)) != len(on):
        raise ValueError(f"duplicate label in {on!r}")
    missing = [q for q in on if q not in system]
    if missing:
        raise ValueError(f"unknown qubit label(s) {missing!r}")
    return embed_at(op, tuple(system.index(q) for q in on), len(system))


def apply_unitary(state: QuantumState, op: np.ndarray, on: Sequence[Label]) -> QuantumState:
    """Apply a unitary to the given qubits of a state."""
    return QuantumState.pure(embed(op, on, state.labels) @ state.data, state.labels)


def _instrument_matrices(state: QuantumState, instrument: Sequence[Projector]) -> list[np.ndarray]:
    projs = list(instrument)
    if not projs:
        raise ValueError("empty instrument")
    base = projs[0].labels
    for p in projs:
        if p.labels != base:
            raise ValueError("instrument projectors must share one label tuple")
    if base == state.labels:
        return [p.matrix for p in projs]
    return [embed(p.matrix, base, state.labels) for p in projs]


def measure(
    state: QuantumState,
    instrument: Sequence[Projector],
    rng: np.random.Generator,
    *,
    check: bool = True,
) -> tuple[int, QuantumState, float]:
    """Sample a projective-measurement outcome and collapse a pure state.

    Parameters
    ----------
    state:
        The register to measure.
    instrument:
        Mutually annihilating projectors summing to the identity, all on the
        same label tuple (a subset of the state's labels; they are embedded
        automatically).
    rng:
        Explicit random stream; outcome ``i`` is drawn with probability
        <psi|P_i|psi>.
    check:
        When true, validate the instrument (idempotency, Hermiticity, mutual
        annihilation, completeness) before sampling.

    Returns
    -------
    (outcome, post, prob):
        The sampled outcome index, the collapsed state P_i|psi> / sqrt(p_i),
        and p_i.
    """
    instrument = tuple(instrument)
    mats = _instrument_matrices(state, instrument)
    if check:
        _require_instrument([p.matrix for p in instrument])
    probs, posts = _collapse(state, mats)
    outcome = _draw(probs, rng)
    return outcome, posts[outcome], probs[outcome]


def _collapse(state: QuantumState, mats: Sequence[np.ndarray]) -> tuple[list[float], list]:
    """Every outcome's probability <psi|P_i|psi> and collapsed pure state (None unless p_i > 0).

    ``mats`` are full-register projector matrices.  This is the arithmetic
    of :func:`measure`, which draws one outcome from it.
    """
    shots = [m @ state.data for m in mats]
    probs = [float(np.vdot(v, v).real) for v in shots]
    posts = [QuantumState._trusted(v / np.sqrt(p), state.labels) if p > 0 else None
             for v, p in zip(shots, probs)]
    return probs, posts


def _draw(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Outcome drawn in proportion to ``probs`` from one ``rng.random()``: the package's one sampling rule."""
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


def _draw2(p0: float, p1: float, rng: np.random.Generator) -> int:
    """Two-outcome form of :func:`_draw`, with the same arithmetic and the same outcome.

    ``_draw``'s fallback cannot fire here: if p1 <= 0 then r < p0 + p1 <= p0.
    """
    total_p = p0 + p1
    if total_p < STRUCT_TOL:
        raise ValueError("degenerate state: all outcome probabilities vanish")
    return 0 if rng.random() * total_p < p0 else 1


def fidelity_up_to_phase(a: QuantumState, b: QuantumState) -> float:
    """Fidelity |<a|b>|^2 between two pure states on the same labels, blind to global phase."""
    if set(a.labels) != set(b.labels) or a.n != b.n:
        raise ValueError(f"label mismatch: {a.labels!r} vs {b.labels!r}")
    f = float(abs(np.vdot(a.data, permute_to(b, a.labels).data)) ** 2)
    return min(max(f, 0.0), 1.0)


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product of two registers with disjoint labels."""
    if set(a.labels) & set(b.labels):
        raise ValueError("tensor factors must have disjoint labels")
    labels = a.labels + b.labels
    if len(labels) > 8:
        raise ValueError("at most 8 qubits are supported")
    return QuantumState._trusted(np.multiply.outer(a.data, b.data).reshape(-1), labels)


def permute_to(state: QuantumState, new_labels: Sequence[Label]) -> QuantumState:
    """Reorder the qubit axes of a state to the given label order."""
    new = tuple(new_labels)
    if new == state.labels:
        return state
    if set(new) != set(state.labels) or len(new) != state.n:
        raise ValueError(f"label mismatch: {new!r} is not a permutation of {state.labels!r}")
    perm = [state.labels.index(q) for q in new]
    return QuantumState._trusted(state.data.reshape((2,) * state.n).transpose(perm).reshape(-1), new)


def relabel(state: QuantumState, mapping: dict[Label, Label]) -> QuantumState:
    """Rename qubit labels in place (order and data unchanged)."""
    new = tuple(mapping.get(q, q) for q in state.labels)
    if len(set(new)) != len(new):
        raise ValueError("duplicate qubit labels")
    return QuantumState._trusted(state.data, new)


def factor_out(
    state: QuantumState,
    on: Sequence[Label],
    vec: np.ndarray,
    *,
    tol: float = 1e-8,
) -> QuantumState:
    """Remove the ``on`` qubits by contracting them against a fixed pure state.

    The register must actually factor as ``vec`` on the ``on`` qubits times a
    remainder (as it does right after a nondegenerate projective measurement);
    otherwise a ValueError is raised.  ``vec`` is given in the order of
    ``on``.  Factoring out every qubit leaves a zero-qubit state.
    """
    on = tuple(on)
    k = len(on)
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape != (2**k,):
        raise ValueError(f"expected a vector of length {2 ** k}")
    rest = tuple(q for q in state.labels if q not in on)
    if len(rest) + k != state.n:
        raise ValueError(f"labels {on!r} are not all present")
    out = vec.conj() @ permute_to(state, on + rest).data.reshape(2**k, -1)
    w = np.linalg.norm(out)
    if not abs(w - 1.0) <= tol:
        raise ValueError(f"register does not factor through the given state (weight {w**2:.6f})")
    return QuantumState.pure(out / w, rest)
