"""Construction of the binary-measurement catalogue.

A binary measurement here is a two-outcome projective measurement whose
projectors have equal rank.  The interesting ones can be written as n
single-qubit measurements whose classical bits are combined by a balanced
Boolean function; this module builds those forms, the rank-one basis
measurements they compose into, and the specific four-measurement set that
prepares ancillas for the controlled-NOT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian
from typing import Optional, Sequence

import numpy as np

from . import qcore
from .pauli import SIGMA, kron2
from .qcore import Label, Projector, STRUCT_TOL, _require_instrument, _require_unitary

__all__ = [
    "GAMMA",
    "SingleQubitBinary",
    "MEAS_X",
    "MEAS_Y",
    "MEAS_Z",
    "MEAS_W",
    "BalancedBooleanFn",
    "PseudoseparateForm",
    "BinaryMeasurement",
    "CompleteMeasurement",
    "expand_f_separate",
    "parity_slots",
    "solve_two_qubit_parity_form",
    "u_basis_measurement",
    "two_qubit_u_basis_measurement",
    "u_basis_binary_pair",
    "cnot_measurement_set",
    "compose_binaries",
    "is_pseudoseparate_witness",
    "match_projector_sets",
]

#: Sign of sigma_i (x) sigma_i in the sum of the 0th and i-th Bell projectors,
#: indexed 1..3 (entry 0 is unused padding).
GAMMA: tuple[int, int, int, int] = (0, 1, -1, 1)

# Rows are sigma_x, sigma_y, sigma_z flattened: a Bloch vector times _XYZ is its
# observable, and since each sigma_a is Hermitian, _XYZ_CONJ times a flattened m
# is (tr(sigma_a m))_a.
_XYZ = np.stack(SIGMA[1:]).reshape(3, 4)
_XYZ_CONJ = _XYZ.conj()
_EYE4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class SingleQubitBinary:
    """A single-qubit binary measurement, fixed by its Bloch axis.

    Outcome 0 projects along (I + bloch . sigma) / 2, outcome 1 along the
    complement.  ``swapped()`` exchanges the outcome labels, which is the
    same measurement along the negated axis.
    """

    bloch: tuple[float, float, float]

    def __post_init__(self) -> None:
        bloch = tuple(float(x) for x in self.bloch)
        object.__setattr__(self, "bloch", bloch)
        norm = float(np.linalg.norm(bloch))
        if not abs(norm - 1.0) <= STRUCT_TOL:
            raise ValueError(f"Bloch vector norm {norm} is not 1")

    @property
    def observable(self) -> np.ndarray:
        """The +/-1 observable bloch . sigma; outcome 0 is its +1 eigenspace."""
        return (self.bloch @ _XYZ).reshape(2, 2)

    def projector(self, bit: int) -> np.ndarray:
        if bit not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        sign = 1.0 if bit == 0 else -1.0
        return (SIGMA[0] + sign * self.observable) / 2

    @property
    def p0(self) -> np.ndarray:
        return self.projector(0)

    @property
    def p1(self) -> np.ndarray:
        return self.projector(1)

    def swapped(self) -> "SingleQubitBinary":
        return SingleQubitBinary(tuple(-x for x in self.bloch))


#: The four single-qubit measurements the catalogue is built from: the x, y
#: and z axes plus the diagonal axis halfway between x and y.
MEAS_X = SingleQubitBinary((1.0, 0.0, 0.0))
MEAS_Y = SingleQubitBinary((0.0, 1.0, 0.0))
MEAS_Z = SingleQubitBinary((0.0, 0.0, 1.0))
MEAS_W = SingleQubitBinary((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0))


@dataclass(frozen=True)
class BalancedBooleanFn:
    """An n-ary Boolean function with equally many 0s and 1s.

    The truth table is indexed with the first argument as the most
    significant bit.
    """

    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(int(b) for b in self.table)
        object.__setattr__(self, "table", table)
        if self.arity < 1 or len(table) != 2**self.arity:
            raise ValueError(f"truth table length {len(table)} does not match arity {self.arity}")
        if any(b not in (0, 1) for b in table):
            raise ValueError("truth table entries must be bits")
        if sum(table) != 2 ** (self.arity - 1):
            raise ValueError("Boolean function is not balanced")

    def __call__(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} bits")
        index = 0
        for b in bits:
            index = (index << 1) | int(b)
        return self.table[index]

    @classmethod
    @lru_cache(maxsize=None)
    def parity(cls, arity: int) -> "BalancedBooleanFn":
        table = tuple(bin(i).count("1") & 1 for i in range(2**arity))
        return cls(arity, table)


@dataclass(frozen=True)
class PseudoseparateForm:
    """n single-qubit binary measurements combined by a balanced function.

    The classical outcome is f of the single-qubit bits; the quantum state
    collapses onto the subspace consistent with that one bit.
    """

    f: BalancedBooleanFn
    parts: tuple[SingleQubitBinary, ...]
    targets: tuple[Label, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        targets = tuple(self.targets)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "targets", targets)
        if len(parts) != self.f.arity or len(targets) != self.f.arity:
            raise ValueError("parts and targets must match the function arity")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target labels")


@dataclass(frozen=True, eq=False)
class BinaryMeasurement:
    """An equal-rank two-outcome projective measurement on n qubits."""

    p0: Projector
    p1: Projector
    pseudoseparate: Optional[PseudoseparateForm] = None

    def __post_init__(self) -> None:
        if self.p0.labels != self.p1.labels:
            raise ValueError("both projectors must live on the same labels")
        _require_instrument((self.p0.matrix, self.p1.matrix))
        half = len(self.p0.matrix) // 2
        for m in (self.p0.matrix, self.p1.matrix):
            if not abs(np.trace(m).real - half) <= STRUCT_TOL:
                raise ValueError(f"projector trace {np.trace(m).real} is not {half}")

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.p0.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    def slots(self) -> tuple[Projector, Projector]:
        return (self.p0, self.p1)


@dataclass(frozen=True, eq=False)
class CompleteMeasurement:
    """A complete tuple of mutually annihilating projectors."""

    projectors: tuple[Projector, ...]

    def __post_init__(self) -> None:
        projs = tuple(self.projectors)
        object.__setattr__(self, "projectors", projs)
        if not projs:
            raise ValueError("a measurement needs at least one projector")
        labels = projs[0].labels
        for p in projs:
            if p.labels != labels:
                raise ValueError("all projectors must live on the same labels")
        _require_instrument([p.matrix for p in projs])

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.projectors[0].labels

    def __len__(self) -> int:
        return len(self.projectors)


def expand_f_separate(form: PseudoseparateForm) -> BinaryMeasurement:
    """Expand a combined-single-qubit form into its explicit projector pair.

    Slot i is the sum, over all single-qubit outcome strings that f maps to
    i, of the tensor products of the corresponding single-qubit projectors.
    """
    n = form.f.arity
    dim = 2**n
    sums = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
    for bits in _cartesian((0, 1), repeat=n):
        term = np.array([[1.0 + 0j]])
        for part, bit in zip(form.parts, bits):
            term = kron2(term, part.projector(bit))
        sums[form.f(bits)] += term
    return BinaryMeasurement(
        Projector(sums[0], form.targets),
        Projector(sums[1], form.targets),
        pseudoseparate=form,
    )


def parity_slots(form: PseudoseparateForm) -> tuple[Projector, Projector]:
    """Slots (I +/- A (x) B) / 2 of a two-qubit parity form whose parts observe A and B.

    Equal to ``expand_f_separate(form).slots()``, without its expansion loop and checks.
    """
    if form.f != BalancedBooleanFn.parity(2):
        raise ValueError("expected a two-qubit parity form")
    ab = kron2(form.parts[0].observable, form.parts[1].observable)
    return Projector((_EYE4 + ab) / 2, form.targets), Projector((_EYE4 - ab) / 2, form.targets)


def _bloch_of(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch axes of a traceless Hermitian unitary 2x2 matrix or a stack of them, and their fit.

    Row k of the axes is the k-th matrix's; row k of the fit, bloch . sigma
    flattened, is that matrix to STRUCT_TOL.
    """
    bloch = (ms.reshape(-1, 4) @ _XYZ_CONJ.T).real / 2
    fit = bloch @ _XYZ
    if not np.abs(ms - fit.reshape(ms.shape)).max() <= STRUCT_TOL:
        raise ValueError("matrix is not a unit combination of the traceless Paulis")
    return bloch, fit


# First parts of the pair-sum forms by axis 1..3 (entry 0 is unused padding);
# each equals SingleQubitBinary(_bloch_of(SIGMA[i])) bit for bit.
_AXIS_PARTS = (None, MEAS_X, MEAS_Y, MEAS_Z)


def solve_two_qubit_parity_form(
    i: int,
    u: np.ndarray,
    targets: tuple[Label, Label] = (0, 1),
) -> PseudoseparateForm:
    """Parity-combined form of the rank-two pair-sum measurement for axis i.

    The expansion of the returned form equals
    (I + gamma_i (sigma_i (x) u sigma_i u^dagger)) / 2 on slot 0, with
    gamma = (1, -1, 1).  The first part measures along axis i; the sign of
    the second part is fixed to (1, gamma_i), the convention used throughout
    the catalogue.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {i!r}")
    u = _require_unitary(u, 2)
    conjugated = u @ SIGMA[i] @ u.conj().T
    second = SingleQubitBinary(tuple(_bloch_of(GAMMA[i] * conjugated)[0][0].tolist()))
    return PseudoseparateForm(BalancedBooleanFn.parity(2), (_AXIS_PARTS[i], second), targets)


# The x and z pair-sum forms of a one-qubit gate's ancilla preparation, stacked:
# gamma_i sigma_i, and +/- the first part's observable by axis and slot.
_XZ_SIGMA = np.stack([GAMMA[1] * SIGMA[1], GAMMA[3] * SIGMA[3]])
_XZ_FIRST = np.array([[s * m.observable for s in (1, -1)] for m in (MEAS_X, MEAS_Z)])


def _xz_parity_slots(u: np.ndarray) -> np.ndarray:
    """Slots of the x then the z pair-sum form of a checked 2x2 unitary, as a (2, 2, 4, 4) array.

    Entry [a, s] equals ``parity_slots(solve_two_qubit_parity_form(i, u))[s].matrix``
    bit for bit, with i = (1, 3)[a]: one Bloch fit of both second axes
    gamma_i u sigma_i u^dagger, each checked for its fit and its unit norm,
    and no form objects.
    """
    bloch, second = _bloch_of(u @ _XZ_SIGMA @ u.conj().T)
    for axis in bloch.tolist():
        norm = math.hypot(*axis)
        if not abs(norm - 1.0) <= STRUCT_TOL:
            raise ValueError(f"Bloch vector norm {norm} is not 1")
    ab = _XZ_FIRST[:, :, :, None, :, None] * second.reshape(2, 1, 1, 2, 1, 2)
    return (_EYE4 + ab.reshape(2, 2, 4, 4)) / 2


def u_basis_measurement(u: np.ndarray, labels: tuple[Label, Label] = (0, 1)) -> CompleteMeasurement:
    """The complete rank-one measurement in the u-twisted Bell basis.

    Outcome j projects onto (I (x) u sigma_j) applied to the EPR pair.
    """
    u = _require_unitary(u, 2)
    vs = (qcore.twisted_bell(u @ SIGMA[j], labels).data for j in range(4))
    return CompleteMeasurement(tuple(Projector(np.outer(v, v.conj()), labels) for v in vs))


def two_qubit_u_basis_measurement(
    u: np.ndarray,
    labels: tuple[Label, Label, Label, Label] = (1, 2, 3, 4),
) -> CompleteMeasurement:
    """The complete 16-outcome basis measurement for a two-qubit gate.

    Outcome 4j + k projects onto the state obtained from two EPR pairs
    (first with third qubit, second with fourth) by applying
    u (sigma_j (x) sigma_k) to the last two qubits.
    """
    u = _require_unitary(u, 4)
    vs = (qcore.twisted_bell(u @ kron2(SIGMA[j], SIGMA[k]), labels).data for j in range(4) for k in range(4))
    return CompleteMeasurement(tuple(Projector(np.outer(v, v.conj()), labels) for v in vs))


def u_basis_binary_pair(
    u: np.ndarray,
    labels: tuple[Label, Label] = (0, 1),
) -> tuple[BinaryMeasurement, BinaryMeasurement]:
    """Two commuting parity-form binaries equivalent to the u-basis measurement.

    The pair uses axes x and z; its four joint projectors are exactly the
    rank-one u-basis projectors, up to outcome relabelling.
    """
    u = _require_unitary(u, 2)
    mx = expand_f_separate(solve_two_qubit_parity_form(1, u, targets=labels))
    mz = expand_f_separate(solve_two_qubit_parity_form(3, u, targets=labels))
    return mx, mz


def cnot_measurement_set(
    labels: tuple[Label, Label, Label, Label] = (1, 2, 3, 4),
) -> tuple[BinaryMeasurement, BinaryMeasurement, BinaryMeasurement, BinaryMeasurement]:
    """The four binary measurements that prepare controlled-NOT ancillas.

    On four qubits (two EPR pairs: first-third and second-fourth, with the
    gate applied to the last two):

    * x parity of qubits 1, 3, 4
    * z-type Bell binary on qubits 1, 3
    * x-type Bell binary on qubits 2, 4
    * z parity of qubits 2, 3, 4

    They commute pairwise and compose to the 16-outcome basis measurement.
    Two involve three qubits, the rest two; none needs all four.
    """
    l1, l2, l3, l4 = labels
    parity3 = BalancedBooleanFn.parity(3)
    parity2 = BalancedBooleanFn.parity(2)
    m1 = expand_f_separate(PseudoseparateForm(parity3, (MEAS_X,) * 3, (l1, l3, l4)))
    m2 = expand_f_separate(PseudoseparateForm(parity2, (MEAS_Z,) * 2, (l1, l3)))
    m3 = expand_f_separate(PseudoseparateForm(parity2, (MEAS_X,) * 2, (l2, l4)))
    m4 = expand_f_separate(PseudoseparateForm(parity3, (MEAS_Z,) * 3, (l2, l3, l4)))
    return m1, m2, m3, m4


def compose_binaries(
    ms: Sequence[BinaryMeasurement],
    system: Optional[Sequence[Label]] = None,
) -> CompleteMeasurement:
    """Joint measurement of pairwise commuting binary measurements.

    Outcome index packs the individual bits with the first measurement as
    the most significant.  Raises ValueError naming the offending pair (and
    its commutator norm) if two measurements fail to commute.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one binary measurement")
    if system is None:
        seen: list[Label] = []
        for m in ms:
            for q in m.labels:
                if q not in seen:
                    seen.append(q)
        system = tuple(seen)
    else:
        system = tuple(system)
    embedded = [
        (qcore.embed(m.p0.matrix, m.labels, system), qcore.embed(m.p1.matrix, m.labels, system))
        for m in ms
    ]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = embedded[i][0], embedded[j][0]
            norm = np.abs(a @ b - b @ a).max()
            if not norm <= STRUCT_TOL:
                raise ValueError(
                    f"binary measurements {i} and {j} do not commute (commutator norm {norm:.3e})"
                )
    dim = 2 ** len(system)
    projs = []
    for bits in _cartesian((0, 1), repeat=len(ms)):
        joint = np.eye(dim, dtype=complex)
        for (slot0, slot1), bit in zip(embedded, bits):
            joint = joint @ (slot1 if bit else slot0)
        projs.append(Projector(joint, system))
    return CompleteMeasurement(tuple(projs))


def is_pseudoseparate_witness(m: BinaryMeasurement, form: PseudoseparateForm) -> bool:
    """Whether expanding ``form`` reproduces ``m`` (in either slot order)."""
    if set(form.targets) != set(m.labels):
        return False
    expanded = expand_f_separate(form)
    a0 = qcore.embed(expanded.p0.matrix, expanded.labels, m.labels)
    a1 = qcore.embed(expanded.p1.matrix, expanded.labels, m.labels)
    direct = max(np.abs(a0 - m.p0.matrix).max(), np.abs(a1 - m.p1.matrix).max())
    swapped = max(np.abs(a0 - m.p1.matrix).max(), np.abs(a1 - m.p0.matrix).max())
    return bool(min(direct, swapped) < STRUCT_TOL)


def match_projector_sets(
    a: Sequence[Projector | np.ndarray],
    b: Sequence[Projector | np.ndarray],
) -> tuple[list[int], float]:
    """Greedy one-to-one matching of two projector families.

    Returns (mapping, deviation) where mapping[i] is the index in ``b``
    assigned to a[i] and deviation is the largest max-entry distance over
    the matched pairs.  Distinct projectors sit an O(1) distance apart, so
    greedy nearest-neighbour matching is exact whenever the families agree.
    """

    def mat(x) -> np.ndarray:
        return x.matrix if isinstance(x, Projector) else np.asarray(x)

    mats_a = [mat(x) for x in a]
    mats_b = [mat(x) for x in b]
    if len(mats_a) != len(mats_b):
        raise ValueError("projector families must have equal size")
    used: set[int] = set()
    mapping: list[int] = []
    worst = 0.0
    for ma in mats_a:
        best_j, best_dev = -1, np.inf
        for j, mb in enumerate(mats_b):
            if j in used:
                continue
            dev = float(np.abs(ma - mb).max())
            if dev < best_dev:
                best_j, best_dev = j, dev
        used.add(best_j)
        mapping.append(best_j)
        worst = max(worst, best_dev)
    return mapping, worst
