"""Construction of the binary-measurement catalogue.

A binary measurement here is a two-outcome projective measurement whose
projectors have equal rank.  The interesting ones can be written as n
single-qubit measurements whose classical bits are combined by a balanced
Boolean function; this module builds those forms, the rank-one basis
measurements they compose into, and the specific four-measurement set that
prepares ancillas for the controlled-NOT.

Each construction is a few stacked numpy operations, not a loop of 2x2 to
16x16 products: one broadcast Kronecker product per part of a form, one
batched product per composed binary, one outer product over a basis's
twisted Bell states and a table of every pairwise distance, one row per
projector, for matching.  Every measurement passes ``qcore._require_instrument``
when built; ``_xz_pair_bases`` runs the same checks on a stack of gates at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import qcore
from .pauli import _PAULIS, SIGMA, kron2
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
# observable, and since each sigma_a is Hermitian, a flattened m times _HALF_XYZ_CONJ_T
# is (tr(sigma_a m) / 2)_a, halved exactly.
_XYZ = np.stack(SIGMA[1:]).reshape(3, 4)
_HALF_XYZ_CONJ_T = _XYZ.conj().T / 2
_EYE4 = np.eye(4, dtype=complex)
_SIGNS = np.array([1.0, -1.0])[:, None, None]


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
        if len(bloch) != 3:
            raise ValueError(f"a Bloch vector has 3 components, got {len(bloch)}")
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
        if any(b not in (0, 1) for b in bits):
            raise ValueError("outcome bit must be 0 or 1")
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
        _require_binary(np.array((self.p0.matrix, self.p1.matrix)))

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.p0.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    def slots(self) -> tuple[Projector, Projector]:
        return (self.p0, self.p1)


def _require_binary(mats: np.ndarray) -> None:
    """Raise unless the slot pair ``mats``, or each pair of a stack of them, is an instrument of two equal ranks."""
    _require_instrument(mats)
    half, traces = mats.shape[-1] // 2, np.trace(mats, axis1=-2, axis2=-1).real
    if not np.abs(traces - half).max() <= STRUCT_TOL:
        *member, slot = np.argwhere(~(np.abs(traces - half) <= STRUCT_TOL))[0]
        raise ValueError(qcore._member(member, f"projector trace {traces[(*member, slot)]} is not {half}"))


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
    i, of the tensor products of the corresponding single-qubit projectors:
    one broadcast Kronecker product per part forms every string's term.
    """
    # one (2, 2, 2) stack per part: its projector(0) and projector(1)
    observables = (np.array([part.bloch for part in form.parts]) @ _XYZ).reshape(-1, 1, 2, 2)
    terms, *rest = (SIGMA[0] + _SIGNS * observables) / 2
    for slots in rest:
        r, d, _ = terms.shape
        terms = (terms[:, None, :, None, :, None] * slots[None, :, None, :, None, :]).reshape(2 * r, 2 * d, 2 * d)
    ones = np.array(form.f.table, dtype=bool)
    return BinaryMeasurement(
        Projector(terms[~ones].sum(axis=0), form.targets),
        Projector(terms[ones].sum(axis=0), form.targets),
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
    bloch = ms.reshape(-1, 4).dot(_HALF_XYZ_CONJ_T).real
    fit = bloch.dot(_XYZ)
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
    return _parity_form(i, _require_unitary(u, 2), targets)


def _parity_form(i: int, u: np.ndarray, targets: tuple[Label, Label] = (0, 1)) -> PseudoseparateForm:
    """``solve_two_qubit_parity_form`` for axis 1, 2 or 3 of a 2x2 unitary already checked."""
    conjugated = u @ SIGMA[i] @ u.conj().T
    second = SingleQubitBinary(tuple(_bloch_of(GAMMA[i] * conjugated)[0][0].tolist()))
    return PseudoseparateForm(BalancedBooleanFn.parity(2), (_AXIS_PARTS[i], second), targets)


def _unit_observable(m0: complex, m1: complex, m2: complex, m3: complex) -> tuple[complex, ...]:
    """``_bloch_of`` and ``SingleQubitBinary``'s unit-norm check on one matrix's entries, row-major, as Python
    complex numbers: the fit bloch . sigma, as a row-major 4-tuple."""
    x, y, z = (m1.real + m2.real) / 2, (m2.imag - m1.imag) / 2, (m0.real - m3.real) / 2  # tr(sigma_a m) / 2
    fit = complex(z), complex(x, -y), complex(x, y), complex(-z)
    if not (abs(m0 - fit[0]) <= STRUCT_TOL and abs(m1 - fit[1]) <= STRUCT_TOL
            and abs(m2 - fit[2]) <= STRUCT_TOL and abs(m3 - fit[3]) <= STRUCT_TOL):
        raise ValueError("matrix is not a unit combination of the traceless Paulis")
    if not abs(math.hypot(x, y, z) - 1.0) <= STRUCT_TOL:
        raise ValueError(f"Bloch vector norm {math.hypot(x, y, z)} is not 1")
    return fit


def u_basis_measurement(u: np.ndarray, labels: tuple[Label, Label] = (0, 1)) -> CompleteMeasurement:
    """The complete rank-one measurement in the u-twisted Bell basis.

    Outcome j projects onto (I (x) u sigma_j) applied to the EPR pair.
    """
    return CompleteMeasurement(tuple(Projector(p, labels) for p in _twisted_basis(_require_unitary(u, 2) @ _PAULIS[1])))


def two_qubit_u_basis_measurement(
    u: np.ndarray,
    labels: tuple[Label, Label, Label, Label] = (1, 2, 3, 4),
) -> CompleteMeasurement:
    """The complete 16-outcome basis measurement for a two-qubit gate.

    Outcome 4j + k projects onto the state obtained from two EPR pairs
    (first with third qubit, second with fourth) by applying
    u (sigma_j (x) sigma_k) to the last two qubits.
    """
    return CompleteMeasurement(tuple(Projector(p, labels) for p in _twisted_basis(_require_unitary(u, 4) @ _PAULIS[2])))


def _twisted_basis(ops: np.ndarray) -> np.ndarray:
    """Projectors onto the twisted Bell states of a stack of unitaries (on any leading axes), one outcome each."""
    vs = qcore._bell_amplitudes(ops)
    return vs[..., :, None] * vs[..., None, :].conj()


def _xz_pair_bases(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x/z pair's joint projectors, from the public parity slots, and the u-basis projectors of each gate in a
    stack.

    Every check that ``u_basis_binary_pair``, ``compose_binaries`` and ``u_basis_measurement`` run on one gate runs
    on every member, in stacked passes; a failure raises the one-gate message naming its gate (and binary, 0 for x).
    """
    slots = []
    for k, u in enumerate(us):
        try:
            u = _require_unitary(u, 2)
            slots.append([[p.matrix for p in parity_slots(_parity_form(i, u))] for i in (1, 3)])
        except ValueError as exc:
            raise ValueError(qcore._member([k], str(exc))) from None
    slots = np.array(slots)
    _require_binary(slots)
    joints = _compose(slots)[1]
    bases = _twisted_basis(us[:, None] @ _PAULIS[1])
    _require_instrument(joints)
    _require_instrument(bases)
    return joints, bases


def u_basis_binary_pair(
    u: np.ndarray,
    labels: tuple[Label, Label] = (0, 1),
) -> tuple[BinaryMeasurement, BinaryMeasurement]:
    """Two commuting parity-form binaries equivalent to the u-basis measurement.

    The pair uses axes x and z; its four joint projectors are exactly the
    rank-one u-basis projectors, up to outcome relabelling.
    """
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
    # by default every label the binaries touch, in order of first appearance
    system = tuple(dict.fromkeys(q for m in ms for q in m.labels) if system is None else system)
    embedded = np.array([[qcore.embed(p.matrix, m.labels, system) for p in m.slots()] for m in ms])
    return CompleteMeasurement(tuple(Projector(p, system) for p in _compose(embedded)[1]))


def _compose(embedded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot-0 products and the unchecked joint projectors of ``compose_binaries``, from each binary's two slots.

    ``embedded`` is (n, 2, d, d), or a stack of such sets on one leading axis; products[..., i, j] is slot 0 of
    binary i times slot 0 of binary j.  The first non-commuting pair i < j raises, naming a stack's member.
    """
    products = embedded[..., :, None, 0, :, :] @ embedded[..., None, :, 0, :, :]
    norms = np.abs(products - products.swapaxes(-3, -4)).max(axis=(-2, -1))
    for *member, i, j in np.argwhere(np.triu(~(norms <= STRUCT_TOL), 1))[:1]:
        message = f"binary measurements {i} and {j} do not commute (commutator norm {norms[(*member, i, j)]:.3e})"
        raise ValueError(qcore._member(member, message))
    joint = embedded[..., 0, :, :, :]
    for k in range(1, embedded.shape[-4]):  # joint outcomes pack the bits, binary 0's the most significant
        joint = joint[..., :, None, :, :] @ embedded[..., k, None, :, :, :]
        joint = joint.reshape(*joint.shape[:-4], -1, *joint.shape[-2:])
    return products, joint


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
    greedy nearest-neighbour matching is exact whenever the families agree;
    ties go to the lowest index.  Raises ValueError unless both families
    hold finite matrices of one square shape.
    """
    mats_a, mats_b = ([np.asarray(x.matrix if isinstance(x, Projector) else x) for x in fam] for fam in (a, b))
    if len(mats_a) != len(mats_b):
        raise ValueError("projector families must have equal size")
    shapes = {m.shape for m in mats_a + mats_b}
    if len(shapes) > 1 or any(len(s) != 2 or s[0] != s[1] for s in shapes):
        raise ValueError(f"projector families must share one square shape, got shapes {sorted(shapes)}")
    if not mats_a:
        return [], 0.0
    mats_a, mats_b = np.array(mats_a), np.array(mats_b)
    if not (np.isfinite(mats_a).all() and np.isfinite(mats_b).all()):
        raise ValueError("projector entries must be finite")
    devs = [np.abs(mats_b - ma).max(axis=(1, 2)).tolist() for ma in mats_a]
    free = list(range(len(devs)))
    mapping = []
    for row in devs:
        mapping.append(min(free, key=row.__getitem__))  # the first of equal minima
        free.remove(mapping[-1])
    return mapping, max([0.0] + [row[j] for row, j in zip(devs, mapping)])
