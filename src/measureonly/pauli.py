"""Exact algebra of phased Pauli operators.

A phased Pauli is a tensor product of single-qubit Pauli operators together
with a scalar phase restricted to the fourth roots of unity.  At this level
products and controlled-NOT frame updates are exact; dense matrices are
only materialised on demand, and dense operators can be canonicalised back
to phased-Pauli form when they are one, as the protocol's frames are.  The
protocol no longer reads the paper's controlled-NOT table; ``verify`` checks it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache as _lru_cache
from itertools import product as _cartesian
from typing import Optional

import numpy as np

__all__ = [
    "PHASES",
    "SIGMA",
    "PhasedPauli",
    "kron2",
    "pauli_product",
    "cnot_frame_update",
    "nearest_phased_pauli",
]

#: Allowed scalar phases, in canonical order.
PHASES: tuple[complex, ...] = (1 + 0j, -1 + 0j, 1j, -1j)

#: The single-qubit Pauli matrices, indexed 0..3 (identity, x, y, z).
SIGMA: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_LETTERS = "IXYZ"
_PHASE_PREFIX = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}

# For distinct nonzero indices the product is +/- i times the third index;
# the cyclic order (1,2,3) carries the +i.
_CYCLIC = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

# How near a phase must be to the root of unity it snaps to, and the residual nearest_phased_pauli accepts.
_PHASE_TOL, _NEAREST_TOL = 1e-8, 1e-10


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, bit for bit equal to numpy's ``kron``.

    Each entry is the one product a[i, j] * b[k, l], formed by broadcasting;
    numpy's general-rank set-up costs several times more than the product
    itself at the 2x2 and 4x4 sizes used here.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


#: The Paulis that index codes name on k qubits: sigma_c on one, sigma_j (x) sigma_k at code 4j + k on two.
_PAULIS = {1: np.stack(SIGMA), 2: np.stack([kron2(a, b) for a in SIGMA for b in SIGMA])}


def _check_index(i: int) -> int:
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be one of 0, 1, 2, 3, got {i!r}")
    return int(i)


def pauli_product(i: int, j: int) -> tuple[complex, int]:
    """Product of two single-qubit Paulis as an exact (phase, index) pair."""
    i, j = _check_index(i), _check_index(j)
    if i == 0:
        return 1 + 0j, j
    if j == 0:
        return 1 + 0j, i
    if i == j:
        return 1 + 0j, 0
    if (i, j) in _CYCLIC:
        return 1j, _CYCLIC[(i, j)]
    return -1j, _CYCLIC[(j, i)]


def _snap_phase(z: complex) -> complex:
    for p in PHASES:
        if abs(z - p) < _PHASE_TOL:
            return p
    raise ValueError(f"phase {z!r} is not a fourth root of unity")


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string with a phase in {+1, -1, +i, -i}."""

    phase: complex
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", _snap_phase(complex(self.phase)))
        object.__setattr__(self, "indices", tuple(_check_index(i) for i in self.indices))
        if not self.indices:
            raise ValueError("a PhasedPauli acts on at least one qubit")

    @property
    def n(self) -> int:
        return len(self.indices)

    def matrix(self) -> np.ndarray:
        """Dense realisation: the phase times the tensor product of the Pauli matrices."""
        out = self.phase * SIGMA[self.indices[0]]
        for i in self.indices[1:]:
            out = kron2(out, SIGMA[i])
        return out

    def __mul__(self, other: "PhasedPauli") -> "PhasedPauli":
        if not isinstance(other, PhasedPauli):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        phase = self.phase * other.phase
        indices = []
        for a, b in zip(self.indices, other.indices):
            p, k = pauli_product(a, b)
            phase *= p
            indices.append(k)
        return PhasedPauli(phase, tuple(indices))

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase] + "".join(_LETTERS[i] for i in self.indices)


@_lru_cache(maxsize=8)
def _pauli_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 4^n unphased Pauli strings on n qubits stacked along axis 0, and their coefficient rows.

    Row k of the (4^n, 4^n) rows times a flattened matrix m is m's Pauli
    expansion coefficient tr(P_k m) / 2^n on string k.
    """
    stack = np.empty((4**n, 2**n, 2**n), dtype=complex)
    for row, idx in enumerate(_cartesian(range(4), repeat=n)):
        stack[row] = PhasedPauli(1, idx).matrix()
    rows = stack.transpose(0, 2, 1).reshape(4**n, 4**n) / 2**n
    stack.setflags(write=False)
    rows.setflags(write=False)
    return stack, rows


def nearest_phased_pauli(matrix: np.ndarray) -> Optional[PhasedPauli]:
    """Canonical phased-Pauli form of ``matrix``, or None if it is not one.

    The candidate string is read off from the Pauli expansion coefficient of
    largest magnitude; the match is accepted only if that coefficient is a
    fourth root of unity and the residual stays below 1e-10 in max-entry
    norm.  Any wrong candidate misses by an O(1) distance, so the tolerance
    is not delicate.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if matrix.shape != (dim, dim) or 2**n != dim or n < 1:
        raise ValueError("expected a square matrix with power-of-two dimension >= 2")
    stack, rows = _pauli_basis(n)
    coeffs = rows.dot(matrix.reshape(-1))
    row = int(np.argmax(np.abs(coeffs)))
    coeff = complex(coeffs[row])
    for phase in PHASES:  # at most one is within the tolerance
        if abs(coeff - phase) < _NEAREST_TOL and np.abs(matrix - phase * stack[row]).max() < _NEAREST_TOL:
            return PhasedPauli(phase, tuple((row >> (2 * (n - 1 - q))) & 3 for q in range(n)))
    return None


# Conjugation of sigma_j (x) sigma_k by the controlled-NOT (first qubit is the
# control): (j, k) -> (sign, j', k').  Held as exact data; the verification
# suite compares every row against dense conjugation.
_CNOT_FRAME: dict[tuple[int, int], tuple[int, int, int]] = {
    (0, 0): (1, 0, 0),
    (0, 1): (1, 0, 1),
    (0, 2): (1, 3, 2),
    (0, 3): (1, 3, 3),
    (1, 0): (1, 1, 1),
    (1, 1): (1, 1, 0),
    (1, 2): (1, 2, 3),
    (1, 3): (-1, 2, 2),
    (2, 0): (1, 2, 1),
    (2, 1): (1, 2, 0),
    (2, 2): (-1, 1, 3),
    (2, 3): (1, 1, 2),
    (3, 0): (1, 3, 0),
    (3, 1): (1, 3, 1),
    (3, 2): (1, 0, 2),
    (3, 3): (1, 0, 3),
}


def cnot_frame_update(j: int, k: int) -> tuple[complex, int, int]:
    """Image of sigma_j (x) sigma_k under conjugation by the controlled-NOT.

    Returns (phase, j', k') with phase in {+1, -1}; the controlled-NOT
    normalises two-qubit Pauli products, so a failed teleportation trial of it
    always leaves a plain tensor product of phased Paulis to simulate next.
    The protocol no longer reads this table; ``verify`` checks every row.
    """
    sign, jj, kk = _CNOT_FRAME[(_check_index(j), _check_index(k))]
    return complex(sign), jj, kk
