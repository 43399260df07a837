"""Independent state-vector reference for checking teleported gates.

Everything here is built from ``np.kron`` and the textbook gate matrices, so a
fault in the library's own embedding, gate table or direct-application path
cannot hide behind a reference that shares it.  Qubit 0 is the most
significant bit of the basis index, as in the library.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)

#: One-qubit gates up to global phase, which fidelity ignores.
ONE_QUBIT = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "X": X,
    "Y": Y,
    "Z": Z,
}

#: Output fidelity every teleported gate and circuit must reach.
MIN_FIDELITY = 1 - 1e-9


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def one_qubit_operator(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``u`` on ``qubit`` of an n-qubit register, identity elsewhere."""
    return _kron_all([u if q == qubit else I2 for q in range(n)])


def cnot_operator(control: int, target: int, n: int) -> np.ndarray:
    """Controlled-NOT as |0><0|_c (x) I + |1><1|_c (x) X_t."""
    idle = _kron_all([P0 if q == control else I2 for q in range(n)])
    flip = _kron_all([P1 if q == control else X if q == target else I2 for q in range(n)])
    return idle + flip


def circuit_state(ops: list[tuple[str, tuple[int, ...]]], n: int) -> np.ndarray:
    """Final state of a named-gate circuit applied to |0...0>."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for name, qubits in ops:
        if name == "CNOT":
            psi = cnot_operator(qubits[0], qubits[1], n) @ psi
        else:
            psi = one_qubit_operator(ONE_QUBIT[name], qubits[0], n) @ psi
    return psi


def haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n-qubit pure state."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Ginibre matrix, phases fixed)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def fidelity(expected: np.ndarray, actual: np.ndarray) -> float:
    """|<expected|actual>|^2 for unit vectors, blind to global phase."""
    return float(abs(np.vdot(expected, actual)) ** 2)
