"""Named verification checks for the whole measurement catalogue.

Every algebraic fact the construction rests on is spelled out here as a
named check carrying its observed deviation and tolerance: the sixteen
single-qubit Pauli products, the Bell projector expansions and pair sums,
the Hadamard and pi/8 conjugation tables (two levels deep), the sixteen
controlled-NOT conjugations, the three-qubit parity forms of the
controlled-NOT preparation, the x/z pair equivalences for the catalogue
gates (on the public parity slots the protocol's closed-form preparation
is tested against, all six gates validated in stacked passes), and the
commutation plus composition of the four-measurement set, both read from
one embedding of its slots.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from . import measure as msr
from . import qcore
from .measure import GAMMA
from .pauli import _PAULIS, SIGMA, cnot_frame_update, kron2, pauli_product
from .protocol import _GATE_MATRICES

__all__ = ["CheckResult", "identity_checks", "EXACT_TOL", "EQUIV_TOL"]

#: Tolerance for machine-exact identities.
EXACT_TOL = 1e-12
#: Tolerance for set equalities between independently built measurements.
EQUIV_TOL = 1e-10

# Signs of (XX, YY, ZZ) in the expansion of each Bell projector,
# |B_j><B_j| = (I + s1 XX + s2 YY + s3 ZZ) / 4.
_BELL_EXPANSION_SIGNS = {
    0: (1, -1, 1),
    1: (1, 1, -1),
    2: (-1, -1, -1),
    3: (-1, 1, 1),
}

# Hadamard conjugation: axis j -> (sign, axis).
_HADAMARD_TABLE = {1: (1, 3), 2: (-1, 2), 3: (1, 1)}

_EXP = np.exp
_T1 = np.array([[0, _EXP(-1j * np.pi / 4)], [_EXP(1j * np.pi / 4), 0]], dtype=complex)
_T2 = np.array([[0, -1j * _EXP(-1j * np.pi / 4)], [1j * _EXP(1j * np.pi / 4), 0]], dtype=complex)

# pi/8-gate conjugation: axis j -> dense expected conjugate.
_T_TABLE = {1: _T1, 2: _T2, 3: SIGMA[3]}

# Second-level pi/8 chain: (first axis, second axis) -> (sign, axis).
_T_CHAIN_TABLE = {
    (1, 1): (1, 2),
    (1, 2): (1, 1),
    (1, 3): (-1, 3),
    (2, 1): (-1, 2),
    (2, 2): (-1, 1),
    (2, 3): (-1, 3),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def identity_checks(tolerance: Optional[float] = None) -> list[CheckResult]:
    """Run every verification check; returns one result per named identity.

    ``tolerance`` overrides each check's own tolerance when given.  The pair
    sums are checked against ``measure.GAMMA``, read as this module's
    ``GAMMA`` when the checks run.
    """
    checks: list[CheckResult] = []

    def add(name: str, deviation: float, tol: float) -> None:
        checks.append(CheckResult(name, float(deviation), tolerance if tolerance is not None else tol))

    def add_all(names: list[str], got, expected, tol: float) -> None:
        """One check per name, on the matching matrices of two stacks."""
        n = len(names)
        devs = np.abs(np.reshape(got, (n, -1)) - np.reshape(expected, (n, -1))).max(axis=1)
        for name, dev in zip(names, devs.tolist()):
            add(name, dev, tol)

    codes = list(product(range(4), repeat=2))

    # Single-qubit Pauli products.
    expected = [phase * SIGMA[k] for phase, k in (pauli_product(i, j) for i, j in codes)]
    add_all([f"pauli product ({i},{j})" for i, j in codes], _PAULIS[1][:, None] @ _PAULIS[1], expected, EXACT_TOL)

    # Bell projector expansions in the two-qubit Pauli basis.
    pair = _PAULIS[2][[5, 10, 15]]  # sigma_a (x) sigma_a for a = 1, 2, 3
    eye4 = np.eye(4, dtype=complex)
    vs = np.array([qcore.bell_state(j).data for j in range(4)])
    bell_projs = vs[:, :, None] * vs[:, None, :].conj()
    s1, s2, s3 = np.array(list(_BELL_EXPANSION_SIGNS.values())).T[:, :, None, None]
    expected = (eye4 + s1 * pair[0] + s2 * pair[1] + s3 * pair[2]) / 4
    add_all([f"bell projector expansion (B{j})" for j in _BELL_EXPANSION_SIGNS], bell_projs, expected, EXACT_TOL)

    # Pair sums: projector 0 plus projector i is a half-rank parity projector.
    expected = (eye4 + np.array([GAMMA[i] for i in (1, 2, 3)])[:, None, None] * pair) / 2
    add_all([f"bell pair sum (i={i})" for i in (1, 2, 3)], bell_projs[0] + bell_projs[1:], expected, EXACT_TOL)

    # Hadamard conjugation table.
    h = _GATE_MATRICES["H"]
    add_all([f"hadamard conjugation (sigma_{j})" for j in _HADAMARD_TABLE], h @ _PAULIS[1][1:] @ h.conj().T,
            [sign * SIGMA[out] for sign, out in _HADAMARD_TABLE.values()], EXACT_TOL)

    # pi/8-gate conjugation table, first and second level.
    t = _GATE_MATRICES["T"]
    add_all([f"t conjugation (sigma_{j})" for j in _T_TABLE], t @ _PAULIS[1][1:] @ t.conj().T,
            list(_T_TABLE.values()), EXACT_TOL)
    ta = np.array([_T_TABLE[a] for a, _ in _T_CHAIN_TABLE])
    add_all([f"t chain ({a},{k})" for a, k in _T_CHAIN_TABLE],
            ta @ _PAULIS[1][[k for _, k in _T_CHAIN_TABLE]] @ ta.conj().transpose(0, 2, 1),
            [sign * SIGMA[out] for sign, out in _T_CHAIN_TABLE.values()], EXACT_TOL)

    # Controlled-NOT conjugation table, all sixteen rows.
    cnot = _GATE_MATRICES["CNOT"]
    expected = [phase * _PAULIS[2][4 * jj + kk] for phase, jj, kk in (cnot_frame_update(j, k) for j, k in codes)]
    add_all([f"cnot conjugation ({j},{k})" for j, k in codes], cnot @ _PAULIS[2] @ cnot, expected, EXACT_TOL)

    # Controlled-NOT preparation: the two three-qubit parity forms, built by
    # summing the corresponding rank-one basis projectors.
    labels = (1, 2, 3, 4)
    basis16 = msr.two_qubit_u_basis_measurement(cnot, labels)
    sum_j01 = sum(basis16.projectors[4 * j + k].matrix for j in (0, 1) for k in range(4))
    sum_k03 = sum(basis16.projectors[4 * j + k].matrix for j in range(4) for k in (0, 3))
    xxx = (np.eye(8, dtype=complex) + kron2(kron2(SIGMA[1], SIGMA[1]), SIGMA[1])) / 2
    zzz = (np.eye(8, dtype=complex) + kron2(kron2(SIGMA[3], SIGMA[3]), SIGMA[3])) / 2
    add_all(["cnot prep x-parity (1,3,4)", "cnot prep z-parity (2,3,4)"], [sum_j01, sum_k03],
            [qcore.embed(xxx, (1, 3, 4), labels), qcore.embed(zzz, (2, 3, 4), labels)], EXACT_TOL)

    # x/z pair equivalence for the catalogue gates: the joint projectors of the two parity-form
    # binaries the protocol prepares in closed form equal the rank-one basis projectors.
    names = ("I", "H", "T", "X", "Y", "Z")
    us = np.array([np.eye(2, dtype=complex)] + [_GATE_MATRICES[name] for name in names[1:]])
    for name, joint, basis in zip(names, *msr._xz_pair_bases(us)):
        add(f"xz pair equivalence ({name})", msr.match_projector_sets(joint, basis)[1], EQUIV_TOL)

    # The four-measurement set: pairwise commutation and composition into
    # the 16-outcome basis measurement, from one embedding of their slots.
    products, joint16 = msr._compose(np.array([[qcore.embed(p.matrix, m.labels, labels) for p in m.slots()]
                                               for m in msr.cnot_measurement_set(labels)]))
    rows, cols = zip(*combinations(range(4), 2))
    add_all([f"cnot binaries commute ({a},{b})" for a, b in zip(rows, cols)],
            products[rows, cols], products[cols, rows], EQUIV_TOL)
    qcore._require_instrument(joint16)
    add("cnot binaries compose to 16-outcome basis", msr.match_projector_sets(joint16, basis16.projectors)[1],
        EQUIV_TOL)

    return checks
