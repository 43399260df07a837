"""Pauli algebra: exact products, matrices, conjugation, frame updates.

Every symbolic table is cross-checked against dense linear algebra built
independently in this file (plain numpy kron/matmul on the standard 2x2
matrices), so the oracle never shares code with the implementation.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from measureonly.pauli import (
    PHASES,
    PhasedPauli,
    cnot_frame_update,
    kron2,
    nearest_phased_pauli,
    pauli_product,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [I2, X, Y, Z]

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestPauliProduct:
    def test_identity_absorbs(self):
        assert pauli_product(0, 3) == (1, 3)
        assert pauli_product(2, 0) == (1, 2)

    def test_squares_are_identity(self):
        for i in range(4):
            assert pauli_product(i, i) == (1, 0)

    def test_cyclic_product(self):
        # x times y is +i z; frozen from multiplying the 2x2 matrices
        phase, k = pauli_product(1, 2)
        assert (phase, k) == (1j, 3)
        np.testing.assert_allclose(X @ Y, 1j * Z, atol=1e-15)

    def test_all_sixteen_products_match_matrices(self):
        for i in range(4):
            for j in range(4):
                phase, k = pauli_product(i, j)
                np.testing.assert_allclose(PAULIS[i] @ PAULIS[j], phase * PAULIS[k], atol=1e-15)
                assert phase in PHASES

    def test_index_symmetry(self):
        for i in range(4):
            for j in range(4):
                assert pauli_product(i, j)[1] == pauli_product(j, i)[1]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="0, 1, 2, 3"):
            pauli_product(4, 0)


class TestPhasedPauli:
    def test_identity_matrix(self):
        np.testing.assert_allclose(PhasedPauli(1, (0,)).matrix(), I2, atol=0)

    def test_sigma_z_matrix(self):
        np.testing.assert_allclose(PhasedPauli(1, (3,)).matrix(), np.diag([1, -1]), atol=0)

    def test_minus_yy_matrix(self):
        m = PhasedPauli(-1, (2, 2)).matrix()
        expected = -np.kron(Y, Y)
        np.testing.assert_allclose(m, expected, atol=0)
        # real symmetric, entries in {0, +/-1} on the anti-diagonal
        assert np.abs(m.imag).max() == 0
        np.testing.assert_allclose(m, m.T, atol=0)
        anti = np.fliplr(np.eye(4, dtype=bool))
        assert set(np.round(m.real[anti]).astype(int)) <= {-1, 1}
        assert np.abs(m.real[~anti]).max() == 0

    def test_matrix_is_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=rng.integers(1, 4))))
            m = p.matrix()
            np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)

    def test_multiplication_matches_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=2)))
            b = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=2)))
            np.testing.assert_allclose((a * b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)

    def test_phase_snapping_and_rejection(self):
        assert PhasedPauli(1j + 1e-12, (1,)).phase == 1j
        with pytest.raises(ValueError, match="fourth root"):
            PhasedPauli(np.exp(1j * 0.3), (1,))

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="at least one"):
            PhasedPauli(1, ())

    def test_str(self):
        assert str(PhasedPauli(-1j, (1, 0, 3))) == "-iXIZ"


class TestNearestPhasedPauli:
    def test_recovers_exact_strings(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=2)))
            assert nearest_phased_pauli(p.matrix()) == p

    def test_tolerates_small_noise(self):
        p = PhasedPauli(-1j, (2, 1))
        noisy = p.matrix() + 1e-12 * np.ones((4, 4))
        assert nearest_phased_pauli(noisy) == p

    def test_rejects_hadamard(self):
        assert nearest_phased_pauli(HADAMARD) is None

    def test_rejects_scaled_pauli(self):
        assert nearest_phased_pauli(0.9 * X) is None


def conjugated(gate, p):
    """gate p gate^dagger by dense matmul, with its phased-Pauli form or None."""
    out = gate @ p.matrix() @ gate.conj().T
    return out, nearest_phased_pauli(out)


class TestConjugate:
    def test_hadamard_table(self):
        # x goes to z, y flips sign, z goes to x
        expected = {1: PhasedPauli(1, (3,)), 2: PhasedPauli(-1, (2,)), 3: PhasedPauli(1, (1,))}
        for j, out in expected.items():
            matrix, pauli = conjugated(HADAMARD, PhasedPauli(1, (j,)))
            assert pauli == out
            np.testing.assert_allclose(matrix, HADAMARD @ PAULIS[j] @ HADAMARD, atol=1e-12)

    def test_hadamard_is_involution(self):
        for j in (1, 2, 3):
            _, once = conjugated(HADAMARD, PhasedPauli(1, (j,)))
            _, twice = conjugated(HADAMARD, once)
            assert twice == PhasedPauli(1, (j,))

    def test_t_gate_fixes_z(self):
        assert conjugated(T_GATE, PhasedPauli(1, (3,)))[1] == PhasedPauli(1, (3,))

    def test_t_gate_on_x_is_dense(self):
        matrix, pauli = conjugated(T_GATE, PhasedPauli(1, (1,)))
        assert pauli is None
        expected = np.array(
            [[0, np.exp(-1j * np.pi / 4)], [np.exp(1j * np.pi / 4), 0]], dtype=complex
        )
        np.testing.assert_allclose(matrix, expected, atol=1e-12)

    def test_pauli_group_normalises_itself(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            p = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=2)))
            q = PhasedPauli(PHASES[rng.integers(4)], tuple(rng.integers(0, 4, size=2)))
            assert conjugated(p.matrix(), q)[1] is not None


class TestTChainClosure:
    """Conjugating by the pi/8 gate closes into phased Paulis at depth two."""

    def test_first_level(self):
        first = {}
        for j in (1, 2, 3):
            first[j], pauli = conjugated(T_GATE, PhasedPauli(1, (j,)))
            assert (pauli is not None) == (j == 3)
        np.testing.assert_allclose(first[3], Z, atol=1e-12)

    def test_second_level_is_all_pauli(self):
        # frozen second-level table: (first axis, second axis) -> signed axis
        expected = {
            (1, 1): PhasedPauli(1, (2,)),
            (1, 2): PhasedPauli(1, (1,)),
            (1, 3): PhasedPauli(-1, (3,)),
            (2, 1): PhasedPauli(-1, (2,)),
            (2, 2): PhasedPauli(-1, (1,)),
            (2, 3): PhasedPauli(-1, (3,)),
        }
        for (a, k), out in expected.items():
            ta = T_GATE @ PAULIS[a] @ T_GATE.conj().T
            assert conjugated(ta, PhasedPauli(1, (k,)))[1] == out, (a, k)


class TestCnotFrameUpdate:
    def test_all_sixteen_match_dense_conjugation(self):
        for j in range(4):
            for k in range(4):
                phase, jj, kk = cnot_frame_update(j, k)
                lhs = CNOT @ np.kron(PAULIS[j], PAULIS[k]) @ CNOT
                np.testing.assert_allclose(lhs, phase * np.kron(PAULIS[jj], PAULIS[kk]), atol=1e-12)
                assert phase in (1, -1)

    def test_known_rows(self):
        assert cnot_frame_update(1, 0) == (1, 1, 1)
        assert cnot_frame_update(1, 3) == (-1, 2, 2)
        assert cnot_frame_update(0, 0) == (1, 0, 0)


# Finite parts with both signed zeros drawn often; the bound keeps every
# product and sum of products finite.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e100, 1e100))
_ENTRIES = st.builds(complex, _PARTS, _PARTS)


def _complex_matrices(max_rows, max_cols):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(lambda shape: arrays(complex, shape, elements=_ENTRIES))


class TestKron2:
    @settings(max_examples=300, deadline=None)
    @given(a=_complex_matrices(4, 4), b=_complex_matrices(16, 16))
    def test_bit_for_bit_equal_to_numpy_kron(self, a, b):
        got, want = kron2(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
