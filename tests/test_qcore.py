"""Labelled-register core: states, embedding, measurement, fidelity.

Expected amplitudes and probabilities are derived in-test by elementary
means (explicit vectors, brute-force Gram matrices, basis enumeration).
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measureonly.qcore as qcore
from measureonly.qcore import (
    MAX_QUBITS,
    Projector,
    QuantumState,
    apply_unitary,
    bell_state,
    embed,
    fidelity_up_to_phase,
    measure,
    permute_to,
    twisted_bell,
    zero_state,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def z_instrument(labels=(0,)):
    return (
        Projector(np.outer(KET0, KET0), labels),
        Projector(np.outer(KET1, KET1), labels),
    )


def bell_instrument(labels=(0, 1)):
    return tuple(
        Projector(np.outer(bell_state(i).data, bell_state(i).data.conj()), labels) for i in range(4)
    )


class TestQuantumState:
    def test_rejects_unnormalised_vector(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState.pure([1, 1], (0,))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuantumState.pure([1, 0, 0, 0], (0, 0))

    def test_rejects_more_than_max_qubits(self):
        too_many = tuple(range(MAX_QUBITS + 1))
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS} qubits"):
            QuantumState([1.0], too_many)
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS} qubits"):
            zero_state(too_many)

    def test_zero_state_reads_its_labels_once_and_checks_the_cap_first(self):
        state = zero_state(q for q in range(2))
        assert state.labels == (0, 1)
        np.testing.assert_array_equal(state.data, [1, 0, 0, 0])
        # 2^40 amplitudes would take 16 TiB, so the cap must come before the allocation
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS} qubits"):
            zero_state(tuple(range(40)))

    def test_density_matrices_are_rejected(self):
        for labels in ((0,), (0, 1)):
            dim = 2 ** len(labels)
            with pytest.raises(ValueError, match=re.escape(f"state vector of length {dim}, got shape ({dim}, {dim})")):
                QuantumState.pure(np.eye(dim) / dim, labels)

    def test_zero_qubit_state_is_allowed(self):
        s = QuantumState.pure([1.0], ())
        assert s.n == 0 and s.dim == 1


class TestBellStates:
    def test_epr_amplitudes(self):
        np.testing.assert_allclose(bell_state(0).data, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_epr_norm_and_overlap_with_first_bell_state(self):
        # the EPR pair is bell_state(0) on any two labels
        epr = np.array([1, 0, 0, 1]) / np.sqrt(2)
        e = bell_state(0, ("a", "b"))
        assert e.labels == ("a", "b")
        assert abs(np.linalg.norm(e.data) - 1) < 1e-12
        assert abs(np.vdot(e.data, epr)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_three_amplitudes(self):
        # apply diag(1, -1) to the second qubit of the EPR pair by hand
        expected = np.kron(I2, Z) @ (np.array([1, 0, 0, 1]) / np.sqrt(2))
        np.testing.assert_allclose(bell_state(3).data, expected, atol=1e-15)
        np.testing.assert_allclose(expected, [1 / np.sqrt(2), 0, 0, -1 / np.sqrt(2)], atol=1e-15)

    def test_gram_matrix_is_identity(self):
        vecs = [bell_state(i).data for i in range(4)]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="Bell index"):
            bell_state(5)

    def test_twisted_bell_needs_qubit_pairs_and_a_unitary_of_their_size(self):
        with pytest.raises(ValueError, match="even number of qubits"):
            twisted_bell(I2, (0, 1, 2))
        with pytest.raises(ValueError, match=re.escape("expected a 4x4 gate matrix, got shape (2, 2)")):
            twisted_bell(I2, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="not unitary"):
            twisted_bell(np.diag([1.0, 0.0]), (0, 1))


class TestEmbed:
    def test_single_qubit_on_second_slot(self):
        np.testing.assert_allclose(embed(Z, (2,), (1, 2)), np.kron(I2, Z), atol=0)

    def test_cnot_across_a_spectator(self):
        # enumerate the basis action: control is qubit 1, target qubit 3
        full = embed(CNOT, (1, 3), (1, 2, 3))
        state = np.zeros(8, dtype=complex)
        state[0b100] = 1.0
        np.testing.assert_allclose(full @ state, np.eye(8)[0b101], atol=1e-15)
        # exhaustive: for every basis state, target bit flips iff control set
        for idx in range(8):
            out = full @ np.eye(8)[idx]
            expected = idx ^ (1 if idx & 0b100 else 0)
            np.testing.assert_allclose(out, np.eye(8)[expected], atol=1e-15)

    def test_composition_equals_joint_embedding(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = embed(a, (1,), (1, 2)) @ embed(b, (2,), (1, 2))
        np.testing.assert_allclose(lhs, embed(np.kron(a, b), (1, 2), (1, 2)), atol=1e-12)

    def test_disjoint_embeddings_commute(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ea = embed(a, (0,), (0, 1, 2))
        eb = embed(b, (2,), (0, 1, 2))
        np.testing.assert_allclose(ea @ eb, eb @ ea, atol=1e-12)

    def test_unknown_and_duplicate_labels(self):
        with pytest.raises(ValueError, match="unknown"):
            embed(Z, (7,), (0, 1))
        with pytest.raises(ValueError, match="duplicate"):
            embed(CNOT, (0, 0), (0, 1))

    def test_preserves_unitarity_and_projectors(self):
        u = embed(CNOT, (0, 2), (0, 1, 2))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        p = embed(np.outer(KET0, KET0), (1,), (0, 1))
        np.testing.assert_allclose(p @ p, p, atol=1e-12)


class TestMeasure:
    def test_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(0)
        outcome, post, prob = measure(zero_state((0,)), z_instrument(), rng)
        assert outcome == 0
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post.data, KET0, atol=1e-12)

    def test_bell_basis_state_of_own_basis(self):
        rng = np.random.default_rng(1)
        outcome, _, prob = measure(bell_state(3), bell_instrument(), rng)
        assert outcome == 3
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_is_unbiased(self):
        counts = [0, 0]
        for seed in range(400):
            rng = np.random.default_rng(seed)
            outcome, _, prob = measure(QuantumState.pure(PLUS, (0,)), z_instrument(), rng)
            assert prob == pytest.approx(0.5, abs=1e-12)
            counts[outcome] += 1
        assert 140 < counts[0] < 260

    def test_incomplete_instrument_rejected(self):
        rng = np.random.default_rng(2)
        bad = (z_instrument()[0], z_instrument()[0])
        with pytest.raises(ValueError, match="mutually annihilating|sum"):
            measure(zero_state((0,)), bad, rng)
        with pytest.raises(ValueError, match="incomplete"):
            measure(zero_state((0,)), (z_instrument()[0],), rng)

    def test_instrument_may_be_a_one_shot_iterable(self):
        outcome, post, prob = measure(zero_state((0,)), iter(z_instrument()), np.random.default_rng(5))
        assert (outcome, prob) == (0, 1.0)

    def test_repeating_a_measurement_is_stable(self):
        rng = np.random.default_rng(3)
        state = QuantumState.pure(PLUS, (0,))
        outcome, post, _ = measure(state, z_instrument(), rng)
        for _ in range(5):
            again, post, prob = measure(post, z_instrument(), rng)
            assert again == outcome
            assert prob == pytest.approx(1.0, abs=1e-10)

    def test_probabilities_sum_to_one_for_random_instruments(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            # random orthonormal basis, grouped into a rank-2/rank-2 instrument
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(z)
            p0 = q[:, :2] @ q[:, :2].conj().T
            p1 = q[:, 2:] @ q[:, 2:].conj().T
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = QuantumState.pure(v / np.linalg.norm(v), (0, 1))
            inst = (Projector(p0, (0, 1)), Projector(p1, (0, 1)))
            _, post, _ = measure(state, inst, rng)
            probs = [
                float(np.vdot(p.matrix @ state.data, p.matrix @ state.data).real) for p in inst
            ]
            assert sum(probs) == pytest.approx(1.0, abs=1e-10)
            assert abs(np.linalg.norm(post.data) - 1) < 1e-10

    def test_all_zero_probabilities_rejected(self):
        # a checked instrument on a normalised state cannot reach this guard, so the draw is called alone
        with pytest.raises(ValueError, match="degenerate"):
            qcore._draw([0.0, 0.0], np.random.default_rng(7))

    def test_embeds_subregister_instruments(self):
        rng = np.random.default_rng(6)
        state = zero_state((0, 1))
        outcome, post, prob = measure(state, z_instrument(labels=(1,)), rng)
        assert outcome == 0
        assert post.labels == (0, 1)


class TestFidelity:
    def test_global_phase_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        a = QuantumState.pure(v, (0, 1))
        b = QuantumState.pure(np.exp(1j * 0.87) * v, (0, 1))
        assert fidelity_up_to_phase(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = QuantumState.pure(KET0, (0,))
        b = QuantumState.pure(KET1, (0,))
        assert fidelity_up_to_phase(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_zero_against_plus(self):
        a = QuantumState.pure(KET0, (0,))
        b = QuantumState.pure(PLUS, (0,))
        assert fidelity_up_to_phase(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="label"):
            fidelity_up_to_phase(QuantumState.pure(KET0, (0,)), QuantumState.pure(KET0, (1,)))

    def test_respects_label_order(self):
        state01 = QuantumState.pure(np.kron(KET0, KET1), (0, 1))
        state10 = QuantumState.pure(np.kron(KET1, KET0), (1, 0))
        assert fidelity_up_to_phase(state01, state10) == pytest.approx(1.0, abs=1e-12)


class TestRegisterPlumbing:
    def test_permute(self):
        ab = QuantumState.pure(np.kron(KET1, KET0), (0, 1))
        swapped = permute_to(ab, (1, 0))
        np.testing.assert_allclose(swapped.data, np.kron(KET0, KET1), atol=0)

    def test_library_built_states_keep_the_register_invariants(self):
        start = QuantumState.pure(np.kron(bell_state(0).data, KET0), ("a", "b", 0))
        built = permute_to(start, [0, "b", "a"])
        assert isinstance(built.labels, tuple)
        np.testing.assert_allclose(np.linalg.norm(built.data), 1.0, atol=1e-15)

    def test_apply_unitary_matches_embedding(self):
        state = zero_state((0, 1))
        out = apply_unitary(state, X, (1,))
        np.testing.assert_allclose(out.data, np.kron(KET0, KET1), atol=1e-15)

    def test_apply_unitary_rejects_a_non_unitary_operator(self):
        # diag(1, 2) leaves |0> normalised, so only the operator check can catch it
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(zero_state((0, 1)), np.diag([1, 2]), [0])


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestLocalKernels:
    """``apply_unitary`` and ``measure`` act on the block of the qubits they touch; the
    full-register ``embed`` of the same operator is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 3),
        extra=st.integers(0, 5),
        order=st.randoms(use_true_random=False),
        outcomes=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_the_embedded_reference(self, k, extra, order, outcomes, seed):
        n = k + extra
        labels = list(range(n))
        order.shuffle(labels)
        labels, on = tuple(labels), tuple(order.sample(labels, k))
        gen = np.random.default_rng(seed)
        v = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        state = QuantumState.pure(v / np.linalg.norm(v), labels)

        u = haar_unitary(gen, 2**k)
        out = apply_unitary(state, u, on)
        assert out.labels == labels
        np.testing.assert_allclose(out.data, embed(u, on, labels) @ state.data, rtol=0, atol=1e-12)

        # an instrument of up to four projectors, onto groups of a random orthonormal basis
        basis = haar_unitary(gen, 2**k)
        cuts = [0] + sorted(gen.choice(np.arange(1, 2**k), size=min(outcomes, 2**k) - 1, replace=False)) + [2**k]
        inst = [Projector(basis[:, a:b] @ basis[:, a:b].conj().T, on) for a, b in zip(cuts, cuts[1:])]
        shots = [embed(p.matrix, on, labels) @ state.data for p in inst]
        probs = [float(np.vdot(w, w).real) for w in shots]
        outcome, post, prob = measure(state, inst, np.random.default_rng(seed))
        assert outcome == qcore._draw(probs, np.random.default_rng(seed))
        assert prob == pytest.approx(probs[outcome], abs=1e-12)
        assert post.labels == labels
        np.testing.assert_allclose(post.data, shots[outcome] / np.sqrt(probs[outcome]), rtol=0, atol=1e-12)


class TestOnePassProduct:
    """``qcore._apply`` multiplies the touched qubits on the state's own axes in one product: against the
    full-register ``embed_at`` reference, over every register size the catalogue reaches, every axis order
    (adjacent, reversed and distant pairs) and each of its kernels (N-D dot up to 64 amplitudes, kron(op, I)
    on many short rows, stacked products otherwise)."""

    @staticmethod
    def check(n, axes, gen, normalise):
        k = len(axes)
        v = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        data = v / np.linalg.norm(v)
        before = data.copy()
        u = haar_unitary(gen, 2**k) * (1 + 1e-3 * normalise)  # a map the normalisation must undo
        out = qcore._apply(data, u, axes, normalise)
        want = qcore.embed_at(u, axes, n) @ data
        want = want / np.linalg.norm(want) if normalise else want
        assert out.shape == data.shape and out.flags.c_contiguous
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        assert np.array_equal(data, before)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 2),
        n=st.integers(1, 8),
        order=st.randoms(use_true_random=False),
        normalise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_embedded_reference(self, k, n, order, normalise, seed):
        n = max(n, k)
        axes = list(range(n))
        order.shuffle(axes)
        self.check(n, tuple(axes[:k]), np.random.default_rng(seed), normalise)

    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    def test_every_ordered_pair(self, n):
        gen = np.random.default_rng(n)
        for i in range(n):
            self.check(n, (i,), gen, True)
            for j in range(n):
                if i != j:
                    self.check(n, (i, j), gen, True)
