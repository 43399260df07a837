"""Repeat-until-success teleportation: preparation, Bell measurement, gates.

Correctness oracles are direct unitary application built in-test; outcome
distributions are checked against exactly computed overlap probabilities.
"""
import dataclasses
import gc
import io
import math
import re
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

import measureonly.qcore as qcore
from measureonly import cli, identities, protocol
from measureonly.measure import cnot_measurement_set, parity_slots, solve_two_qubit_parity_form
from measureonly.pauli import PHASES, PhasedPauli, cnot_frame_update, nearest_phased_pauli
from measureonly.protocol import (
    BIT_DECODE,
    BudgetExceeded,
    GateSpec,
    ProtocolConfig,
    ProtocolError,
    bell_measure,
    direct_state,
    prepare_ancilla_one,
    run_circuit,
    simulate_cnot,
    simulate_one_qubit,
    trials_needed,
)
from measureonly.qcore import QuantumState, apply_unitary, fidelity_up_to_phase, zero_state

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [I2, X, Y, Z]
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
EPR = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def twisted_bell(u, j):
    return np.kron(I2, u @ PAULIS[j]) @ EPR


def kron_states(a, b):
    """The register a (x) b on a's labels then b's, by np.kron."""
    return QuantumState.pure(np.kron(a.data, b.data), a.labels + b.labels)


def haar_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim=2):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q @ np.diag(d / np.abs(d))


class _ForcedRng:
    """Stub random stream that always returns a fixed integer."""

    def __init__(self, value):
        self.value = value

    def integers(self, *args, **kwargs):
        return self.value


class TestTrialsNeeded:
    def test_single_trial_edges(self):
        assert trials_needed(0.75, 1) == 1
        assert trials_needed(15 / 16, 2) == 1

    def test_small_epsilon_matches_loop_oracle(self):
        def oracle(eps, fail):
            n = 1
            while fail**n > eps:
                n += 1
            return n

        assert trials_needed(1e-6, 1) == oracle(1e-6, 0.75) == 49
        for eps in (0.5, 1e-3, 1e-9, 0.7499, 0.7501):
            assert trials_needed(eps, 1) == oracle(eps, 0.75)
            assert trials_needed(eps, 2) == oracle(eps, 15 / 16)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            trials_needed(0.0, 1)
        with pytest.raises(ValueError, match="epsilon"):
            trials_needed(1.0, 1)
        with pytest.raises(ValueError, match="arity"):
            trials_needed(0.5, 3)

    def test_gates_share_one_budget_per_arity(self, monkeypatch):
        # the budget depends on (epsilon, arity) alone, so 200 gates under one config work it out twice
        protocol.trials_needed.cache_clear()
        log, args = math.log, []

        def counting_log(x):
            args.append(x)
            return log(x)

        monkeypatch.setattr(math, "log", counting_log)
        circuit = [(GateSpec.named("H"), (0,)), (GateSpec.named("CNOT"), (0, 1))] * 100
        run_circuit(circuit, 2, ProtocolConfig(epsilon=1e-7, prep_mode="direct"), np.random.default_rng(3))
        assert args.count(1e-7) <= 2


class TestProtocolConfig:
    def test_budget_from_epsilon_per_arity(self):
        cfg = ProtocolConfig(epsilon=1e-9)
        assert cfg.budget(1) == trials_needed(1e-9, 1)
        assert cfg.budget(2) == trials_needed(1e-9, 2)

    def test_explicit_budget_wins(self):
        assert ProtocolConfig(epsilon=1e-9, max_trials=5).budget(1) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="prep_mode"):
            ProtocolConfig(prep_mode="psychic")
        with pytest.raises(ValueError, match="epsilon"):
            ProtocolConfig(epsilon=2.0)
        with pytest.raises(ValueError, match="either"):
            ProtocolConfig(epsilon=None, max_trials=None)

    @pytest.mark.parametrize("bad", [2.5, True, 0])
    def test_max_trials_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="max_trials"):
            ProtocolConfig(max_trials=bad)

    def test_integer_max_trials_is_the_budget(self):
        assert ProtocolConfig(max_trials=3).budget(2) == 3

    @pytest.mark.parametrize("cfg", [ProtocolConfig(max_trials=3), ProtocolConfig(epsilon=1e-3)],
                             ids=["max_trials", "epsilon"])
    @pytest.mark.parametrize("arity", [0, 3, 7])
    def test_budget_checks_the_arity_on_both_paths(self, cfg, arity):
        with pytest.raises(ValueError, match=f"arity must be 1 or 2, got {arity}"):
            cfg.budget(arity)


class TestPrepareAncillaOne:
    def test_measured_identity_yields_a_bell_state(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state, j = prepare_ancilla_one(I2, "measured", rng)
            expected = QuantumState.pure(twisted_bell(I2, j), state.labels)
            assert fidelity_up_to_phase(state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_direct_with_forced_index_zero_gives_epr(self):
        state, j = prepare_ancilla_one(I2, "direct", _ForcedRng(0))
        assert j == 0
        np.testing.assert_allclose(state.data, EPR, atol=1e-12)

    def test_measured_distribution_matches_exact_overlaps(self):
        # oracle: starting from |00>, outcome j occurs with probability
        # |<U_j|00>|^2, which is NOT uniform for every gate
        ket00 = np.eye(4)[0]
        n_runs = 4000
        for u in (I2, HADAMARD, T_GATE):
            exact = np.array([abs(np.vdot(twisted_bell(u, j), ket00)) ** 2 for j in range(4)])
            rng = np.random.default_rng(42)
            counts = np.zeros(4)
            for _ in range(n_runs):
                state, j = prepare_ancilla_one(u, "measured", rng)
                counts[j] += 1
                expected = QuantumState.pure(twisted_bell(u, j), state.labels)
                assert fidelity_up_to_phase(state, expected) > 1 - 1e-10
            freq = counts / n_runs
            np.testing.assert_allclose(freq, exact, atol=5 * np.sqrt(0.25 / n_runs) + 1e-12)

    @pytest.mark.parametrize("which", list(range(20)) + ["H", "T", "I", "X", "Y", "Z"])
    def test_prepared_index_law_is_exact(self, which):
        # deterministic companion of the sampled check above: the x-axis slot a
        # then the z-axis slot b of the public parity forms leave |00> with
        # weight |<U_j|00>|^2 = |(u sigma_j)_00|^2 / 2, j = BIT_DECODE[(a, b)]
        named = {"H": HADAMARD, "T": T_GATE, "I": I2, "X": X, "Y": Y, "Z": Z}
        u = named[which] if which in named else haar_unitary(np.random.default_rng([which, 13]))
        slots_x, slots_z = (parity_slots(solve_two_qubit_parity_form(i, u)) for i in (1, 3))
        ket00 = np.eye(4, dtype=complex)[0]
        law = np.zeros(4)
        for a in (0, 1):
            for b in (0, 1):
                j = BIT_DECODE[(a, b)]
                v = slots_z[b].matrix @ slots_x[a].matrix @ ket00
                law[j] = np.vdot(v, v).real
                assert law[j] == pytest.approx(abs((u @ PAULIS[j])[0, 0]) ** 2 / 2, abs=1e-12)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        if which == "T":
            np.testing.assert_allclose(law, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_identity_prep_from_zeros_reaches_indices_0_and_3_only(self):
        # |<B_1|00>| = |<B_2|00>| = 0, so those indices can never occur
        rng = np.random.default_rng(1)
        seen = {prepare_ancilla_one(I2, "measured", rng)[1] for _ in range(200)}
        assert seen == {0, 3}

    def test_hadamard_prep_reaches_all_indices_uniformly(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(4)
        for _ in range(4000):
            _, j = prepare_ancilla_one(HADAMARD, "measured", rng)
            counts[j] += 1
        chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
        assert chi2 < 16.27  # 3 dof at significance 1e-3

    def test_custom_labels(self):
        state, _ = prepare_ancilla_one(I2, "direct", _ForcedRng(2), labels=("u", "v"))
        assert state.labels == ("u", "v")

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    @pytest.mark.parametrize("labels", [("a",), ("a", "a"), ("a", "b", "c"), ()], ids=["one", "twice", "three", "none"])
    def test_refuses_labels_before_the_draw(self, labels, mode):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="two distinct labels"):
            prepare_ancilla_one(HADAMARD, mode, rng, labels=labels)
        assert rng.random() == np.random.default_rng(12).random()

    @pytest.mark.parametrize("u", [np.eye(4), np.array([1, 0])], ids=["4x4", "vector"])
    def test_rejects_a_matrix_that_is_not_2x2(self, u):
        with pytest.raises(ValueError, match=re.escape(f"2x2 gate matrix, got shape {u.shape}")):
            prepare_ancilla_one(u, "measured", np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    def test_rejects_a_matrix_that_is_not_unitary(self, mode):
        with pytest.raises(ValueError, match="not unitary"):
            prepare_ancilla_one(np.diag([2**0.5, 0]), mode, np.random.default_rng(0))


class TestBellMeasure:
    def test_bell_basis_state_is_deterministic(self):
        for i in range(4):
            rng = np.random.default_rng(i)
            m, post = bell_measure(qcore.bell_state(i, (0, 1)), (0, 1), rng)
            assert m == i
            assert post.labels == ()

    def test_product_with_spectator_leaves_it_untouched(self):
        rng = np.random.default_rng(3)
        v = haar_state(rng, 1)
        state = kron_states(qcore.bell_state(0, (0, 1)), QuantumState.pure(v, (2,)))
        m, post = bell_measure(state, (0, 1), rng)
        assert m == 0
        assert post.labels == (2,)
        assert abs(np.vdot(post.data, v)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_pair_is_uniform(self):
        # qubits 0 and 1 of the EPR pairs (0, 2) and (1, 3) are maximally
        # mixed: the pairs purify them
        counts = np.zeros(4)
        n_runs = 2000
        state = kron_states(qcore.bell_state(0, (0, 2)), qcore.bell_state(0, (1, 3)))
        for seed in range(n_runs):
            rng = np.random.default_rng(seed)
            m, post = bell_measure(state, (0, 1), rng)
            counts[m] += 1
            assert post.labels == (2, 3)
        chi2 = float(((counts - n_runs / 4) ** 2 / (n_runs / 4)).sum())
        assert chi2 < 16.27  # 3 dof at significance 1e-3

    def test_negated_variants_report_the_pauli_prep_index(self):
        # the variant for Pauli gate i reports j when fed the state
        # (I (x) sigma_i sigma_j) EPR, which is Bell state [i, j]
        variants = {1: (0, 1), 2: (1, 1), 3: (1, 0)}
        for i, variant in variants.items():
            for j in range(4):
                rng = np.random.default_rng(10 * i + j)
                state = QuantumState.pure(twisted_bell(PAULIS[i], j), (0, 1))
                m, _ = bell_measure(state, (0, 1), rng, variant=variant)
                assert m == j, (i, j)

    def test_rejects_same_qubit_and_unknown_labels(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="distinct"):
            bell_measure(qcore.bell_state(0, (0, 1)), (0, 0), rng)
        with pytest.raises(ValueError, match="unknown"):
            bell_measure(qcore.bell_state(0, (0, 1)), (0, 9), rng)

    @pytest.mark.parametrize("pair", [(0,), (0, 1, 2)])
    def test_rejects_a_pair_that_is_not_two_labels(self, pair):
        with pytest.raises(ValueError, match=f"exactly two qubits, got {len(pair)} labels"):
            bell_measure(zero_state((0, 1, 2)), pair, np.random.default_rng(4))

    @pytest.mark.parametrize("variant", [(0,), (0, 1, 0), (2, 0), (0, -1)])
    def test_rejects_a_variant_that_is_not_a_pair_of_bits(self, variant):
        with pytest.raises(ValueError, match="pair of bits"):
            bell_measure(qcore.bell_state(0, (0, 1)), (0, 1), np.random.default_rng(4), variant=variant)


def dense_bell_reference(state, pair, rng, variant):
    """The Bell step the slow way: embedded (I +/- XX)/2 and (I +/- ZZ)/2, then the pair's
    Bell state contracted out of the register."""
    eye = np.eye(4, dtype=complex)
    bits = []
    for v, p in zip(variant, (X, Z)):
        p0 = qcore.embed((eye + (-1) ** v * np.kron(p, p)) / 2, pair, state.labels)
        slots = (qcore.Projector(p0, state.labels), qcore.Projector(np.eye(state.dim) - p0, state.labels))
        bit, state, _ = qcore.measure(state, slots, rng)
        bits.append(bit)
    a, b = bits
    bell = np.kron(I2, PAULIS[BIT_DECODE[(a ^ variant[0], b ^ variant[1])]]) @ EPR
    rest = tuple(q for q in state.labels if q not in pair)
    out = np.einsum("p,pr->r", bell.conj(), qcore.permute_to(state, pair + rest).data.reshape(4, -1))
    # the projections leave the pair in exactly that Bell state
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)
    return BIT_DECODE[(a, b)], QuantumState.pure(out / np.linalg.norm(out), rest), (a, b)


class TestBellKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 8),
        order=st.randoms(use_true_random=False),
        variant=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
        seed=st.integers(0, 2**32 - 1),
        bell_on_pair=st.sampled_from([None, 0, 1, 2, 3]),
    )
    def test_matches_the_dense_reference(self, n, order, variant, seed, bell_on_pair):
        labels = list(range(n))
        order.shuffle(labels)
        pair = (labels[0], labels[1])
        gen = np.random.default_rng(seed)
        if bell_on_pair is None:
            state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        else:
            # a definite Bell state on the pair makes some outcomes impossible
            rest = QuantumState.pure(haar_state(gen, n - 2), tuple(labels[2:])) if n > 2 else None
            state = qcore.bell_state(bell_on_pair, pair)
            state = qcore.permute_to(kron_states(state, rest) if rest else state, tuple(range(n)))
        rng_kernel, rng_dense = np.random.default_rng(seed), np.random.default_rng(seed)
        m, post = bell_measure(state, pair, rng_kernel, variant)
        m_ref, post_ref, _ = dense_bell_reference(state, pair, rng_dense, variant)
        assert m == m_ref
        assert post.labels == post_ref.labels == tuple(q for q in range(n) if q not in pair)
        assert fidelity_up_to_phase(post, post_ref) >= 1 - 1e-12
        assert rng_kernel.random() == rng_dense.random()


def pair_ancilla(u, indices):
    """(I (x) u (sigma_j (x) ...)) on EPR pairs (a_i, f_i), in qubit order (a_1..a_k, f_1..f_k)."""
    k = len(indices)
    epr, paulis = EPR, PAULIS[indices[0]]
    for j in indices[1:]:
        epr, paulis = np.kron(epr, EPR), np.kron(paulis, PAULIS[j])
    # (a_1, f_1, a_2, f_2) -> (a_1, a_2, f_1, f_2)
    epr = epr.reshape((2,) * 2 * k).transpose(tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2)))
    return np.kron(np.eye(2**k), u @ paulis) @ epr.reshape(-1)


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_twisted_bell_closed_form_is_the_kron_reference(k, seed):
    u = haar_unitary(np.random.default_rng(seed), 2**k)
    state = qcore.twisted_bell(u, tuple(range(2 * k)))
    assert state.labels == tuple(range(2 * k))
    np.testing.assert_allclose(state.data, pair_ancilla(u, (0,) * k), rtol=0, atol=1e-14)


def random_phased_pauli(gen):
    return (1, -1, 1j, -1j)[int(gen.integers(4))] * PAULIS[int(gen.integers(4))]


def drawn_matrix(drawn):
    """A row's drawn map as an array: a one-qubit row-major 4-tuple, a pair frame's two of them
    side by side, or the controlled-NOT's own 4x4 array."""
    if isinstance(drawn, np.ndarray):
        return drawn
    if len(drawn) == 2:
        return np.kron(drawn_matrix(drawn[0]), drawn_matrix(drawn[1]))
    return np.array(drawn).reshape(2, 2)


def skip_preparation_draws(rng, mode, k):
    """Advance ``rng`` past what a trial draws before its Bell uniforms."""
    if mode == "measured":
        rng.random(2 * k)
    else:
        for _ in range(k):
            rng.integers(0, 4)


class TestTeleportStep:
    """A trial's row applied to the data against the merged register it replaces."""

    @staticmethod
    def merged_reference(state, positions, ancilla, rng):
        # tensor the ancilla in, Bell-measure each pair, splice the free half back
        k = len(positions)
        anc = QuantumState.pure(ancilla, [f"a{i}" for i in range(k)] + [f"f{i}" for i in range(k)])
        merged = kron_states(state, anc)
        outcomes, bits = (), ()
        for i, p in enumerate(positions):
            m, merged, b = dense_bell_reference(merged, (state.labels[p], f"a{i}"), rng, (0, 0))
            outcomes, bits = outcomes + (m,), bits + b
        free = {f"f{i}": state.labels[p] for i, p in enumerate(positions)}
        merged = QuantumState.pure(merged.data, tuple(free.get(q, q) for q in merged.labels))
        return outcomes, qcore.permute_to(merged, state.labels), bits

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        extra=st.integers(0, 5),
        order=st.randoms(use_true_random=False),
        kind=st.sampled_from(["haar", "cnot", "pauli"]),
        mode=st.sampled_from(["measured", "direct"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_merged_register(self, k, extra, order, kind, mode, seed):
        n = min(k + extra, 8 - 2 * k)
        gen = np.random.default_rng(seed)
        positions = list(range(n))
        order.shuffle(positions)
        positions = tuple(positions[:k])
        if kind == "pauli" and k == 2:
            # a phased Pauli pair, the frame left after a failed controlled-NOT
            # trial: two one-qubit ancillas, whose rows the pair frame joins
            u = np.kron(*[random_phased_pauli(gen) for _ in range(2)])
            frame = protocol._pauli_frame(nearest_phased_pauli(u))
            assert frame.halves
        elif kind == "cnot" and k == 2:
            u, frame = CNOT, protocol._named_frame("CNOT")
        else:
            u = haar_unitary(gen, 2**k) if kind == "haar" else random_phased_pauli(gen)
            frame = protocol._Frame(None, u)
            if k == 2:
                mode = "direct"  # a two-qubit frame without halves prepares by measurement as the controlled-NOT
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        axes = positions + tuple(p for p in range(n) if p not in positions)
        rng_step, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fields, prepared, measured, drawn, _ = frame.trial(mode, rng_step)
        data = qcore._from_front(drawn_matrix(drawn) @ qcore._to_front(state.data, axes, k), axes)
        skip_preparation_draws(rng_ref, mode, k)
        # a measured preparation leaves the twisted Bell state of its index, up to a phase
        ancilla = pair_ancilla(u, divmod(prepared, 4) if k == 2 else (prepared,))
        outcomes_ref, post_ref, bits_ref = self.merged_reference(state, positions, ancilla, rng_ref)
        assert (measured, fields["bell_bits"]) == (protocol._CODE[bits_ref], bits_ref)
        assert tuple(BIT_DECODE[bits_ref[i:i + 2]] for i in range(0, 2 * k, 2)) == outcomes_ref
        assert fidelity_up_to_phase(QuantumState.pure(data, state.labels), post_ref) >= 1 - 1e-12
        assert rng_step.random() == rng_ref.random()


class TestBellOutcomeLaw:
    """The exact law of every Bell step: whatever the data, each pair's outcome has weight 1/4
    and each joint outcome of a two-qubit step 1/16.  A trial reads its Bell bits from that law
    without weights, so they must be the bits ``_draw_bell`` draws from those weights on the same
    uniforms, and every map a frame holds must be unitary."""

    EDGES = [0.0, float(np.nextafter(0.5, 0)), 0.5, float(np.nextafter(1, 0))]

    @staticmethod
    def assert_bits_are_the_weighted_draws(us):
        k = len(us) // 2
        frame = protocol._named_frame("T" if k == 1 else "CNOT")
        fields, _, code, drawn, _ = frame.row(1, us)  # the ancilla written down with index code 1
        r, want = protocol._draw_bell([1 / 4] * 4, us[:2])
        if k == 2:
            r2, second = protocol._draw_bell([1 / 16] * 4, us[2:])
            r, want = 4 * r + r2, want + second
        assert (fields["bell_bits"], code) == (want, protocol._CODE[want])
        assert np.array_equal(drawn_matrix(drawn), all_bell_maps(prep_ancilla(frame, 1))[r])

    @pytest.mark.parametrize("u", EDGES)
    @pytest.mark.parametrize("v", EDGES)
    def test_bits_at_the_edges(self, u, v):
        self.assert_bits_are_the_weighted_draws([u, v])
        self.assert_bits_are_the_weighted_draws([u, v, v, u])

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_drawn_map_is_its_row_of_every_map(self, k):
        # a first visit forms only the drawn map; it must be, to the bit, that map in the product of all of them
        gen = np.random.default_rng(79)
        every = protocol._BELL_MAPS[k].reshape(16**k, -1)
        for _ in range(400 // k**3):
            frame = protocol._Frame(None, haar_unitary(gen, 2**k))
            for code in range(4**k):
                for r in range(4**k):
                    us = [0.5 * int(b) for b in format(r, f"0{2 * k}b")]
                    drawn = drawn_matrix(frame.row(code, us)[3])
                    want = every.dot(prep_ancilla(frame, code)).reshape(4**k, 2**k, 2**k)[r]
                    assert np.array_equal(drawn, want), (code, r)
            a = haar_state(gen, 2 * k)
            rows = every.dot(a).reshape(4**k, 4**k)
            assert all(np.array_equal(protocol._BELL_MAPS[k][r].dot(a), rows[r]) for r in range(4**k))

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2]), us=st.lists(st.floats(0, 1, exclude_max=True), min_size=4, max_size=4))
    def test_bits_are_the_weighted_draws(self, k, us):
        self.assert_bits_are_the_weighted_draws(us[:2 * k])

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "pauli", "cnot", "pair"]),
        n=st.integers(2, 4),
        mode=st.sampled_from(["measured", "direct"]),
        failures=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_map_is_an_isometry_over_2_to_the_k(self, kind, n, mode, failures, seed):
        """A trial draws from 4^-k per outcome without looking at the data.  That holds because
        every map a frame holds is unitary, the teleportation's map scaled by 2^k, so the drawn
        block keeps norm 1 without normalisation.  Three trials run, following each failure to its
        successor; every row filled so far, and the whole map of each ancilla a row was drawn from,
        must be unitary."""
        gen = np.random.default_rng(seed)
        frame = law_frame(kind, failures, gen)
        block = haar_state(gen, n).reshape(2**frame.k, -1)
        for _ in range(3):
            _, prepared, measured, drawn, _ = frame.trial(mode, gen)
            rows = list(frame_rows(frame))
            assert rows and all(0 <= key < 2 * 16**f.k for f, key, _ in rows)
            for f, key, row in rows:
                maps = np.concatenate([drawn_matrix(row[3])[None], all_bell_maps(prep_ancilla(f, key >> 2 * f.k))])
                gram = maps.conj().swapaxes(1, 2) @ maps
                assert np.abs(gram - np.eye(gram.shape[-1])).max() <= 1e-12
            block = drawn_matrix(drawn) @ block
            assert abs(np.vdot(block, block).real - 1) <= 1e-12
            if measured != prepared:
                frame = frame.after(prepared, measured)


def frame_rows(frame):
    """(frame, key, row) of every row filled so far that a frame's trials read: its own, or its
    halves' for a pair frame."""
    for f in frame.halves or (frame,):
        yield from ((f, key, row) for key, row in f.rows.items())


def all_bell_maps(ancilla):
    """Every Bell map of a 2k-qubit ancilla vector, (4^k, 2^k, 2^k), in one product: the reference
    for the drawn map a row forms alone."""
    k = 1 if ancilla.size == 4 else 2
    return protocol._BELL_MAPS[k].reshape(16**k, -1).dot(ancilla).reshape(4**k, 2**k, 2**k)


def prep_ancilla(frame, prep):
    """The ancilla a frame's rows from ``prep`` were drawn from: written down with index code
    ``prep`` below 4^k, else the vector its measured preparation left at node ``prep``."""
    if prep < 4**frame.k:
        return qcore._bell_amplitudes(frame.target @ protocol._PAULIS[frame.k][prep])
    return frame.nodes[prep >> 1][2][prep & 1]


def law_frame(kind, failures, gen):
    """A frame of the given kind: a Haar or phased-Pauli one-qubit target, the controlled-NOT's
    root, or the pair frame its failed trials (measured != prepared) reach."""
    if kind in ("haar", "pauli"):
        return protocol._Frame(None, haar_unitary(gen) if kind == "haar" else random_phased_pauli(gen))
    frame = protocol._named_frame("CNOT")
    for prepared, offset in failures if kind == "pair" else ():
        frame = frame.after(prepared, (prepared + offset) % 16)
    assert bool(frame.halves) == (kind == "pair")
    return frame


def all_outcomes_bell_block(block, maps, rng, variant=(0, 0)):
    """The Bell kernel that forms every outcome's block and squares it for that outcome's weight.

    A trial's row gives only the drawn map, from the exact law on the teleportation path, and
    ``bell_measure`` forms only the drawn block from given weights; this is the reference both
    must agree with.
    """
    rows = (maps.reshape(-1, len(block)) @ block).reshape(len(maps), -1)
    parts = rows.view(np.float64)
    w = (parts * parts).sum(axis=1).tolist()
    first = w if len(w) == 4 else [sum(w[:4]), sum(w[4:8]), sum(w[8:12]), sum(w[12:])]
    us = rng.random(2 if len(w) == 4 else 4).tolist()
    r, bits = protocol._draw_bell(first, us[:2], variant)
    if len(w) == 16:
        r2, bits2 = protocol._draw_bell(w[4 * r:4 * r + 4], us[2:])
        r, bits = 4 * r + r2, bits + bits2
    return protocol._CODE[bits], (rows[r] / math.sqrt(w[r])).reshape(maps.shape[1], -1), bits


def trial_preps(frame, prep_bits, prepared):
    """Where a trial that prepared index code ``prepared`` with bits ``prep_bits`` (None when written
    down) read its row from, the frame's own or one of each half's for a pair frame: the index code,
    or the node its measured preparation reached, keyed 1 then its bits."""
    frames = frame.halves or (frame,)
    if prep_bits is None:
        return list(divmod(prepared, 4) if frame.halves else (prepared,))
    step = len(prep_bits) // len(frames)
    return [int("1" + "".join(map(str, prep_bits[i * step:(i + 1) * step])), 2) for i in range(len(frames))]


class TestAllOutcomesReference:
    """The one-block kernel against the all-outcomes kernel on the same random stream."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "pauli", "cnot", "pair"]),
        n=st.integers(2, 6),
        mode=st.sampled_from(["measured", "direct"]),
        failures=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_teleportation_steps_agree(self, kind, n, mode, failures, seed):
        gen = np.random.default_rng(seed)
        frame = law_frame(kind, failures, gen)
        fields, prepared, _, _, _ = frame.trial(mode, gen)
        frames = frame.halves or (frame,)
        preps = trial_preps(frame, fields["prep_bits"], prepared)
        maps = [all_bell_maps(prep_ancilla(f, prep)) for f, prep in zip(frames, preps)]
        maps = np.stack([np.kron(maps[0][r >> 2], maps[1][r & 3]) for r in range(16)]) if frame.halves else maps[0]
        block = haar_state(gen, n).reshape(2**frame.k, -1)
        rng_kernel, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        us = rng_kernel.random(2 * frame.k).tolist()
        # a pair frame's halves read two uniforms each
        rows = [f.row(prep, us[2 * i:2 * i + 2 * f.k]) for i, (f, prep) in enumerate(zip(frames, preps))]
        fields, _, code, drawn, _ = protocol._join(*rows, frame.target) if frame.halves else rows[0]
        code_ref, ref, bits_ref = all_outcomes_bell_block(block, maps, rng_ref)
        assert (code, fields["bell_bits"]) == (code_ref, bits_ref)
        np.testing.assert_allclose(drawn_matrix(drawn) @ block, ref, rtol=0, atol=1e-12)
        assert rng_kernel.random() == rng_ref.random()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 8),
        order=st.randoms(use_true_random=False),
        variant=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
        seed=st.integers(0, 2**32 - 1),
        bell_on_pair=st.sampled_from([None, 0, 1, 2, 3]),
    )
    def test_bell_measure_agrees(self, n, order, variant, seed, bell_on_pair):
        labels = list(range(n))
        order.shuffle(labels)
        pair = (labels[0], labels[1])
        gen = np.random.default_rng(seed)
        if bell_on_pair is None:
            state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        else:
            # a definite Bell state on the pair makes some outcomes impossible
            rest = QuantumState.pure(haar_state(gen, n - 2), tuple(labels[2:])) if n > 2 else None
            state = qcore.bell_state(bell_on_pair, pair)
            state = qcore.permute_to(kron_states(state, rest) if rest else state, tuple(range(n)))
        rng_kernel, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        m, post = bell_measure(state, pair, rng_kernel, variant)
        block = qcore._to_front(state.data, qcore._axes(state.labels, pair), 2)
        m_ref, ref, _ = all_outcomes_bell_block(block, protocol._BELL_ROWS.reshape(4, 1, 4), rng_ref, variant)
        assert m == m_ref
        np.testing.assert_allclose(post.data, ref.reshape(-1), rtol=0, atol=1e-12)
        assert rng_kernel.random() == rng_ref.random()


class TestDrawsPerTrial:
    """A trial's draws never depend on the data or on the budget: measured mode draws 4k doubles
    per trial, direct mode k indices (``integers(0, 4)``, the control's first) then 2k doubles.
    After each gate the stream must be where a twin advanced by that much per trial of the
    gate's trace is, whether the gate succeeded or ran out of trials."""

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    def test_each_gate_advances_the_stream_by_its_trials(self, mode):
        rng, gen = np.random.default_rng(71), np.random.default_rng(72)
        gates = [GateSpec.named("H"), GateSpec.named("T"), GateSpec.custom(haar_unitary(gen)), None]
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        state = QuantumState.pure(haar_state(gen, 3), (0, 1, 2))
        cfgs = [ProtocolConfig(prep_mode=mode), ProtocolConfig(max_trials=2, prep_mode=mode)]
        short = 0
        for i in range(40):
            gate, cfg = gates[i % 4], cfgs[i // 4 % 2]
            if gate is None:
                state, trace = simulate_cnot(state, (2, 0), cfg, rng)
            else:
                state, trace = simulate_one_qubit(gate, state, 1, cfg, rng)
            k = 1 if gate else 2
            for _ in range(trace.total_trials):
                if mode == "measured":
                    twin.random(4 * k)
                else:
                    for _ in range(k):
                        twin.integers(0, 4)
                    twin.random(2 * k)
            assert rng.bit_generator.state == twin.bit_generator.state, (i, trace.total_trials)
            short += trace.total_trials < cfg.budget(k)
        assert short >= 10


class TestNormDrift:
    """The Bell maps are unitary, so a gate composes its trials' maps and normalises the block once:
    after 10^4 maps composed as ``_teleport`` composes them, on custom frames or on the
    controlled-NOT's pair frames, the block's norm must still be 1 to 1e-10."""

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    @pytest.mark.parametrize("kind", ["haar", "pair"])
    def test_ten_thousand_steps_keep_the_norm(self, kind, mode):
        gen = np.random.default_rng(73)
        failures = [[(int(gen.integers(16)), int(gen.integers(1, 16)))] for _ in range(8)]
        frames = [law_frame(kind, f, gen) for f in failures]
        block = haar_state(gen, 4).reshape(2**frames[0].k, -1)
        composed = ((1 + 0j, 0j, 0j, 1 + 0j),) * (2 if kind == "pair" else 1)
        worst = 0.0
        for step in range(10**4):
            drawn = frames[step % len(frames)].trial(mode, gen)[3]
            drawn = drawn if kind == "pair" else (drawn,)
            composed = tuple(protocol._compose(m, c) for m, c in zip(drawn, composed))
            out = drawn_matrix(composed if kind == "pair" else composed[0]) @ block
            worst = max(worst, abs(np.vdot(out, out).real - 1))
        assert worst <= 1e-10


def per_trial_teleport(frame, state, qubits, cfg, rng):
    """``protocol._teleport`` with each trial's drawn map multiplied into the data block in turn:
    (unnormalised data, records, residual frame or None)."""
    k = frame.k
    axes = qcore._axes(state.labels, qubits)
    block = qcore._to_front(state.data, axes, k)
    records = []
    for r in range(1, cfg.budget(k) + 1):
        fields, prepared, measured, drawn, _ = frame.trial(cfg.prep_mode, rng)
        records.append(protocol.TrialRecord(index=r, **fields))
        block = drawn_matrix(drawn) @ block
        if prepared == measured:
            return qcore._from_front(block, axes), records, None
        frame = frame.after(prepared, measured)
    return qcore._from_front(block, axes), records, frame


class TestComposedTeleport:
    """A gate composes its trials' maps and multiplies the data block once: the result must be
    what multiplying each trial's map into the block in turn gives on the same random stream."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "pauli", "cnot", "pair"]),
        n=st.integers(2, 6),
        mode=st.sampled_from(["measured", "direct"]),
        budget=st.integers(1, 4),
        failures=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_trial_products(self, kind, n, mode, budget, failures, order, seed):
        gen = np.random.default_rng(seed)
        frame = law_frame(kind, failures, gen)
        labels = list(range(n))
        order.shuffle(labels)
        qubits = tuple(labels[:frame.k])
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        cfg = ProtocolConfig(max_trials=budget, prep_mode=mode)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out, trace = protocol._teleport(frame, state, qubits, cfg, rng)
        data_ref, records_ref, residual = per_trial_teleport(frame, state, qubits, cfg, rng_ref)
        assert [t.to_dict() for t in trace.trials] == [t.to_dict() for t in records_ref]
        assert all(t.target is t_ref.target for t, t_ref in zip(trace.trials, records_ref))
        assert trace.succeeded == (residual is None)
        if residual is not None:
            assert trace.residual_matrix is residual.target and trace.residual_pauli == residual.key
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert out.labels == state.labels
        np.testing.assert_allclose(out.data, data_ref / np.linalg.norm(data_ref), rtol=0, atol=1e-12)


class TestTrialRecords:
    """The loop builds each record without running the frozen dataclass's constructor."""

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    def test_a_loop_built_record_is_a_constructed_one(self, mode):
        rng = np.random.default_rng(74)
        cfg = ProtocolConfig(max_trials=6, prep_mode=mode)
        names = [f.name for f in dataclasses.fields(protocol.TrialRecord)]
        for _ in range(20):
            traces = [simulate_one_qubit(GateSpec.named("T"), zero_state((0, 1)), 1, cfg, rng)[1],
                      simulate_cnot(zero_state((0, 1, 2)), (2, 0), cfg, rng)[1]]
            for trace in traces:
                assert [t.index for t in trace.trials] == list(range(1, trace.total_trials + 1))
                for record in trace.trials:
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        record.success = not record.success
                    assert sorted(vars(record)) == sorted(names)
                    built = protocol.TrialRecord(*(getattr(record, name) for name in names))
                    for name in names:
                        mine, theirs = getattr(record, name), getattr(built, name)
                        assert type(mine) is type(theirs) and (mine is theirs or mine == theirs), name
                    assert record.success == (record.prepared == record.outcome)
                    assert repr(record) == repr(built) and record.to_dict() == built.to_dict()


class TestProtocolTraces:
    """The loop builds each trace without running the frozen dataclass's constructor, as it builds
    records: a built trace must be the constructed one, field for field, whether the gate succeeded
    or ran out of trials with a Pauli or a non-Pauli residual."""

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    def test_a_loop_built_trace_is_a_constructed_one(self, mode):
        rng = np.random.default_rng(75)
        names = [f.name for f in dataclasses.fields(protocol.ProtocolTrace)]
        seen = set()
        for i in range(60):
            cfg = ProtocolConfig(max_trials=1 + i // 3 % 3, prep_mode=mode)
            trace = [simulate_one_qubit(GateSpec.named("H"), zero_state((0, 1)), 1, cfg, rng)[1],
                     simulate_one_qubit(GateSpec.named("T"), zero_state((0,)), 0, cfg, rng)[1],
                     simulate_cnot(zero_state((0, 1, 2)), (2, 0), cfg, rng)[1]][i % 3]
            with pytest.raises(dataclasses.FrozenInstanceError):
                trace.succeeded = not trace.succeeded
            assert sorted(vars(trace)) == sorted(names)
            built = protocol.ProtocolTrace(*(getattr(trace, name) for name in names))
            for name in names:
                mine, theirs = getattr(trace, name), getattr(built, name)
                assert type(mine) is type(theirs) and (mine is theirs or mine == theirs), name
            assert repr(trace) == repr(built) and trace.to_dict() == built.to_dict()
            assert trace.succeeded == (trace.residual_matrix is None)
            seen.add((trace.succeeded, trace.residual_pauli is not None))
        assert seen == {(True, False), (False, True), (False, False)}


class _Uniforms:
    """Stub random stream handing out fixed uniforms, and fixed indices in direct mode."""

    def __init__(self, us, codes=()):
        self.us, self.codes = list(us), list(codes)

    def random(self, n):
        out, self.us = self.us[:n], self.us[n:]
        return np.array(out)

    def integers(self, *args):
        return self.codes.pop(0)


class TestWarmLookup:
    """A warm one-qubit trial, or each half of a pair frame's, is one indexed lookup: it must give the
    very row the reference chain gives (``_Frame.walk`` then ``_Frame.row`` on the node it reaches;
    ``row`` on the index code when written down), and a failed trial's row must carry the frame
    ``_Frame.after`` gives.
    Uniforms sit at the draw's edges: 0, each node's p0/total and its neighbours, 1/2 and 1 - 2^-53."""

    BELL = [0.0, float(np.nextafter(0.5, 0)), 0.5, 1 - 2**-53]

    @staticmethod
    def frames():
        gen = np.random.default_rng(76)
        pair = protocol._named_frame("CNOT").after(4 * 1 + 2, 4 * 3 + 0)
        return {"H": protocol._named_frame("H"), "T": protocol._named_frame("T"),
                "X": protocol._named_frame("X"), "haar": protocol._Frame(None, haar_unitary(gen)), "pair": pair}

    @staticmethod
    def edges(u):
        """The uniforms at the edges of a draw whose outcome 0 has weight u, all in [0, 1)."""
        return sorted({x for x in (0.0, float(np.nextafter(u, 0)), u, float(np.nextafter(u, 1)), 0.5, 1 - 2**-53)
                       if 0 <= x < 1})

    @classmethod
    def prep_uniforms(cls, frame):
        """Pairs of preparation uniforms at the edges of the frame's two preparation draws."""
        frame.walk([0.0, 0.0])
        frame.walk([1 - 2**-53, 0.0])
        p0, total, _ = frame.nodes[1]
        for u0 in cls.edges(p0 / total):
            p0, total, _ = frame.nodes[2 if u0 * total < p0 else 3]
            for u1 in cls.edges(p0 / total):
                yield u0, u1

    @staticmethod
    def reference_row(frame, mode, us, code):
        if mode == "direct":
            return frame.row(code, us[2:])
        return frame.row(frame.walk(us)[0], us[2:])

    @staticmethod
    def check_successor(frame, row, mode, us, code):
        # one trial through _teleport on the same draws; a failure files its successor in the row
        draws = us[2:] if mode == "direct" else us
        state, cfg = zero_state((0,)), ProtocolConfig(max_trials=1, prep_mode=mode)
        _, trace = protocol._teleport(frame, state, (0,), cfg, _Uniforms(draws, [code]))
        assert trace.succeeded == (row[1] == row[2])
        if not trace.succeeded:
            assert row[4] is frame.after(row[1], row[2])
            assert trace.residual_matrix is row[4].target

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    @pytest.mark.parametrize("name", ["H", "T", "X", "haar"])
    def test_one_qubit_frames(self, name, mode):
        frame = self.frames()[name]
        preps = list(self.prep_uniforms(frame)) if mode == "measured" else [(None, None)] * 4
        for i, (u0, u1) in enumerate(preps):
            code = i % 4
            for u2 in self.BELL:
                for u3 in self.BELL:
                    us = [u0, u1, u2, u3]
                    draws = us[2:] if mode == "direct" else us
                    row = frame.trial(mode, _Uniforms(draws, [code]))
                    assert row is self.reference_row(frame, mode, us, code)
                    assert frame.trial(mode, _Uniforms(draws, [code])) is row
                    # keyed by the bits the trial drew: 1, preparation and Bell bits, or index code and Bell bits
                    if mode == "measured":
                        bits = row[0]["prep_bits"] + row[0]["bell_bits"]
                        assert frame.rows[int("1" + "".join(map(str, bits)), 2)] is row
                    else:
                        assert frame.rows[4 * code + int("".join(map(str, row[0]["bell_bits"])), 2)] is row
                    self.check_successor(frame, row, mode, us, code)

    def test_a_fresh_frame_fills_on_its_first_visit(self):
        gen = np.random.default_rng(77)
        for _ in range(20):
            u = haar_unitary(gen)
            twin = protocol._Frame(None, u)
            for u0, u1 in self.prep_uniforms(twin):
                us = [u0, u1, float(gen.choice(self.BELL)), float(gen.choice(self.BELL))]
                fresh = protocol._Frame(None, u)
                row = fresh.trial("measured", _Uniforms(us))
                assert row is self.reference_row(fresh, "measured", us, None)
                assert fresh.trial("measured", _Uniforms(us)) is row
                assert row[4] is None and row[0]["prep_bits"] == node_bits(twin.walk(us)[0])

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    def test_pair_frame_halves(self, mode):
        frame = self.frames()["pair"]
        a, b = frame.halves
        gen = np.random.default_rng(78)
        for _ in range(200):
            us = [float(gen.choice(self.BELL + [float(gen.random())])) for _ in range(8)]
            codes = [int(gen.integers(4)), int(gen.integers(4))]
            draws = us[4:] if mode == "direct" else us
            row = frame.trial(mode, _Uniforms(draws, list(codes)))
            if mode == "measured":
                ra = self.reference_row(a, mode, us[:2] + us[4:6], None)
                rb = self.reference_row(b, mode, us[2:4] + us[6:], None)
            else:
                ra = self.reference_row(a, mode, [None, None] + us[4:6], codes[0])
                rb = self.reference_row(b, mode, [None, None] + us[6:], codes[1])
            assert row[3][0] is ra[3] and row[3][1] is rb[3]
            assert row[:4] == protocol._join(ra, rb, frame.target)[:4]
            if row[1] != row[2]:
                _, trace = protocol._teleport(frame, zero_state((0, 1)), (0, 1),
                                              ProtocolConfig(max_trials=1, prep_mode=mode), _Uniforms(draws, list(codes)))
                assert trace.residual_pauli == frame.after(row[1], row[2]).key


def node_bits(node):
    """The bits drawn to reach a preparation node, keyed 1 then those bits in binary."""
    return tuple(int(c) for c in bin(node)[3:])


class TestOneFrameBothModes:
    """A frame's rows hold measured and direct trials side by side, apart by key: a measured row under
    its preparation node then Bell bits, in [16^k, 2 * 16^k); a direct one under its index code then
    Bell bits, below 16^k.  Frames warmed in one mode must then give the other mode's seeded run
    exactly as fresh frames do."""

    @staticmethod
    def stats(gate, mode):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["stats", "--gate", gate, "--prep", mode, "--trials", "50", "--seed", "9", "--json"])
        return buf.getvalue()

    @staticmethod
    def clear_frames():
        for cache in (protocol._pauli_frame, protocol._pair_frame, protocol._named_frame):
            cache.cache_clear()

    @pytest.mark.parametrize("warm", ["measured", "direct"])
    def test_warm_frames_in_one_mode_serve_the_other(self, warm):
        other = "direct" if warm == "measured" else "measured"
        gates = ("H", "T", "CNOT")
        self.clear_frames()
        fresh = [self.stats(gate, other) for gate in gates]
        self.clear_frames()
        for gate in gates:
            self.stats(gate, warm)
        assert [self.stats(gate, other) for gate in gates] == fresh
        frames = {id(f): f for name in gates for g in _reachable(protocol._named_frame(name))
                  for f in (g, *(g.halves or ()))}
        seen = set()
        for f in frames.values():
            for key, row in f.rows.items():
                measured = row[0]["prep_bits"] is not None
                assert (16**f.k <= key < 2 * 16**f.k) if measured else (0 <= key < 16**f.k), (key, row[0])
                seen.add((f.k, measured))
        assert seen == {(1, True), (1, False), (2, True), (2, False)}


class TestBranchTables:
    """Measured preparation replayed from a frame's nodes against a fresh sequence of measurements."""

    @staticmethod
    def replay_matches_fresh(frame, instruments, labels, seeds):
        for seed in seeds:
            rng_table, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            node, ancilla = frame.walk(rng_table.random(len(instruments)).tolist())
            bits = node_bits(node)
            state, fresh_bits = zero_state(labels), ()
            for slots in instruments:
                b, state, _ = qcore.measure(state, slots, rng_fresh)
                fresh_bits += (b,)
            assert bits == fresh_bits
            assert np.array_equal(ancilla, state.data)
            assert rng_table.random() == rng_fresh.random()

    @pytest.mark.parametrize("which", list(range(20)) + ["H", "T", "I", "X", "Y", "Z"])
    def test_one_qubit_frames(self, which):
        named = {"H": HADAMARD, "T": T_GATE, "I": I2, "X": X, "Y": Y, "Z": Z}
        u = named[which] if which in named else haar_unitary(np.random.default_rng([which, 29]))
        frame = protocol._named_frame(which) if which in protocol._GATE_MATRICES else protocol._Frame(None, u)
        labels = ("prep0", "prep1")
        instruments = [parity_slots(solve_two_qubit_parity_form(i, u, targets=labels)) for i in (1, 3)]
        self.replay_matches_fresh(frame, instruments, labels, range(40))

    def test_cnot_set(self):
        labels = protocol._PREP2
        instruments = [m.slots() for m in cnot_measurement_set(labels=labels)]
        self.replay_matches_fresh(protocol._named_frame("CNOT"), instruments, labels, range(80))

    def test_a_branch_whose_outcomes_vanish_is_refused(self):
        frame = protocol._Frame(None, I2)
        frame._instruments = np.zeros((2, 2, 4, 4), dtype=complex)
        for _ in range(2):  # on every visit, as the node is not stored
            with pytest.raises(ValueError, match="degenerate"):
                frame.walk([0.5, 0.5])
            assert frame.nodes == {}

    def test_fresh_custom_gates_keep_the_cache_bounded(self):
        # With the catalogue's whole graph interned first, the bound is tight:
        # the 16 phased Paulis and the 8 other frames H and T reach.
        for name in protocol._GATE_MATRICES:
            _reachable(protocol._named_frame(name))
        cfg = ProtocolConfig(max_trials=1, prep_mode="measured")
        rng = np.random.default_rng(30)
        for _ in range(2000):
            simulate_one_qubit(GateSpec.custom(haar_unitary(rng)), zero_state((0,)), 0, cfg, rng)
        gc.collect()
        assert sum(isinstance(o, protocol._Frame) and o.k == 1 for o in gc.get_objects()) <= 24


class TestStackedCollapse:
    """One stacked product forms every outcome's branch exactly as one product per projector did."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "cnot"]),
        columns=st.sampled_from([None, 1, 2, 4, 8]),
        start=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_projector_products(self, kind, columns, start, seed):
        gen = np.random.default_rng(seed)
        frame = protocol._Frame(None, haar_unitary(gen)) if kind == "haar" else protocol._named_frame("CNOT")
        instruments = frame.instruments()
        d = instruments.shape[-1]
        for mats in instruments:
            if start:
                # the all-|0> start leaves some outcomes impossible
                block = np.kron(np.eye(1, d, dtype=complex)[0], np.eye(1, columns or 1, dtype=complex)[0])
            else:
                block = haar_state(gen, (d * (columns or 1)).bit_length() - 1)
            block = block.reshape(d, columns) if columns else block
            probs, posts = qcore._collapse(block, mats)
            shots = [m @ block for m in mats]
            assert probs == [float(np.vdot(v, v).real) for v in shots]
            for post, v, p in zip(posts, shots, probs):
                if p > 0:
                    assert np.array_equal(post, v / np.sqrt(p))
                else:
                    assert post is None


class TestPendingGateClosure:
    def test_hadamard_closes_after_one_failure(self):
        root = protocol._named_frame("H")
        for j in range(4):
            for m in range(4):
                if m == j:
                    continue
                nxt = root.after(j, m)
                assert nearest_phased_pauli(nxt.target) is not None, (j, m)
                oracle = HADAMARD @ PAULIS[m] @ PAULIS[j] @ HADAMARD.conj().T
                np.testing.assert_allclose(nxt.target, oracle, atol=1e-12)

    def test_t_gate_closes_after_two_failures(self):
        root = protocol._named_frame("T")
        for j in range(4):
            for m in range(4):
                if m == j:
                    continue
                first = root.after(j, m)
                product_index = {frozenset((0, 1)): 1, frozenset((0, 2)): 2, frozenset((0, 3)): 3,
                                 frozenset((1, 2)): 3, frozenset((1, 3)): 2, frozenset((2, 3)): 1}
                axis = product_index[frozenset((j, m))]
                # z-axis residuals are already Paulis, x/y ones are not
                assert (nearest_phased_pauli(first.target) is not None) == (axis == 3)
                for j2 in range(4):
                    for m2 in range(4):
                        if m2 == j2:
                            continue
                        second = first.after(j2, m2)
                        assert nearest_phased_pauli(second.target) is not None, (j, m, j2, m2)

    def test_cnot_closes_after_one_failure(self):
        root = protocol._named_frame("CNOT")
        for jk in range(16):
            for mn in range(16):
                if jk == mn:
                    continue
                j, k = divmod(jk, 4)
                m, n = divmod(mn, 4)
                nxt = root.after(jk, mn)
                assert nxt.key is not None
                oracle = CNOT @ np.kron(PAULIS[m] @ PAULIS[j], PAULIS[n] @ PAULIS[k]) @ CNOT
                np.testing.assert_allclose(nxt.target, oracle, atol=1e-12)

    def test_cnot_second_failure_stays_in_pauli_pairs(self):
        rng = np.random.default_rng(5)
        frame = protocol._named_frame("CNOT").after(4 * 1 + 2, 4 * 3 + 0)
        for _ in range(50):
            j, k, m, n = (int(x) for x in rng.integers(0, 4, size=4))
            before = frame.target
            frame = frame.after(4 * j + k, 4 * m + n)
            oracle = before @ np.kron(PAULIS[m] @ PAULIS[j], PAULIS[n] @ PAULIS[k]) @ before.conj().T
            assert frame.key is not None
            np.testing.assert_allclose(frame.target, oracle, atol=1e-12)


def _frame_walk(root, steps):
    frame = root
    for prepared, measured in steps:
        frame = frame.after(prepared, measured)
    return frame


def _reachable(root):
    """Every frame a chain of failed trials reaches from ``root``, ``root`` included."""
    seen, todo = {id(root): root}, [root]
    while todo:
        frame = todo.pop()
        codes = range(4**frame.k)
        for nxt in (frame.after(p, m) for p in codes for m in codes if p != m):
            if id(nxt) not in seen:
                seen[id(nxt)] = nxt
                todo.append(nxt)
    return list(seen.values())


class TestFrameGraph:
    """Interned frames against the pending-gate arithmetic they cache."""

    @settings(max_examples=150, deadline=None)
    @given(
        gate=st.sampled_from(["H", "T", "X", "Y", "Z", "haar", "CNOT"]),
        seed=st.integers(0, 2**32 - 1),
        raw=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 14)), min_size=1, max_size=6),
    )
    def test_frames_follow_the_pending_gate(self, gate, seed, raw):
        codes = 16 if gate == "CNOT" else 4
        # prepared != measured: a failed trial
        steps = [(p % codes, (p % codes + 1 + d % (codes - 1)) % codes) for p, d in raw]
        if gate == "CNOT":
            root = protocol._named_frame("CNOT")
            oracle = CNOT
            for prepared, measured in steps:
                (j, k), (m, n) = divmod(prepared, 4), divmod(measured, 4)
                oracle = oracle @ np.kron(PAULIS[m] @ PAULIS[j], PAULIS[n] @ PAULIS[k]) @ oracle.conj().T
            frame = _frame_walk(root, steps)
            np.testing.assert_allclose(frame.target, oracle, atol=1e-12)
            # the key is the owed gate
            assert np.array_equal(frame.target, frame.key.matrix())
        else:
            if gate == "haar":
                u = haar_unitary(np.random.default_rng(seed))
                root = protocol._Frame(None, u)
            else:
                u, root = GateSpec.named(gate).matrix, protocol._named_frame(gate)
            oracle = u
            for prepared, measured in steps:
                oracle = oracle @ PAULIS[measured] @ PAULIS[prepared] @ oracle.conj().T
            frame = _frame_walk(root, steps)
            np.testing.assert_allclose(frame.target, oracle, atol=1e-12)
        assert _frame_walk(root, steps) is frame
        assert not frame.target.flags.writeable

    def test_live_frames_stay_bounded(self):
        # A reused gate keeps its frame hot in the cache while fresh gates
        # flood it; links to successors must not keep evicted frames alive.
        cfg = ProtocolConfig(max_trials=4, prep_mode="measured")
        rng = np.random.default_rng(31)
        hot = GateSpec.custom(haar_unitary(rng))
        for i in range(2000):
            gate = hot if i % 2 else GateSpec.custom(haar_unitary(rng))
            simulate_one_qubit(gate, zero_state((0,)), 0, cfg, rng)
        gc.collect()
        frames = [o for o in gc.get_objects() if isinstance(o, protocol._Frame)]
        assert sum(f.k == 1 for f in frames) <= 512 + sum(f.k == 2 for f in frames)

    def test_signed_zeros_do_not_split_one_qubit_frames(self):
        # GateSpec.named("Y") holds -0.0 real parts, the +Y phased Pauli's
        # matrix +0.0; the named frame and the snapped successor are one
        root = protocol._named_frame("Y")
        assert root.after(0, 2) is root

    def test_twin_codes_share_a_successor(self):
        # sigma_0 sigma_j = sigma_j sigma_0, so preparing j and measuring 0
        # owes the gate that preparing 0 and measuring j owes
        for root in (protocol._named_frame("T"), protocol._Frame(None, haar_unitary(np.random.default_rng(43)))):
            for j in (1, 2, 3):
                assert root.after(j, 0) is root.after(0, j)

    def test_pair_frames_are_keyed_on_the_owed_gate(self):
        # however the phase falls between the halves, one owed two-qubit Pauli
        # has one frame
        for prep in ("measured", "direct"):
            cfg = ProtocolConfig(max_trials=8, prep_mode=prep)
            for seed in range(300):
                simulate_cnot(zero_state((0, 1)), (0, 1), cfg, np.random.default_rng(seed))
        gc.collect()
        pairs = [o for o in gc.get_objects() if isinstance(o, protocol._Frame) and o.k == 2 and o.key is not None]
        owed = [str(nearest_phased_pauli(f.target)) for f in pairs]
        assert len(pairs) > 16
        assert len(set(owed)) == len(owed) <= 64

    def test_one_frame_per_owed_gate(self):
        # a pair frame's halves, a named Pauli and a snapped successor owing
        # one phased Pauli are one frame, keyed on it
        for prep in ("measured", "direct"):
            cfg = ProtocolConfig(max_trials=8, prep_mode=prep)
            for seed in range(300):
                rng = np.random.default_rng(seed)
                simulate_cnot(zero_state((0, 1)), (0, 1), cfg, rng)
                simulate_one_qubit(GateSpec.named("T"), zero_state((0,)), 0, cfg, rng)
        gc.collect()
        frames = [o for o in gc.get_objects() if isinstance(o, protocol._Frame)]
        keys = [f.key for f in frames if f.key is not None]
        assert len(set(keys)) == len(keys) > 16
        for f in frames:
            pauli = nearest_phased_pauli(f.target)
            assert pauli is None or f.key == pauli, (f.key, pauli)


class TestWalkedFrameGraph:
    """The frame graph that every failure code reaches from each catalogue root, pinned."""

    @pytest.mark.parametrize("name, frames, not_pauli",
                             [("H", 13, 1), ("T", 19, 7), ("X", 12, 0), ("Y", 12, 0), ("Z", 12, 0)])
    def test_one_qubit_frame_counts(self, name, frames, not_pauli):
        reached = _reachable(protocol._named_frame(name))
        assert all(f.k == 1 for f in reached)
        assert len(reached) == frames
        assert sum(nearest_phased_pauli(f.target) is None for f in reached) == not_pauli

    def test_two_qubit_successors_are_exact_pauli_algebra(self):
        # from the root, the owed sigma_(mn) sigma_(jk) conjugated by the
        # controlled-NOT table; from a pair frame, its halves' successors side by side
        root = protocol._named_frame("CNOT")
        reached = _reachable(root)
        assert len(reached) == 61 and all(f.k == 2 for f in reached)
        for frame in reached:
            for prepared in range(16):
                for measured in set(range(16)) - {prepared}:
                    (j, k), (m, n) = divmod(prepared, 4), divmod(measured, 4)
                    if frame is root:
                        owed = PhasedPauli(1, (m, n)) * PhasedPauli(1, (j, k))
                        gamma, p, q = cnot_frame_update(*owed.indices)
                        expected = PhasedPauli(gamma * owed.phase, (p, q))
                    else:
                        a, b = (half.after(i, o).key for half, i, o in zip(frame.halves, (j, k), (m, n)))
                        expected = PhasedPauli(a.phase * b.phase, a.indices + b.indices)
                    assert frame.after(prepared, measured).key == expected, (frame.key, prepared, measured)

    def test_a_pair_successor_is_the_dense_successor(self):
        # joined from the halves' one-qubit successors, it is the very frame _next_frame interns
        for p, q, phase in ((p, q, phase) for p in range(4) for q in range(4) for phase in PHASES):
            frame = protocol._pauli_frame(PhasedPauli(phase, (p, q)))
            for prepared in range(16):
                for measured in range(16):
                    dense = protocol._next_frame(frame.target, 2, prepared, measured)
                    assert frame.after(prepared, measured) is dense, (frame.key, prepared, measured)

    def test_no_keyed_pair_frame_fills_densely(self, monkeypatch):
        # fresh pair frames (not the interned ones, whose tables may be full) on every key and code
        dense = []
        next_frame = protocol._next_frame
        monkeypatch.setattr(protocol, "_next_frame", lambda t, k, *codes: dense.append(k) or next_frame(t, k, *codes))
        for key in (PhasedPauli(phase, (p, q)) for p in range(4) for q in range(4) for phase in PHASES):
            frame = protocol._Frame(key, key.matrix())
            for prepared in range(16):
                for measured in range(16):
                    assert frame.after(prepared, measured).key is not None
        assert 2 not in dense


class TestClosedFormFrames:
    """A fresh one-qubit frame's slots and successors, built without form objects or an SVD."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        raw=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=6),
    )
    def test_slots_are_the_public_parity_slots(self, seed, raw):
        # a Haar root, or the frame 1-6 failed trials leave
        root = protocol._Frame(None, GateSpec.custom(haar_unitary(np.random.default_rng(seed))).matrix)
        frame = _frame_walk(root, [(p, (p + 1 + d) % 4) for p, d in raw])
        instruments = frame.instruments()
        assert len(instruments) == 2
        for slots, i in zip(instruments, (1, 3)):
            public = parity_slots(solve_two_qubit_parity_form(i, frame.target, targets=("prep0", "prep1")))
            assert len(slots) == 2
            assert all(np.array_equal(mine, theirs.matrix) for mine, theirs in zip(slots, public))

    @pytest.mark.parametrize("target", [1.1 * I2, np.full((2, 2), np.nan)], ids=["scaled", "nan"])
    def test_plan_rejects_a_target_that_is_not_unitary(self, target):
        with pytest.raises(ValueError, match="not unitary"):
            protocol._Frame(None, target).instruments()

    def test_a_target_from_outside_is_checked_once(self, monkeypatch):
        # GateSpec checks a custom matrix; the frames it and the polar step derive are not checked again
        checked = []
        require_unitary = qcore._require_unitary
        monkeypatch.setattr(qcore, "_require_unitary", lambda u, dim: checked.append(u) or require_unitary(u, dim))
        rng = np.random.default_rng(43)
        u = haar_unitary(rng)
        _, trace = simulate_one_qubit(GateSpec.custom(u), zero_state((0,)), 0, ProtocolConfig(max_trials=8), rng)
        assert trace.total_trials > 1
        assert len(checked) == 1 and np.array_equal(checked[0], u)
        checked.clear()
        prepare_ancilla_one(u, "measured", rng)
        assert len(checked) == 1

    @pytest.mark.parametrize("seed", range(50))
    def test_the_successor_product_is_the_chained_product(self, seed, monkeypatch):
        # sigma_m sigma_p comes from a table of exact Pauli products, so t (sigma_m sigma_p) t^dagger
        # is t sigma_m sigma_p t^dagger to the bit, before the snap reads it
        owed = []
        monkeypatch.setattr(protocol, "nearest_phased_pauli", lambda m: owed.append(m) or nearest_phased_pauli(m))
        t = haar_unitary(np.random.default_rng([seed, 44]))
        for prepared in range(4):
            for measured in range(4):
                protocol._next_frame(t, 1, prepared, measured)
                chained = t @ PAULIS[measured] @ PAULIS[prepared] @ t.conj().T
                assert owed.pop().tobytes() == chained.tobytes(), (prepared, measured)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-12, 1e-6, 0.1]))
    def test_polar_step_is_the_svd_polar_factor(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = haar_unitary(rng) + scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u, _, vh = np.linalg.svd(m)
        np.testing.assert_allclose(protocol._unitary_part(m), u @ vh, rtol=0, atol=1e-12)

    @staticmethod
    def walk(frame, rng, until_pauli):
        """Failed trials from ``frame``: (last frame, steps, A_(n-1) ... A_0), where a
        trial that prepared j and measured m applies A_k = t_k sigma_j sigma_m."""
        applied, steps = I2, 0
        while steps < 10**4 and not (until_pauli and frame.key is not None):
            prepared, d = rng.integers(0, 4, size=2).tolist()
            measured = (prepared + 1 + d % 3) % 4
            applied = frame.target @ PAULIS[prepared] @ PAULIS[measured] @ applied
            frame, steps = frame.after(prepared, measured), steps + 1
        return frame, steps, applied

    @staticmethod
    def assert_owes_the_rest(u, frame, applied):
        # t_n A_(n-1) ... A_0 = U up to phase
        owed = frame.target @ applied
        phase = np.trace(u.conj().T @ owed) / 2
        assert abs(abs(phase) - 1) <= 1e-9
        assert np.abs(owed - phase * u).max() <= 1e-9

    def test_a_long_custom_chain_does_not_drift(self):
        rng = np.random.default_rng(41)
        u = GateSpec.custom(haar_unitary(rng)).matrix
        frame, steps, applied = self.walk(protocol._Frame(None, u), rng, until_pauli=False)
        assert steps == 10**4
        self.assert_owes_the_rest(u, frame, applied)

    def test_re_unitarised_steps_do_not_drift(self):
        # Each failure doubles the angle between the owed reflection's axis and
        # the failure's Pauli axis, so in floating point a chain closes onto a
        # phased Pauli within about a hundred steps; restarting from a fresh Haar
        # root whenever it does keeps the 10^4 steps on re-unitarised targets.
        rng = np.random.default_rng(42)
        total = 0
        while total < 10**4:
            u = GateSpec.custom(haar_unitary(rng)).matrix
            frame, steps, applied = self.walk(protocol._Frame(None, u), rng, until_pauli=True)
            self.assert_owes_the_rest(u, frame, applied)
            total += steps


class TestPublicInputs:
    @staticmethod
    def seeded_outputs():
        checks = [(c.name, c.deviation) for c in identities.identity_checks()]
        runs = []
        for name in ("H", "T", "CNOT"):
            for prep in ("measured", "direct"):
                rng = np.random.default_rng(17)
                cfg = ProtocolConfig(max_trials=3, prep_mode=prep)
                if name == "CNOT":
                    out, trace = simulate_cnot(zero_state((0, 1)), (0, 1), cfg, rng)
                else:
                    out, trace = simulate_one_qubit(GateSpec.named(name), zero_state((0,)), 0, cfg, rng)
                runs.append((trace.to_dict(), out.data.tobytes()))
        return checks, runs

    def test_shared_matrices_are_read_only(self):
        before = self.seeded_outputs()
        rng = np.random.default_rng(1)
        cfg = ProtocolConfig(max_trials=1, prep_mode="direct")
        _, one = simulate_one_qubit(GateSpec.named("H"), zero_state((0,)), 0, cfg, rng)
        _, two = simulate_cnot(zero_state((0, 1)), (0, 1), cfg, rng)
        shared = [GateSpec.named(g).matrix for g in ("H", "T", "X", "CNOT")]
        shared += list(protocol._GATE_MATRICES.values()) + [one.trials[0].target, two.trials[0].target]
        for m in shared:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 7
        custom = haar_unitary(rng)
        spec = GateSpec.custom(custom)
        custom[0, 0] = 7
        assert spec.matrix[0, 0] != 7
        assert self.seeded_outputs() == before

    @pytest.mark.parametrize(
        "name, matrix",
        [("CNOT", np.eye(4)[[0, 2, 1, 3]]), ("CNOT", I2), ("H", X), ("T", T_GATE.conj())],
        ids=["swap-as-CNOT", "one-qubit-CNOT", "X-as-H", "T-dagger-as-T"],
    )
    def test_catalogue_names_need_their_own_matrix(self, name, matrix):
        with pytest.raises(ValueError, match=f"named {name!r} must be that gate's"):
            GateSpec(name, matrix)

    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (2, 4), (2,)])
    def test_a_gate_matrix_is_2x2_or_4x4(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            GateSpec.custom(np.zeros(shape))

    def test_arity_is_read_from_the_matrix(self):
        arities = {name: GateSpec.named(name).arity for name in protocol._GATE_MATRICES}
        assert arities == {"H": 1, "T": 1, "X": 1, "Y": 1, "Z": 1, "CNOT": 2}

    def test_other_names_take_any_unitary(self):
        assert GateSpec("swap", np.eye(4)[[0, 2, 1, 3]]).arity == 2
        assert np.array_equal(GateSpec("H", HADAMARD).matrix, HADAMARD)


@settings(max_examples=300, deadline=None)
@given(
    p0=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300]) | st.floats(0, 1),
    p1=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300]) | st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_outcome_draw_is_the_general_draw(p0, p1, seed):
    rng2, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if p0 + p1 < qcore.STRUCT_TOL:
        with pytest.raises(ValueError, match="degenerate"):
            qcore._draw2(p0, p1, rng2.random())
        return
    assert qcore._draw2(p0, p1, rng2.random()) == qcore._draw((p0, p1), rng)
    assert rng2.random() == rng.random()


class TestSimulateOneQubit:
    CFG = ProtocolConfig(epsilon=1e-9, prep_mode="measured")

    def test_hadamard_on_zero(self):
        rng = np.random.default_rng(6)
        out, trace = simulate_one_qubit(GateSpec.named("H"), zero_state((0,)), 0, self.CFG, rng)
        assert trace.succeeded
        expected = QuantumState.pure(HADAMARD @ np.eye(2)[0], (0,))
        assert fidelity_up_to_phase(out, expected) > 1 - 1e-10

    def test_pauli_z_on_plus(self):
        rng = np.random.default_rng(7)
        plus = QuantumState.pure(np.array([1, 1]) / np.sqrt(2), (0,))
        out, trace = simulate_one_qubit(GateSpec.named("Z"), plus, 0, self.CFG, rng)
        assert trace.succeeded
        expected = QuantumState.pure(np.array([1, -1]) / np.sqrt(2), (0,))
        assert fidelity_up_to_phase(out, expected) > 1 - 1e-10

    @pytest.mark.parametrize("name", ["H", "T", "X", "Y", "Z"])
    def test_named_gates_on_random_inputs(self, name):
        gate = GateSpec.named(name)
        late_success_seen = False
        for seed in range(40):
            rng = np.random.default_rng([seed, 100])
            state = QuantumState.pure(haar_state(rng, 1), ("q",))
            out, trace = simulate_one_qubit(gate, state, "q", self.CFG, rng)
            assert trace.succeeded
            late_success_seen |= trace.total_trials >= 2
            expected = apply_unitary(state, gate.matrix, ("q",))
            assert fidelity_up_to_phase(out, expected) > 1 - 1e-10
            assert out.labels == state.labels
        assert late_success_seen

    def test_custom_gate(self):
        rng = np.random.default_rng(8)
        u = haar_unitary(rng)
        state = QuantumState.pure(haar_state(rng, 1), (0,))
        out, trace = simulate_one_qubit(GateSpec.custom(u), state, 0, self.CFG, rng)
        assert trace.succeeded
        assert fidelity_up_to_phase(out, apply_unitary(state, u, (0,))) > 1 - 1e-10

    def test_gate_on_part_of_an_entangled_register(self):
        rng = np.random.default_rng(9)
        state = QuantumState.pure(EPR, ("a", "b"))
        out, trace = simulate_one_qubit(GateSpec.named("H"), state, "b", self.CFG, rng)
        assert trace.succeeded
        assert out.labels == ("a", "b")
        expected = apply_unitary(state, HADAMARD, ("b",))
        assert fidelity_up_to_phase(out, expected) > 1 - 1e-10

    def test_trace_invariants(self):
        rng = np.random.default_rng(10)
        _, trace = simulate_one_qubit(GateSpec.named("T"), zero_state((0,)), 0, self.CFG, rng)
        for r, t in enumerate(trace.trials, start=1):
            assert t.index == r
            assert t.success == (t.prepared == t.outcome)
            assert BIT_DECODE[t.bell_bits] == t.outcome
        assert trace.succeeded == trace.trials[-1].success
        assert all(not t.success for t in trace.trials[:-1])

    def test_budget_exhaustion_reports_usable_residual(self):
        cfg = ProtocolConfig(max_trials=1, prep_mode="measured")
        gate = GateSpec.named("H")
        failures = 0
        for seed in range(30):
            rng = np.random.default_rng([seed, 11])
            state = QuantumState.pure(haar_state(rng, 1), (0,))
            out, trace = simulate_one_qubit(gate, state, 0, cfg, rng)
            if trace.succeeded:
                continue
            failures += 1
            assert trace.residual_matrix is not None
            assert trace.residual_pauli is not None  # one failed trial leaves a Pauli
            # applying the residual gate finishes the job
            fixed = apply_unitary(out, trace.residual_matrix, (0,))
            expected = apply_unitary(state, gate.matrix, (0,))
            assert fidelity_up_to_phase(fixed, expected) > 1 - 1e-10
        assert failures > 10

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        prep=st.sampled_from(["measured", "direct"]),
        max_trials=st.integers(1, 4),
    )
    def test_custom_gates_finish_or_owe_their_residual(self, seed, n, prep, max_trials):
        gen = np.random.default_rng(seed)
        u = haar_unitary(gen)
        qubit = int(gen.integers(0, n))
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        cfg = ProtocolConfig(max_trials=max_trials, prep_mode=prep)
        out, trace = simulate_one_qubit(GateSpec.custom(u), state, qubit, cfg, gen)
        assert out.labels == state.labels
        assert trace.total_trials <= max_trials
        expected = apply_unitary(state, u, (qubit,))
        if trace.succeeded:
            assert trace.residual_matrix is None
        else:
            # the gate still owed, applied to the output, completes U|psi>
            assert trace.total_trials == max_trials
            out = apply_unitary(out, trace.residual_matrix, (qubit,))
        assert fidelity_up_to_phase(out, expected) >= 1 - 1e-10

    def test_direct_mode_matches_oracle(self):
        cfg = ProtocolConfig(epsilon=1e-9, prep_mode="direct")
        for seed in range(20):
            rng = np.random.default_rng([seed, 12])
            state = QuantumState.pure(haar_state(rng, 1), (0,))
            out, trace = simulate_one_qubit(GateSpec.named("T"), state, 0, cfg, rng)
            assert trace.succeeded
            assert fidelity_up_to_phase(out, apply_unitary(state, T_GATE, (0,))) > 1 - 1e-10


class TestSimulateCnot:
    CFG = ProtocolConfig(epsilon=1e-9, prep_mode="measured")

    def test_flips_target_when_control_set(self):
        rng = np.random.default_rng(13)
        state = QuantumState.pure(np.eye(4)[0b10], (0, 1))
        out, trace = simulate_cnot(state, (0, 1), self.CFG, rng)
        assert trace.succeeded
        expected = QuantumState.pure(np.eye(4)[0b11], (0, 1))
        assert fidelity_up_to_phase(out, expected) > 1 - 1e-10

    def test_random_inputs_match_direct_application(self):
        late_success_seen = False
        for seed in range(60):
            rng = np.random.default_rng([seed, 14])
            state = QuantumState.pure(haar_state(rng, 2), ("c", "t"))
            out, trace = simulate_cnot(state, ("c", "t"), self.CFG, rng)
            assert trace.succeeded
            late_success_seen |= trace.total_trials >= 2
            expected = apply_unitary(state, CNOT, ("c", "t"))
            assert fidelity_up_to_phase(out, expected) > 1 - 1e-10
            assert out.labels == state.labels
        assert late_success_seen

    def test_entangled_spectator_rides_along(self):
        rng = np.random.default_rng(15)
        state = QuantumState.pure(haar_state(rng, 3), (0, 1, 2))
        out, trace = simulate_cnot(state, (1, 2), self.CFG, rng)
        assert trace.succeeded
        expected = apply_unitary(state, CNOT, (1, 2))
        assert fidelity_up_to_phase(out, expected) > 1 - 1e-10
        assert out.labels == (0, 1, 2)

    def test_budget_exhaustion_reports_pauli_pair(self):
        cfg = ProtocolConfig(max_trials=1, prep_mode="direct")
        failures = 0
        for seed in range(40):
            rng = np.random.default_rng([seed, 16])
            state = QuantumState.pure(haar_state(rng, 2), (0, 1))
            out, trace = simulate_cnot(state, (0, 1), cfg, rng)
            if trace.succeeded:
                continue
            failures += 1
            assert trace.residual_pauli is not None
            assert trace.residual_pauli.n == 2
            fixed = apply_unitary(out, trace.residual_matrix, (0, 1))
            expected = apply_unitary(state, CNOT, (0, 1))
            assert fidelity_up_to_phase(fixed, expected) > 1 - 1e-10
        assert failures > 25

    def test_trace_invariants(self):
        rng = np.random.default_rng(17)
        _, trace = simulate_cnot(zero_state((0, 1)), (0, 1), self.CFG, rng)
        for t in trace.trials:
            assert t.success == (t.prepared == t.outcome)
        assert trace.succeeded

    def test_rejects_identical_qubits(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="distinct"):
            simulate_cnot(zero_state((0, 1)), (0, 0), self.CFG, rng)

    @pytest.mark.parametrize("qubits", [(0,), (0, 1, 2)], ids=["one", "three"])
    def test_needs_exactly_two_labels(self, qubits):
        with pytest.raises(ValueError, match="exactly two qubits"):
            simulate_cnot(zero_state((0, 1, 2)), qubits, self.CFG, np.random.default_rng(0))


class TestQubitBoundary:
    """A gate resolves its qubits before its first draw: an unknown or repeated label raises the
    register layout's ValueError and leaves the random stream where it was."""

    @pytest.mark.parametrize("mode", ["measured", "direct"])
    @pytest.mark.parametrize("gate, qubits, match", [
        ("H", (7,), "unknown"), ("T", ("a",), "unknown"),
        ("CNOT", (0, 7), "unknown"), ("CNOT", (7, 1), "unknown"), ("CNOT", (2, 2), "duplicate"),
    ])
    def test_rejects_before_drawing(self, gate, qubits, match, mode):
        rng = np.random.default_rng(19)
        before = rng.bit_generator.state
        state, cfg = zero_state((0, 1, 2)), ProtocolConfig(prep_mode=mode)
        with pytest.raises(ValueError, match=match):
            if gate == "CNOT":
                simulate_cnot(state, qubits, cfg, rng)
            else:
                simulate_one_qubit(GateSpec.named(gate), state, qubits[0], cfg, rng)
        assert rng.bit_generator.state == before


class TestRunCircuit:
    CFG = ProtocolConfig(epsilon=1e-9, prep_mode="measured")

    def test_empty_circuit(self):
        rng = np.random.default_rng(19)
        final, traces, register = run_circuit([], 2, self.CFG, rng)
        assert traces == []
        assert register == [0, 1]
        np.testing.assert_allclose(final.data, np.eye(4)[0], atol=1e-12)

    def test_bell_pair_circuit(self):
        rng = np.random.default_rng(20)
        circuit = [(GateSpec.named("H"), (0,)), (GateSpec.named("CNOT"), (0, 1))]
        final, traces, _ = run_circuit(circuit, 2, self.CFG, rng)
        assert all(t.succeeded for t in traces)
        assert fidelity_up_to_phase(final, qcore.bell_state(0, (0, 1))) > 1 - 1e-9

    def test_random_circuits_match_direct_simulation(self):
        for seed in (21, 22):
            rng = np.random.default_rng(seed)
            circuit = []
            for _ in range(30):
                name = ("H", "T", "CNOT")[rng.integers(3)]
                if name == "CNOT":
                    qubits = tuple(int(q) for q in rng.choice(3, size=2, replace=False))
                else:
                    qubits = (int(rng.integers(3)),)
                circuit.append((GateSpec.named(name), qubits))
            final, traces, _ = run_circuit(circuit, 3, self.CFG, rng)
            reference = zero_state((0, 1, 2))
            for gate, qubits in circuit:
                reference = apply_unitary(reference, gate.matrix, qubits)
            assert fidelity_up_to_phase(final, reference) > 1 - 1e-8
            assert direct_state(circuit, 3).labels == (0, 1, 2)

    @pytest.mark.parametrize("prep", ["measured", "direct"])
    def test_eight_logical_qubits_match_direct_simulation(self, prep):
        # no merged register: only the 8-qubit cap on QuantumState applies
        rng = np.random.default_rng(31)
        names = ("H", "T", "X", "Y", "Z", "CNOT")
        circuit = []
        for _ in range(30):
            name = names[rng.integers(len(names))]
            if name == "CNOT":
                qubits = tuple(int(q) for q in rng.choice(8, size=2, replace=False))
            else:
                qubits = (int(rng.integers(8)),)
            circuit.append((GateSpec.named(name), qubits))
        cfg = ProtocolConfig(epsilon=1e-9, prep_mode=prep)
        final, traces, register = run_circuit(circuit, 8, cfg, rng)
        assert register == list(range(8))
        assert all(t.succeeded for t in traces)
        assert fidelity_up_to_phase(final, direct_state(circuit, 8)) >= 1 - 1e-9

    def test_budget_exhaustion_aborts_with_partial_traces(self):
        cfg = ProtocolConfig(max_trials=1, prep_mode="direct")
        circuit = [(GateSpec.named("H"), (0,))] * 10
        rng = np.random.default_rng(23)
        with pytest.raises(BudgetExceeded) as info:
            run_circuit(circuit, 1, cfg, rng)
        exc = info.value
        assert 1 <= len(exc.traces) <= 10
        assert not exc.traces[-1].succeeded
        assert exc.gate_index == len(exc.traces) - 1

    def test_rejects_custom_two_qubit_gates(self):
        rng = np.random.default_rng(24)
        gate = GateSpec.custom(CNOT @ np.kron(I2, HADAMARD))
        with pytest.raises(ProtocolError, match="controlled-NOT"):
            run_circuit([(gate, (0, 1))], 2, self.CFG, rng)

    def test_custom_two_qubit_gate_is_rejected_before_any_gate_runs(self):
        class NoDraws:
            def __getattr__(self, attr):
                raise AssertionError(f"a gate ran before the circuit was validated (rng.{attr})")

        circuit = [(GateSpec.named("H"), (0,)), (GateSpec.custom(np.kron(HADAMARD, HADAMARD)), (0, 1))]
        with pytest.raises(ProtocolError, match="controlled-NOT"):
            run_circuit(circuit, 2, self.CFG, NoDraws())

    def test_register_size_limits(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match=f"between 1 and {qcore.MAX_QUBITS}"):
            run_circuit([], qcore.MAX_QUBITS + 1, self.CFG, rng)

    @pytest.mark.parametrize("n", [2.5, True, np.int64(2)], ids=["float", "bool", "numpy"])
    def test_register_size_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=f"between 1 and {qcore.MAX_QUBITS}"):
            run_circuit([], n, self.CFG, np.random.default_rng(25))

    @pytest.mark.parametrize("name, labels", [("H", (0, 1)), ("T", ()), ("CNOT", (0, 1, 2)), ("CNOT", (0,))])
    def test_label_count_must_match_the_arity(self, name, labels):
        gate = GateSpec.named(name)
        circuit = [(GateSpec.named("X"), (0,)), (gate, labels)]
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError, match=rf"gate 1 \({name}\) acts on {gate.arity} qubit"):
            run_circuit(circuit, 3, self.CFG, rng)
        # nothing ran: the stream is untouched
        assert rng.random() == np.random.default_rng(26).random()

    @pytest.mark.parametrize("name, labels", [("H", (5,)), ("H", (-1,)), ("CNOT", (1, 1)), ("CNOT", (0, 2))])
    def test_labels_must_be_distinct_register_qubits(self, name, labels):
        class NoDraws:
            def __getattr__(self, attr):
                raise AssertionError(f"a gate ran before the circuit was validated (rng.{attr})")

        circuit = [(GateSpec.named("X"), (0,)), (GateSpec.named(name), labels)]
        with pytest.raises(ValueError, match=rf"gate 1 \({name}\) needs distinct qubits in 0..1"):
            run_circuit(circuit, 2, self.CFG, NoDraws())


def kron_reference(circuit, n):
    """A named-gate circuit's final state from |0...0>, by sparse Kronecker products of the
    textbook matrices: nothing is shared with the library's register layout."""
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    textbook = {"H": HADAMARD, "T": T_GATE, "X": X, "Y": Y, "Z": Z}

    def kron_all(factors):
        out = sparse.identity(1, dtype=complex, format="csr")
        for f in factors:
            out = sparse.kron(out, f, format="csr")
        return out

    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for gate, qubits in circuit:
        if gate.name == "CNOT":
            c, t = qubits
            op = (kron_all([p0 if q == c else I2 for q in range(n)])
                  + kron_all([p1 if q == c else X if q == t else I2 for q in range(n)]))
        else:
            op = kron_all([textbook[gate.name] if q == qubits[0] else I2 for q in range(n)])
        psi = op @ psi
    return psi


class TestWideRegisters:
    """Registers of 10 to ``MAX_QUBITS`` qubits: every state path acts on the qubits it touches."""

    @staticmethod
    def random_circuit(rng, n, length):
        names = ("H", "T", "X", "Y", "Z", "CNOT")
        circuit = []
        for _ in range(length):
            name = names[rng.integers(len(names))]
            qubits = tuple(int(q) for q in rng.choice(n, size=2 if name == "CNOT" else 1, replace=False))
            circuit.append((GateSpec.named(name), qubits))
        return circuit

    @pytest.mark.parametrize("prep", ["measured", "direct"])
    def test_twelve_qubits_match_a_kron_reference(self, prep):
        rng = np.random.default_rng(41)
        circuit = self.random_circuit(rng, 12, 24)
        final, traces, _ = run_circuit(circuit, 12, ProtocolConfig(epsilon=1e-9, prep_mode=prep), rng)
        assert all(t.succeeded for t in traces)
        assert abs(np.vdot(kron_reference(circuit, 12), final.data)) ** 2 >= 1 - 1e-9

    def test_ghz_on_the_widest_register(self):
        n = qcore.MAX_QUBITS
        circuit = [(GateSpec.named("H"), (0,))] + [(GateSpec.named("CNOT"), (q, q + 1)) for q in range(n - 1)]
        state = direct_state(circuit, n)
        expected = np.zeros(2**n, dtype=complex)
        expected[[0, -1]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(state.data, expected, rtol=0, atol=1e-12)

    def test_state_paths_build_no_full_register_operator(self, monkeypatch):
        # The controlled-NOT's preparation instruments are a catalogue construction
        # on its 4-qubit ancilla, built once per process: build them before the patch.
        protocol._named_frame("CNOT").instruments()

        def full_register_embedding(*args):
            raise AssertionError("a state path built a full-register operator")

        monkeypatch.setattr(qcore, "embed_at", full_register_embedding)
        n, gen = 10, np.random.default_rng(42)
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        assert apply_unitary(state, CNOT, (7, 2)).labels == state.labels
        z = (qcore.Projector(np.diag([1, 0]), (4,)), qcore.Projector(np.diag([0, 1]), (4,)))
        assert qcore.measure(state, z, gen)[1].labels == state.labels
        circuit = self.random_circuit(gen, n, 6)
        reference = direct_state(circuit, n)
        for prep in ("measured", "direct"):
            final, traces, _ = run_circuit(circuit, n, ProtocolConfig(epsilon=1e-9, prep_mode=prep), gen)
            assert fidelity_up_to_phase(final, reference) >= 1 - 1e-9


    @pytest.mark.parametrize("prep", ["measured", "direct"])
    @pytest.mark.parametrize("gate", ["H", "CNOT"])
    def test_one_trial_holds_a_few_states(self, gate, prep):
        # A trial forms only the drawn outcome's block: forming all 4^k would hold 9 states for H
        # and 33 for the controlled-NOT.
        n, gen = 16, np.random.default_rng(43)
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        cfg = ProtocolConfig(max_trials=1, prep_mode=prep)

        def trial():
            if gate == "H":
                simulate_one_qubit(GateSpec.named("H"), state, 5, cfg, gen)
            else:
                simulate_cnot(state, (5, 9), cfg, gen)

        for _ in range(8):  # fill the frames' plans and maps
            trial()
        tracemalloc.start()
        try:
            trial()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * state.data.nbytes


    @pytest.mark.parametrize("prep", ["measured", "direct"])
    @pytest.mark.parametrize("qubits", [(0,), (5,), (14,), (15,), (5, 9), (9, 10), (10, 9), (0, 15), (15, 14)])
    def test_a_gate_is_one_pass(self, qubits, prep):
        # The product runs on the state's own axes: a one-qubit gate, or a controlled-NOT on adjacent
        # qubits, allocates only its output; a distant pair still goes to the front of a copy.
        n, gen = 16, np.random.default_rng(44)
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        cfg = ProtocolConfig(max_trials=3, prep_mode=prep)

        def gate():
            if len(qubits) == 1:
                return simulate_one_qubit(GateSpec.named("T"), state, qubits[0], cfg, gen)
            return simulate_cnot(state, qubits, cfg, gen)

        for _ in range(8):  # fill the frames' plans and maps
            gate()
        tracemalloc.start()
        try:
            gate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adjacent = len(qubits) == 1 or abs(qubits[0] - qubits[1]) == 1
        # a distant pair's front copy and its product are two states; the slack is the trial's bookkeeping
        assert peak <= 1.1 * state.data.nbytes if adjacent else peak <= 2 * state.data.nbytes + 2**16


class TestStatistics:
    def test_first_trial_success_is_a_quarter(self):
        n_runs = 3000
        successes = 0
        cfg = ProtocolConfig(max_trials=1, prep_mode="direct")
        for seed in range(n_runs):
            rng = np.random.default_rng([seed, 26])
            _, trace = simulate_one_qubit(GateSpec.named("H"), zero_state((0,)), 0, cfg, rng)
            successes += trace.succeeded
        observed = np.array([successes, n_runs - successes])
        expected = np.array([n_runs / 4, 3 * n_runs / 4])
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 10.83  # 1 dof at significance 1e-3

    def test_success_is_independent_of_prepared_index(self):
        # contingency table (prepared index) x (success flag); the Hadamard
        # preparation reaches all four indices from |00>
        n_runs = 4000
        cfg = ProtocolConfig(max_trials=1, prep_mode="measured")
        table = np.zeros((4, 2), dtype=int)
        for seed in range(n_runs):
            rng = np.random.default_rng([seed, 28])
            state = QuantumState.pure(haar_state(rng, 1), (0,))
            _, trace = simulate_one_qubit(GateSpec.named("H"), state, 0, cfg, rng)
            trial = trace.trials[0]
            table[trial.prepared, int(trial.success)] += 1
        assert (table.sum(axis=1) > 0).all()
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3

    def test_measured_and_direct_modes_are_indistinguishable(self):
        n_runs = 1500
        histograms = {}
        for mode_index, mode in enumerate(("measured", "direct")):
            cfg = ProtocolConfig(epsilon=1e-9, prep_mode=mode)
            counts = []
            for seed in range(n_runs):
                rng = np.random.default_rng([seed, 27, mode_index])
                state = QuantumState.pure(haar_state(rng, 1), (0,))
                out, trace = simulate_one_qubit(GateSpec.named("T"), state, 0, cfg, rng)
                assert trace.succeeded
                assert fidelity_up_to_phase(out, apply_unitary(state, T_GATE, (0,))) > 1 - 1e-10
                counts.append(min(trace.total_trials, 9))
            histograms[mode] = np.bincount(counts, minlength=10)[1:]
        table = np.array([histograms["measured"], histograms["direct"]])
        table = table[:, table.sum(axis=0) > 0]
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3
