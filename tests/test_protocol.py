"""Repeat-until-success teleportation: preparation, Bell measurement, gates.

Correctness oracles are direct unitary application built in-test; outcome
distributions are checked against exactly computed overlap probabilities.
"""
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import measureonly.qcore as qcore
from measureonly import identities, protocol
from measureonly.measure import cnot_measurement_set, parity_slots, solve_two_qubit_parity_form
from measureonly.pauli import nearest_phased_pauli
from measureonly.protocol import (
    BIT_DECODE,
    BudgetExceeded,
    GateSpec,
    PendingGate,
    ProtocolConfig,
    ProtocolError,
    _bell_measure_bits,
    bell_measure,
    direct_state,
    prepare_ancilla_one,
    run_circuit,
    simulate_cnot,
    simulate_one_qubit,
    trials_needed,
)
from measureonly.qcore import QuantumState, apply_unitary, fidelity_up_to_phase, tensor, zero_state

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
        state = tensor(qcore.epr_state((0, 1)), QuantumState.pure(v, (2,)))
        m, post = bell_measure(state, (0, 1), rng)
        assert m == 0
        assert post.labels == (2,)
        assert abs(np.vdot(post.data, v)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_pair_is_uniform(self):
        # qubits 0 and 1 of the EPR pairs (0, 2) and (1, 3) are maximally
        # mixed: the pairs purify them
        counts = np.zeros(4)
        n_runs = 2000
        state = tensor(qcore.epr_state((0, 2)), qcore.epr_state((1, 3)))
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
            bell_measure(qcore.epr_state((0, 1)), (0, 0), rng)
        with pytest.raises(ValueError, match="unknown"):
            bell_measure(qcore.epr_state((0, 1)), (0, 9), rng)

    @pytest.mark.parametrize("variant", [(0,), (0, 1, 0), (2, 0), (0, -1)])
    def test_rejects_a_variant_that_is_not_a_pair_of_bits(self, variant):
        with pytest.raises(ValueError, match="pair of bits"):
            bell_measure(qcore.epr_state((0, 1)), (0, 1), np.random.default_rng(4), variant=variant)


def dense_bell_reference(state, pair, rng, variant):
    """The Bell step the slow way: embedded (I +/- XX)/2 and (I +/- ZZ)/2, then factor_out."""
    eye = np.eye(4, dtype=complex)
    bits = []
    for v, p in zip(variant, (X, Z)):
        p0 = qcore.embed((eye + (-1) ** v * np.kron(p, p)) / 2, pair, state.labels)
        slots = (qcore.Projector(p0, state.labels), qcore.Projector(np.eye(state.dim) - p0, state.labels))
        bit, state, _ = qcore.measure(state, slots, rng, check=False)
        bits.append(bit)
    a, b = bits
    bell = np.kron(I2, PAULIS[BIT_DECODE[(a ^ variant[0], b ^ variant[1])]]) @ EPR
    return BIT_DECODE[(a, b)], qcore.factor_out(state, pair, bell), (a, b)


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
            state = qcore.permute_to(tensor(state, rest) if rest else state, tuple(range(n)))
        rng_kernel, rng_dense = np.random.default_rng(seed), np.random.default_rng(seed)
        m, post, bits = _bell_measure_bits(state, pair, rng_kernel, variant)
        m_ref, post_ref, bits_ref = dense_bell_reference(state, pair, rng_dense, variant)
        assert (m, bits) == (m_ref, bits_ref)
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


class TestTeleportStep:
    """The loop's in-place Bell steps against the merged register they replace."""

    @staticmethod
    def merged_reference(state, positions, ancilla, rng):
        # tensor the ancilla in, Bell-measure each pair, splice the free half back
        k = len(positions)
        anc = QuantumState.pure(ancilla, [f"a{i}" for i in range(k)] + [f"f{i}" for i in range(k)])
        merged = tensor(state, anc)
        outcomes, bits = (), ()
        for i, p in enumerate(positions):
            m, merged, b = _bell_measure_bits(merged, (state.labels[p], f"a{i}"), rng)
            outcomes, bits = outcomes + (m,), bits + b
        merged = qcore.relabel(merged, {f"f{i}": state.labels[p] for i, p in enumerate(positions)})
        return outcomes, qcore.permute_to(merged, state.labels), bits

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        extra=st.integers(0, 5),
        order=st.randoms(use_true_random=False),
        kind=st.sampled_from(["haar", "cnot", "pauli"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_merged_register(self, k, extra, order, kind, seed):
        n = min(k + extra, 8 - 2 * k)
        gen = np.random.default_rng(seed)
        positions = list(range(n))
        order.shuffle(positions)
        positions = tuple(positions[:k])
        indices = tuple(int(j) for j in gen.integers(4, size=k))
        if kind == "pauli" and k == 2:
            # a phased Pauli pair, the frame left after a failed controlled-NOT
            # trial: two one-qubit ancillas, the control's measured first
            halves = [random_phased_pauli(gen) for _ in range(2)]
            ancilla = pair_ancilla(np.kron(*halves), indices)
            step = protocol._pair_block
            maps = tuple(protocol._bell_maps(pair_ancilla(u, (j,))) for u, j in zip(halves, indices))
        else:
            if kind == "haar":
                u = haar_unitary(gen, 2**k)
            else:
                u = CNOT if k == 2 else random_phased_pauli(gen)
            ancilla = pair_ancilla(u, indices)
            step, maps = protocol._bell_block, protocol._bell_maps(ancilla)
        state = QuantumState.pure(haar_state(gen, n), tuple(range(n)))
        axes = positions + tuple(p for p in range(n) if p not in positions)
        rng_step, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        code, block, bits = step(protocol._to_front(state.data, axes, k), maps, rng_step)
        data = protocol._from_front(block, axes)
        outcomes_ref, post_ref, bits_ref = self.merged_reference(state, positions, ancilla, rng_ref)
        assert (code, bits) == (protocol._CODE[bits_ref], bits_ref)
        assert tuple(BIT_DECODE[bits[i:i + 2]] for i in range(0, 2 * k, 2)) == outcomes_ref
        assert fidelity_up_to_phase(QuantumState.pure(data, state.labels), post_ref) >= 1 - 1e-12
        assert rng_step.random() == rng_ref.random()


class TestBellOutcomeLaw:
    """The exact law of every Bell step: whatever the data, each pair's outcome has weight 1/4
    and each joint outcome of a two-qubit step 1/16, in the weights the draws receive.  Three
    steps run in a row from one frame, so each later step also sees the block the last one left."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "pauli", "cnot", "pair"]),
        n=st.integers(2, 4),
        mode=st.sampled_from(["measured", "direct"]),
        failures=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_weight_is_exact(self, kind, n, mode, failures, seed):
        gen = np.random.default_rng(seed)
        if kind in ("haar", "pauli"):
            u = haar_unitary(gen) if kind == "haar" else random_phased_pauli(gen)
            frame = protocol._one_qubit_frame((u + 0.0).tobytes())
        else:
            frame = protocol._two_qubit_frame(None)
            # failed trials (measured != prepared) from the root reach random pair frames
            for prepared, offset in failures if kind == "pair" else ():
                frame = frame.after(prepared, (prepared + offset) % 16)
            assert bool(frame.halves) == (kind == "pair")
        block = haar_state(gen, n).reshape(2**frame.k, -1)
        step = protocol._pair_block if frame.halves else protocol._bell_block
        draw, seen = protocol._draw_bell, []

        def recording_draw(w, rng, variant=(0, 0)):
            seen.append(list(w))
            return draw(w, rng, variant)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_draw_bell", recording_draw)
            for _ in range(3):
                _, block, _ = step(block, frame.prepare(mode, gen)[1], gen)
        assert len(seen) == 3 * frame.k
        for i, w in enumerate(seen):
            np.testing.assert_allclose(w, [1 / 4 if i % frame.k == 0 else 1 / 16] * 4, rtol=0, atol=1e-12)


class TestBranchTables:
    """Replayed measured preparation against a fresh sequence of measurements."""

    @staticmethod
    def replay_matches_fresh(table, instruments, labels, seeds):
        for seed in seeds:
            rng_table, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            bits, ancilla = table.replay(rng_table)
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
        table = protocol._one_qubit_frame(np.ascontiguousarray(u).tobytes()).plan()
        labels = protocol._PREP1
        instruments = [parity_slots(solve_two_qubit_parity_form(i, u, targets=labels)) for i in (1, 3)]
        self.replay_matches_fresh(table, instruments, labels, range(40))

    def test_cnot_set(self):
        labels = protocol._PREP2
        instruments = [m.slots() for m in cnot_measurement_set(labels=labels)]
        self.replay_matches_fresh(protocol._cnot_prep_table(), instruments, labels, range(80))

    def test_fresh_custom_gates_keep_the_cache_bounded(self):
        cfg = ProtocolConfig(max_trials=1, prep_mode="measured")
        rng = np.random.default_rng(30)
        for _ in range(2000):
            simulate_one_qubit(GateSpec.custom(haar_unitary(rng)), zero_state((0,)), 0, cfg, rng)
        assert protocol._one_qubit_frame.cache_info().currsize <= 512


class TestPendingGateClosure:
    def test_hadamard_closes_after_one_failure(self):
        for j in range(4):
            for m in range(4):
                if m == j:
                    continue
                nxt = PendingGate(HADAMARD).advanced(j, m)
                assert nearest_phased_pauli(nxt.target) is not None, (j, m)
                oracle = HADAMARD @ PAULIS[m] @ PAULIS[j] @ HADAMARD.conj().T
                np.testing.assert_allclose(nxt.target, oracle, atol=1e-12)

    def test_t_gate_closes_after_two_failures(self):
        for j in range(4):
            for m in range(4):
                if m == j:
                    continue
                first = PendingGate(T_GATE).advanced(j, m)
                product_index = {frozenset((0, 1)): 1, frozenset((0, 2)): 2, frozenset((0, 3)): 3,
                                 frozenset((1, 2)): 3, frozenset((1, 3)): 2, frozenset((2, 3)): 1}
                axis = product_index[frozenset((j, m))]
                # z-axis residuals are already Paulis, x/y ones are not
                assert (nearest_phased_pauli(first.target) is not None) == (axis == 3)
                for j2 in range(4):
                    for m2 in range(4):
                        if m2 == j2:
                            continue
                        second = first.advanced(j2, m2)
                        assert nearest_phased_pauli(second.target) is not None, (j, m, j2, m2)

    def test_history_is_recorded(self):
        p = PendingGate(HADAMARD).advanced(0, 1).advanced(2, 3)
        assert p.history == ((0, 1), (2, 3))

    def test_cnot_closes_after_one_failure(self):
        root = protocol._two_qubit_frame(None)
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
        frame = protocol._two_qubit_frame(None).after(4 * 1 + 2, 4 * 3 + 0)
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
            root = protocol._two_qubit_frame(None)
            oracle = CNOT
            for prepared, measured in steps:
                (j, k), (m, n) = divmod(prepared, 4), divmod(measured, 4)
                oracle = oracle @ np.kron(PAULIS[m] @ PAULIS[j], PAULIS[n] @ PAULIS[k]) @ oracle.conj().T
            frame = _frame_walk(root, steps)
            np.testing.assert_allclose(frame.target, oracle, atol=1e-12)
            # the key is the owed gate, with its whole phase on the first half
            a, b = frame.key
            assert b.phase == 1
            assert np.array_equal(frame.target, np.kron(a.matrix(), b.matrix()))
        else:
            u = haar_unitary(np.random.default_rng(seed)) if gate == "haar" else GateSpec.named(gate).matrix
            root = protocol._one_qubit_frame(np.ascontiguousarray(u).tobytes())
            pending = PendingGate(u)
            for p, m in steps:
                pending = pending.advanced(p, m)
            frame = _frame_walk(root, steps)
            assert np.array_equal(frame.target, pending.target)
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
        # GateSpec.named("Y") holds -0.0 real parts, the +Y phased Pauli +0.0
        root = protocol._one_qubit_frame(GateSpec.named("Y").matrix.tobytes())
        assert root.after(0, 2) is root

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


class TestClosedFormFrames:
    """A fresh one-qubit frame's slots and successors, built without form objects or an SVD."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        raw=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=6),
    )
    def test_slots_are_the_public_parity_slots(self, seed, raw):
        # a Haar root, or the frame 1-6 failed trials leave
        root = protocol._one_qubit_frame(GateSpec.custom(haar_unitary(np.random.default_rng(seed))).matrix.tobytes())
        frame = _frame_walk(root, [(p, (p + 1 + d) % 4) for p, d in raw])
        instruments = frame.plan().instruments
        assert len(instruments) == 2
        for slots, i in zip(instruments, (1, 3)):
            public = parity_slots(solve_two_qubit_parity_form(i, frame.target, targets=protocol._PREP1))
            assert len(slots) == 2
            assert all(np.array_equal(mine, theirs.matrix) for mine, theirs in zip(slots, public))

    @pytest.mark.parametrize("target", [1.1 * I2, np.full((2, 2), np.nan)], ids=["scaled", "nan"])
    def test_plan_rejects_a_target_that_is_not_unitary(self, target):
        with pytest.raises(ValueError, match="not unitary"):
            protocol._Frame(1, None, target).plan()

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
        while steps < 10**4 and not (until_pauli and frame.pauli is not None):
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
        frame, steps, applied = self.walk(protocol._one_qubit_frame(u.tobytes()), rng, until_pauli=False)
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
            frame, steps, applied = self.walk(protocol._one_qubit_frame(u.tobytes()), rng, until_pauli=True)
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
        "name, matrix, arity",
        [("CNOT", np.eye(4)[[0, 2, 1, 3]], 2), ("CNOT", I2, 1), ("H", X, 1), ("T", T_GATE.conj(), 1)],
        ids=["swap-as-CNOT", "one-qubit-CNOT", "X-as-H", "T-dagger-as-T"],
    )
    def test_catalogue_names_need_their_own_matrix(self, name, matrix, arity):
        with pytest.raises(ValueError, match=f"named {name!r} must be that gate's"):
            GateSpec(name, matrix, arity)

    def test_other_names_take_any_unitary(self):
        assert GateSpec("swap", np.eye(4)[[0, 2, 1, 3]], 2).arity == 2
        assert np.array_equal(GateSpec("H", HADAMARD, 1).matrix, HADAMARD)


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
            qcore._draw2(p0, p1, rng2)
        return
    assert qcore._draw2(p0, p1, rng2) == qcore._draw((p0, p1), rng)
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
        assert fidelity_up_to_phase(final, qcore.epr_state((0, 1))) > 1 - 1e-9

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

    def test_register_size_limits(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="between 1 and 8"):
            run_circuit([], 9, self.CFG, rng)

    @pytest.mark.parametrize("n", [2.5, True, np.int64(2)], ids=["float", "bool", "numpy"])
    def test_register_size_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="between 1 and 8"):
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
