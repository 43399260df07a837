"""Measurement catalogue: combined forms, basis equivalences, the CNOT set.

Oracles are built in-test from first principles: explicit Bell vectors,
brute-force projector sums, dense kron products and grid searches.
"""
import numpy as np
import pytest

from measureonly.measure import (
    GAMMA,
    MEAS_W,
    MEAS_X,
    MEAS_Y,
    MEAS_Z,
    BalancedBooleanFn,
    BinaryMeasurement,
    CompleteMeasurement,
    PseudoseparateForm,
    SingleQubitBinary,
    cnot_measurement_set,
    compose_binaries,
    expand_f_separate,
    is_pseudoseparate_witness,
    match_projector_sets,
    parity_slots,
    solve_two_qubit_parity_form,
    two_qubit_u_basis_measurement,
    u_basis_binary_pair,
    u_basis_measurement,
)
from measureonly.qcore import Projector, embed, measure, zero_state

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [I2, X, Y, Z]
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

EPR = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_vec(i):
    return np.kron(I2, PAULIS[i]) @ EPR


def haar_unitary(rng, dim=2):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q @ np.diag(d / np.abs(d))


def random_bloch(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


class TestBalancedBooleanFn:
    def test_parity(self):
        f = BalancedBooleanFn.parity(2)
        assert [f((a, b)) for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 0]

    def test_parity_of_one_bit_is_identity(self):
        f = BalancedBooleanFn.parity(1)
        assert (f((0,)), f((1,))) == (0, 1)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="balanced"):
            BalancedBooleanFn(2, (0, 0, 0, 1))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            BalancedBooleanFn(2, (0, 1))


class TestSingleQubitBinary:
    def test_catalogue_matrices(self):
        np.testing.assert_allclose(MEAS_X.p0, (I2 + X) / 2, atol=1e-15)
        np.testing.assert_allclose(MEAS_Y.p0, (I2 + Y) / 2, atol=1e-15)
        np.testing.assert_allclose(MEAS_Z.p0, np.diag([1, 0]), atol=1e-15)
        w_expected = np.array(
            [[1, np.exp(-1j * np.pi / 4)], [np.exp(1j * np.pi / 4), 1]], dtype=complex
        ) / 2
        np.testing.assert_allclose(MEAS_W.p0, w_expected, atol=1e-15)

    def test_projector_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = SingleQubitBinary(random_bloch(rng))
            for p in (m.p0, m.p1):
                np.testing.assert_allclose(p @ p, p, atol=1e-12)
                np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            assert np.trace(m.p0).real == pytest.approx(1.0, abs=1e-12)

    def test_swapped_negates_axis(self):
        np.testing.assert_allclose(MEAS_Z.swapped().p0, MEAS_Z.p1, atol=1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="norm"):
            SingleQubitBinary((1.0, 1.0, 0.0))


class TestExpandFSeparate:
    def test_parity_of_two_x_measurements(self):
        form = PseudoseparateForm(BalancedBooleanFn.parity(2), (MEAS_X, MEAS_X), (0, 1))
        m = expand_f_separate(form)
        np.testing.assert_allclose(m.p0.matrix, (np.eye(4) + np.kron(X, X)) / 2, atol=1e-12)

    def test_parity_with_swapped_y_part(self):
        form = PseudoseparateForm(
            BalancedBooleanFn.parity(2), (MEAS_Y, MEAS_Y.swapped()), (0, 1)
        )
        m = expand_f_separate(form)
        np.testing.assert_allclose(m.p0.matrix, (np.eye(4) - np.kron(Y, Y)) / 2, atol=1e-12)

    def test_single_bit_identity_function(self):
        form = PseudoseparateForm(BalancedBooleanFn.parity(1), (MEAS_Z,), (0,))
        m = expand_f_separate(form)
        np.testing.assert_allclose(m.p0.matrix, np.diag([1, 0]), atol=1e-15)
        np.testing.assert_allclose(m.p1.matrix, np.diag([0, 1]), atol=1e-15)

    def test_random_forms_satisfy_binary_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            ones = rng.permutation(2**n)[: 2 ** (n - 1)]
            table = tuple(1 if i in ones else 0 for i in range(2**n))
            form = PseudoseparateForm(
                BalancedBooleanFn(n, table),
                tuple(SingleQubitBinary(random_bloch(rng)) for _ in range(n)),
                tuple(range(n)),
            )
            m = expand_f_separate(form)  # BinaryMeasurement validates on build
            assert np.trace(m.p0.matrix).real == pytest.approx(2 ** (n - 1), abs=1e-10)
            assert m.pseudoseparate is form


class TestSolveTwoQubitParityForm:
    def test_z_axis_with_identity_gate(self):
        form = solve_two_qubit_parity_form(3, I2)
        np.testing.assert_allclose(form.parts[0].p0, MEAS_Z.p0, atol=1e-12)
        np.testing.assert_allclose(form.parts[1].p0, MEAS_Z.p0, atol=1e-12)

    def test_y_axis_with_identity_gate_is_swapped(self):
        form = solve_two_qubit_parity_form(2, I2)
        np.testing.assert_allclose(form.parts[0].p0, MEAS_Y.p0, atol=1e-12)
        np.testing.assert_allclose(form.parts[1].p0, MEAS_Y.p1, atol=1e-12)

    def test_x_axis_with_hadamard(self):
        form = solve_two_qubit_parity_form(1, HADAMARD)
        np.testing.assert_allclose(form.parts[0].p0, MEAS_X.p0, atol=1e-12)
        np.testing.assert_allclose(form.parts[1].p0, MEAS_Z.p0, atol=1e-12)

    def test_expansion_hits_the_pair_sum(self):
        rng = np.random.default_rng(2)
        for i in (1, 2, 3):
            u = haar_unitary(rng)
            m = expand_f_separate(solve_two_qubit_parity_form(i, u))
            expected = (np.eye(4) + GAMMA[i] * np.kron(PAULIS[i], u @ PAULIS[i] @ u.conj().T)) / 2
            np.testing.assert_allclose(m.p0.matrix, expected, atol=1e-12)

    def test_rejects_axis_zero(self):
        with pytest.raises(ValueError, match="axis"):
            solve_two_qubit_parity_form(0, I2)

    def test_two_stated_sign_solutions(self):
        # exact check: (alpha_i, beta_i) = (1, gamma_i) and (gamma_i, 1) both
        # solve the product equation; they coincide exactly when gamma_i = 1
        for i in (1, 2, 3):
            g = GAMMA[i]
            for s, t in ((1, g), (g, 1)):
                np.testing.assert_allclose(
                    np.kron(s * PAULIS[i], t * PAULIS[i]),
                    g * np.kron(PAULIS[i], PAULIS[i]),
                    atol=0,
                )
            assert ((1, g) == (g, 1)) == (g == 1)

    def test_solution_set_by_grid_search(self):
        # coarse spherical grid: every near-solution pair of Bloch vectors
        # clusters around (e_i, g e_i) or its global negation, and both
        # clusters are populated
        n_pts = 160
        k = np.arange(n_pts)
        phi = np.arccos(1 - 2 * (k + 0.5) / n_pts)
        theta = np.pi * (1 + 5**0.5) * k
        pts = np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
        )
        outer = np.einsum("ma,nb->mnab", pts, pts)
        for i in (1, 2, 3):
            g = GAMMA[i]
            axis = np.zeros(3)
            axis[i - 1] = 1.0
            target = g * np.outer(axis, axis)
            dev = np.abs(outer - target).max(axis=(2, 3))
            hits = np.argwhere(dev < 0.25)
            assert len(hits) > 0
            solutions = [(axis, g * axis), (-axis, -g * axis)]
            populated = [0, 0]
            for a_idx, b_idx in hits:
                a, b = pts[a_idx], pts[b_idx]
                dists = [
                    max(np.linalg.norm(a - sa), np.linalg.norm(b - sb)) for sa, sb in solutions
                ]
                assert min(dists) < 0.5, (i, a, b)
                populated[int(np.argmin(dists))] += 1
            assert all(c > 0 for c in populated)


class TestParitySlots:
    def test_direct_slots_equal_the_expansion(self):
        rng = np.random.default_rng(17)
        gates = [haar_unitary(rng) for _ in range(8)] + [HADAMARD, T_GATE] + PAULIS
        for u in gates:
            for axis in (1, 3):
                form = solve_two_qubit_parity_form(axis, u, targets=("a", "b"))
                direct = parity_slots(form)
                for got, want in zip(direct, expand_f_separate(form).slots()):
                    assert got.labels == want.labels == ("a", "b")
                    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_rejects_non_parity_forms(self):
        form = PseudoseparateForm(BalancedBooleanFn.parity(3), (MEAS_X,) * 3, (0, 1, 2))
        with pytest.raises(ValueError, match="parity"):
            parity_slots(form)


class TestUBasisMeasurement:
    def test_identity_gives_bell_basis(self):
        cm = u_basis_measurement(I2)
        for j in range(4):
            v = bell_vec(j)
            np.testing.assert_allclose(cm.projectors[j].matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_hadamard_basis_is_orthonormal(self):
        cm = u_basis_measurement(HADAMARD)
        vecs = [np.kron(I2, HADAMARD @ PAULIS[j]) @ EPR for j in range(4)]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
        for j in range(4):
            np.testing.assert_allclose(
                cm.projectors[j].matrix, np.outer(vecs[j], vecs[j].conj()), atol=1e-12
            )

    def test_completeness(self):
        cm = u_basis_measurement(T_GATE)
        np.testing.assert_allclose(sum(p.matrix for p in cm.projectors), np.eye(4), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            u_basis_measurement(np.array([[1, 0], [0, 0.5]]))


class TestUBasisBinaryPair:
    def test_identity_pair_is_the_bell_display(self):
        mx, mz = u_basis_binary_pair(I2)
        np.testing.assert_allclose(mx.p0.matrix, (np.eye(4) + np.kron(X, X)) / 2, atol=1e-12)
        np.testing.assert_allclose(mz.p0.matrix, (np.eye(4) + np.kron(Z, Z)) / 2, atol=1e-12)

    def test_t_gate_second_parts_are_w_and_z(self):
        mx, mz = u_basis_binary_pair(T_GATE)
        np.testing.assert_allclose(mx.pseudoseparate.parts[1].p0, MEAS_W.p0, atol=1e-12)
        np.testing.assert_allclose(mz.pseudoseparate.parts[1].p0, MEAS_Z.p0, atol=1e-12)

    def test_pauli_gate_pairs_are_negated_bell_binaries(self):
        # x gate: plain x binary, swapped z binary; y gate: both swapped;
        # z gate: swapped x binary, plain z binary
        expected_swaps = {1: (False, True), 2: (True, True), 3: (True, False)}
        for i, (swap_x, swap_z) in expected_swaps.items():
            mx, mz = u_basis_binary_pair(PAULIS[i])
            want_x = MEAS_X.swapped() if swap_x else MEAS_X
            want_z = MEAS_Z.swapped() if swap_z else MEAS_Z
            np.testing.assert_allclose(mx.pseudoseparate.parts[1].p0, want_x.p0, atol=1e-12)
            np.testing.assert_allclose(mz.pseudoseparate.parts[1].p0, want_z.p0, atol=1e-12)

    def test_joint_projectors_match_basis_for_random_gates(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = haar_unitary(rng)
            joint = compose_binaries(u_basis_binary_pair(u))
            _, dev = match_projector_sets(joint.projectors, u_basis_measurement(u).projectors)
            assert dev < 1e-10

    def test_joint_outcome_order(self):
        # bits (x, z) decode to basis index via {00:0, 01:1, 10:3, 11:2}
        joint = compose_binaries(u_basis_binary_pair(I2))
        order = [0, 1, 3, 2]
        for bits_index, j in enumerate(order):
            v = bell_vec(j)
            np.testing.assert_allclose(
                joint.projectors[bits_index].matrix, np.outer(v, v.conj()), atol=1e-12
            )


class TestComposeBinaries:
    def test_partition_recovers_the_nondegenerate_measurement(self):
        # group the four Bell projectors two ways, compose, get them back
        projs = [np.outer(bell_vec(i), bell_vec(i).conj()) for i in range(4)]
        first = BinaryMeasurement(
            Projector(projs[0] + projs[1], (0, 1)), Projector(projs[2] + projs[3], (0, 1))
        )
        second = BinaryMeasurement(
            Projector(projs[0] + projs[2], (0, 1)), Projector(projs[1] + projs[3], (0, 1))
        )
        joint = compose_binaries([first, second])
        for bits_index, expected in enumerate([projs[0], projs[1], projs[2], projs[3]]):
            np.testing.assert_allclose(joint.projectors[bits_index].matrix, expected, atol=1e-12)

    def test_single_binary_composes_to_itself(self):
        m = expand_f_separate(
            PseudoseparateForm(BalancedBooleanFn.parity(2), (MEAS_X, MEAS_X), (0, 1))
        )
        joint = compose_binaries([m])
        assert len(joint) == 2
        np.testing.assert_allclose(joint.projectors[0].matrix, m.p0.matrix, atol=1e-12)

    def test_non_commuting_pair_is_reported(self):
        mx = expand_f_separate(
            PseudoseparateForm(BalancedBooleanFn.parity(1), (MEAS_X,), (0,))
        )
        mz = expand_f_separate(
            PseudoseparateForm(BalancedBooleanFn.parity(1), (MEAS_Z,), (0,))
        )
        with pytest.raises(ValueError, match=r"0 and 1.*commutator norm"):
            compose_binaries([mx, mz])


class TestCnotMeasurementSet:
    def test_first_is_three_qubit_x_parity(self):
        m1, _, _, _ = cnot_measurement_set()
        xxx = (np.eye(8) + np.kron(np.kron(X, X), X)) / 2
        np.testing.assert_allclose(
            embed(m1.p0.matrix, m1.labels, (1, 2, 3, 4)),
            embed(xxx, (1, 3, 4), (1, 2, 3, 4)),
            atol=1e-12,
        )

    def test_fourth_is_even_z_parity(self):
        _, _, _, m4 = cnot_measurement_set()
        # brute force: sum of the even-parity computational projectors
        expected = np.zeros((8, 8), dtype=complex)
        for bits in range(8):
            if bin(bits).count("1") % 2 == 0:
                expected[bits, bits] = 1.0
        np.testing.assert_allclose(m4.p0.matrix, expected, atol=1e-12)
        assert m4.labels == (2, 3, 4)

    def test_middle_two_are_bell_binaries(self):
        _, m2, m3, _ = cnot_measurement_set()
        np.testing.assert_allclose(m2.p0.matrix, (np.eye(4) + np.kron(Z, Z)) / 2, atol=1e-12)
        assert m2.labels == (1, 3)
        np.testing.assert_allclose(m3.p0.matrix, (np.eye(4) + np.kron(X, X)) / 2, atol=1e-12)
        assert m3.labels == (2, 4)

    def test_slots_equal_brute_force_projector_sums(self):
        # rebuild each binary by summing the 16 rank-one basis projectors
        basis = two_qubit_u_basis_measurement(CNOT, (1, 2, 3, 4))
        p = [q.matrix for q in basis.projectors]  # index 4j + k
        groups = {
            0: sum(p[4 * j + k] for j in (0, 1) for k in range(4)),
            1: sum(p[4 * j + k] for j in (0, 3) for k in range(4)),
            2: sum(p[4 * j + k] for j in range(4) for k in (0, 1)),
            3: sum(p[4 * j + k] for j in range(4) for k in (0, 3)),
        }
        for idx, m in enumerate(cnot_measurement_set()):
            embedded = embed(m.p0.matrix, m.labels, (1, 2, 3, 4))
            np.testing.assert_allclose(embedded, groups[idx], atol=1e-12)

    def test_pairwise_commute_and_compose_to_basis(self):
        binaries = cnot_measurement_set()
        embedded = [embed(m.p0.matrix, m.labels, (1, 2, 3, 4)) for m in binaries]
        for a in range(4):
            for b in range(a + 1, 4):
                comm = embedded[a] @ embedded[b] - embedded[b] @ embedded[a]
                assert np.abs(comm).max() < 1e-10
        joint = compose_binaries(binaries, system=(1, 2, 3, 4))
        basis = two_qubit_u_basis_measurement(CNOT, (1, 2, 3, 4))
        _, dev = match_projector_sets(joint.projectors, basis.projectors)
        assert dev < 1e-10

    def test_joint_bit_decode(self):
        # bits (b1, b2, b3, b4) give j from the first two and k from the last
        # two through {00:0, 01:1, 10:3, 11:2}
        decode = {(0, 0): 0, (0, 1): 1, (1, 0): 3, (1, 1): 2}
        joint = compose_binaries(cnot_measurement_set(), system=(1, 2, 3, 4))
        basis = two_qubit_u_basis_measurement(CNOT, (1, 2, 3, 4))
        for bits_index in range(16):
            b = [(bits_index >> shift) & 1 for shift in (3, 2, 1, 0)]
            j = decode[(b[0], b[1])]
            k = decode[(b[2], b[3])]
            np.testing.assert_allclose(
                joint.projectors[bits_index].matrix,
                basis.projectors[4 * j + k].matrix,
                atol=1e-10,
            )


class TestPseudoseparateWitness:
    def test_true_for_own_form(self):
        form = solve_two_qubit_parity_form(1, I2)
        m = expand_f_separate(form)
        assert is_pseudoseparate_witness(m, form)
        assert is_pseudoseparate_witness(m, m.pseudoseparate)

    def test_false_for_wrong_parts(self):
        m = expand_f_separate(solve_two_qubit_parity_form(1, I2))
        z_form = PseudoseparateForm(BalancedBooleanFn.parity(2), (MEAS_Z, MEAS_Z), (0, 1))
        assert not is_pseudoseparate_witness(m, z_form)
        # the mismatch is macroscopic, not a tolerance accident
        z_expanded = expand_f_separate(z_form)
        assert np.abs(z_expanded.p0.matrix - m.p0.matrix).max() >= 0.5

    def test_accepts_swapped_slot_order(self):
        form = solve_two_qubit_parity_form(3, I2)
        m = expand_f_separate(form)
        swapped = BinaryMeasurement(m.p1, m.p0)
        assert is_pseudoseparate_witness(swapped, form)


KET0_PROJ = Projector(np.diag([1.0, 0.0]), (0,))
INSTRUMENT_CALLERS = {
    "measure": lambda p0, p1: measure(zero_state((0,)), (p0, p1), np.random.default_rng(0)),
    "BinaryMeasurement": BinaryMeasurement,
    "CompleteMeasurement": lambda p0, p1: CompleteMeasurement((p0, p1)),
}


@pytest.mark.parametrize("caller", sorted(INSTRUMENT_CALLERS))
@pytest.mark.parametrize(
    "second", [KET0_PROJ, Projector(np.zeros((2, 2)), (0,))], ids=["repeated", "zero"]
)
def test_every_instrument_check_rejects_an_incomplete_pair(caller, second):
    with pytest.raises(ValueError, match="incomplete instrument"):
        INSTRUMENT_CALLERS[caller](KET0_PROJ, second)


@pytest.mark.parametrize("caller", sorted(INSTRUMENT_CALLERS))
def test_every_instrument_check_rejects_a_non_projector(caller):
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        INSTRUMENT_CALLERS[caller](Projector(np.diag([0.5, 0.0]), (0,)), Projector(np.diag([0.5, 1.0]), (0,)))


def test_binary_measurements_need_equal_ranks():
    rank_one = Projector(np.diag([1.0, 0, 0, 0]), (0, 1))
    with pytest.raises(ValueError, match="trace"):
        BinaryMeasurement(rank_one, Projector(np.diag([0, 1.0, 1, 1]), (0, 1)))
