"""Measurement catalogue: combined forms, basis equivalences, the CNOT set.

Oracles are built in-test from first principles: explicit Bell vectors,
brute-force projector sums, dense kron products and grid searches.  The
stacked kernels (the instrument check, the expansion, composition and
matching) are also checked bit for bit against per-matrix loop references.
"""
import tracemalloc
from itertools import combinations
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measureonly.measure as msr
import measureonly.qcore as qcore
from measureonly.identities import identity_checks
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
from measureonly.qcore import STRUCT_TOL, Projector, embed, measure, zero_state

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

    @pytest.mark.parametrize("bits", [(0, 2), (0, -1), (0.7, 0), (2, 0)])
    def test_rejects_entries_that_are_not_bits(self, bits):
        # (0, 2) and (0, -1) used to index the table at 2 and -1, (0.7, 0) truncated to 0, (2, 0) ran past the end
        with pytest.raises(ValueError, match="^outcome bit must be 0 or 1$"):
            BalancedBooleanFn.parity(2)(bits)

    def test_accepts_bits_of_any_numeric_type(self):
        f = BalancedBooleanFn.parity(3)
        assert [f((True, 0, 1)), f((1.0, np.int64(1), 0)), f((0, 0, np.uint8(1)))] == [0, 0, 1]


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

    @pytest.mark.parametrize("bloch", [(1.0, 0.0), (0, 0, 1, 0)], ids=["two", "four"])
    def test_rejects_an_axis_without_three_components(self, bloch):
        # both are unit vectors, so only the length check refuses them, before numpy's matmul would
        with pytest.raises(ValueError, match=f"3 components, got {len(bloch)}"):
            SingleQubitBinary(bloch)


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


    def test_rejects_a_matrix_that_is_not_unitary(self):
        with pytest.raises(ValueError, match="^gate matrix is not unitary$"):
            u_basis_binary_pair(np.diag([2**0.5, 0]))


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


def test_basis_measurements_reject_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        u_basis_measurement(HADAMARD, (0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        two_qubit_u_basis_measurement(CNOT, (1, 2, 3, 3))


# Loop references for the stacked kernels: one matrix product at a time, in
# the order the checks are specified.


def loop_require_instrument(mats):
    for i, m in enumerate(mats):
        if not np.abs(m - m.conj().T).max() <= STRUCT_TOL:
            raise ValueError(f"projector {i} is not Hermitian")
        if not np.abs(m @ m - m).max() <= STRUCT_TOL:
            raise ValueError(f"projector {i} is not idempotent")
    if not np.abs(sum(mats) - np.eye(len(mats[0]))).max() <= STRUCT_TOL:
        raise ValueError("incomplete instrument: projectors do not sum to the identity")
    for i, j in combinations(range(len(mats)), 2):
        overlap = np.abs(mats[i] @ mats[j]).max()
        if not overlap <= STRUCT_TOL:
            raise ValueError(
                f"projectors {i} and {j} are not mutually annihilating (max overlap {overlap:.3e})"
            )


def loop_expand_f_separate(form):
    dim = 2**form.f.arity
    sums = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
    for bits in cartesian((0, 1), repeat=form.f.arity):
        term = np.array([[1.0 + 0j]])
        for part, bit in zip(form.parts, bits):
            term = np.kron(term, part.projector(bit))
        sums[form.f(bits)] += term
    return sums


def loop_compose_binaries(ms, system):
    embedded = [(embed(m.p0.matrix, m.labels, system), embed(m.p1.matrix, m.labels, system)) for m in ms]
    for i, j in combinations(range(len(ms)), 2):
        a, b = embedded[i][0], embedded[j][0]
        norm = np.abs(a @ b - b @ a).max()
        if not norm <= STRUCT_TOL:
            raise ValueError(f"binary measurements {i} and {j} do not commute (commutator norm {norm:.3e})")
    joints = []
    for bits in cartesian((0, 1), repeat=len(ms)):
        joint = np.eye(2 ** len(system), dtype=complex)
        for (slot0, slot1), bit in zip(embedded, bits):
            joint = joint @ (slot1 if bit else slot0)
        joints.append(joint)
    return joints


def loop_match_projector_sets(mats_a, mats_b):
    used, mapping, worst = set(), [], 0.0
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


CORRUPTIONS = ["none", "not Hermitian", "not idempotent", "incomplete", "overlapping pair"]


def corrupted_instrument(rng, m, d, corruption):
    """A random m-outcome instrument on d dimensions, with one of CORRUPTIONS applied.

    Outcome i projects onto the columns of a random unitary assigned to it;
    with more outcomes than dimensions some projectors are zero.
    """
    u = haar_unitary(rng, d)
    owner = rng.permutation(np.arange(d) % m)
    mats = np.array([u[:, owner == i] @ u[:, owner == i].conj().T for i in range(m)])
    nonzero = np.flatnonzero(np.bincount(owner, minlength=m))
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    k = int(rng.integers(m))
    if corruption == "not Hermitian":
        mats[k] += 1e-3 * (noise - noise.conj().T)
    elif corruption == "not idempotent":
        mats[k] += 1e-3 * (noise + noise.conj().T)
    elif corruption == "incomplete":
        mats[rng.choice(nonzero)] = 0.0
    elif corruption == "overlapping pair":
        j = int(rng.choice(nonzero))
        mats[(j + 1 + int(rng.integers(m - 1))) % m] = mats[j]
    return mats


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def balanced_table(n, order):
    ones = order.sample(range(2**n), 2 ** (n - 1))
    return tuple(int(i in ones) for i in range(2**n))


class TestStackedKernelsMatchTheLoops:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), order=st.randoms(use_true_random=False), seed=st.integers(0, 2**32 - 1))
    def test_expansion_is_bit_for_bit_the_loop(self, n, order, seed):
        rng = np.random.default_rng(seed)
        catalogue = [MEAS_X, MEAS_Y, MEAS_Z, MEAS_W, MEAS_Y.swapped()]
        parts = tuple(
            catalogue[rng.integers(len(catalogue))] if rng.random() < 0.3 else SingleQubitBinary(random_bloch(rng))
            for _ in range(n)
        )
        form = PseudoseparateForm(BalancedBooleanFn(n, balanced_table(n, order)), parts, tuple(range(n)))
        m = expand_f_separate(form)
        for got, want in zip((m.p0.matrix, m.p1.matrix), loop_expand_f_separate(form)):
            assert np.array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(1, 4),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**32 - 1),
        explicit_system=st.booleans(),
    )
    def test_composition_is_bit_for_bit_the_loop(self, n, k, order, seed, explicit_system):
        # binaries on random ordered subsets whose parts share one axis per
        # qubit, so every pair commutes
        rng = np.random.default_rng(seed)
        axes = [SingleQubitBinary(random_bloch(rng)) for _ in range(n)]
        ms = []
        for _ in range(k):
            targets = tuple(order.sample(range(n), order.randint(1, min(3, n))))
            f = BalancedBooleanFn(len(targets), balanced_table(len(targets), order))
            ms.append(expand_f_separate(PseudoseparateForm(f, tuple(axes[q] for q in targets), targets)))
        system = tuple(order.sample(range(n), n)) if explicit_system else None
        joint = compose_binaries(ms, system)
        if system is None:  # every label the binaries touch, in order of first appearance
            seen = []
            for m in ms:
                seen += [q for q in m.labels if q not in seen]
            system = tuple(seen)
        assert joint.labels == system
        want = loop_compose_binaries(ms, system)
        assert len(joint) == len(want) == 2**k
        for got, expected in zip(joint.projectors, want):
            assert np.array_equal(got.matrix, expected)

    def test_non_commuting_sets_report_the_first_pair_as_the_loop_does(self):
        mz = expand_f_separate(PseudoseparateForm(BalancedBooleanFn.parity(1), (MEAS_Z,), (0,)))
        mx = expand_f_separate(PseudoseparateForm(BalancedBooleanFn.parity(1), (MEAS_X,), (0,)))
        for ms in ([mz, mz, mx], [mz, mx, mx], [mx, mz, mz, mx]):
            got = outcome(compose_binaries, ms, (0,))
            assert got == outcome(loop_compose_binaries, ms, (0,))
            assert got[0] is ValueError

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 8),
        d=st.sampled_from([1, 2, 4]),
        coarse=st.booleans(),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matching_is_the_greedy_loop(self, m, d, coarse, order, seed):
        # coarse entries from {-1, 0, 1} make equal deviations, and so ties, common
        rng = np.random.default_rng(seed)
        if coarse:
            a = rng.integers(-1, 2, size=(m, d, d)) + 0j
            b = rng.integers(-1, 2, size=(m, d, d)) + 0j
        else:
            a = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
            b = a[order.sample(range(m), m)] + 1e-3 * rng.normal(size=(m, d, d))
        for first, second in ((a, b), (a, a[order.sample(range(m), m)]), (a, a)):
            got = match_projector_sets(list(first), list(second))
            assert got == loop_match_projector_sets(list(first), list(second))

    def test_ties_go_to_the_lowest_index(self):
        family = [I2, I2, X, X]
        assert match_projector_sets(family, family) == ([0, 1, 2, 3], 0.0)
        assert match_projector_sets([X, I2], [I2, I2]) == ([0, 1], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 16]),
        d=st.sampled_from([2, 4, 8, 16]),
        corruption=st.sampled_from(CORRUPTIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_instrument_check_fails_first_where_the_loop_does(self, m, d, corruption, seed):
        mats = corrupted_instrument(np.random.default_rng(seed), m, d, corruption)
        want = outcome(loop_require_instrument, list(mats))
        assert outcome(qcore._require_instrument, mats) == want
        assert (want == ("returned", None)) == (corruption == "none")

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 16]),
        d=st.sampled_from([2, 4, 8]),
        corruptions=st.lists(st.sampled_from(["none"] * 4 + CORRUPTIONS), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stack_fails_at_its_first_failing_member_as_the_loop_does(self, m, d, corruptions, seed):
        # member by member, the first whose loop check raises names itself with the loop's message
        rng = np.random.default_rng(seed)
        stack = np.array([corrupted_instrument(rng, m, d, corruption) for corruption in corruptions])
        failures = [(k, got[1]) for k, got in enumerate(outcome(loop_require_instrument, list(mats)) for mats in stack)
                    if got[0] is ValueError]
        for mats, prefix in ((stack, ""), (stack[None], "0, ")):  # one leading axis, then two
            want = (ValueError, f"member {prefix}{failures[0][0]}: {failures[0][1]}") if failures else ("returned", None)
            assert outcome(qcore._require_instrument, mats) == want

    def test_pair_check_reports_the_first_overlapping_pair(self):
        # Two rank-one projectors tilted off orthogonal until their overlap
        # just exceeds STRUCT_TOL: in max-entry norm the overlap can run about
        # 10% above the idempotency and completeness deviations, so only the
        # pair check fails.  Two copies on the halves of four dimensions make
        # pairs (0, 2) and (1, 3) fail, and (0, 2) is reported.
        def tilted(q, tilt, eps):
            v = q + eps * tilt
            v = v / np.linalg.norm(v, axis=0)
            return [np.outer(c, c.conj()) for c in v.T]

        rng = np.random.default_rng(0)
        for _ in range(1000):
            q = haar_unitary(rng)
            tilt = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            p0, p1 = tilted(q, tilt, 1e-6)
            p0, p1 = tilted(q, tilt, 1e-6 * 1.04e-10 / np.abs(p0 @ p1).max())
            if str(outcome(loop_require_instrument, [p0, p1])[1]).startswith("projectors 0 and 1"):
                break
        else:
            pytest.fail("no tilt fails the pair check alone")
        zero = np.zeros((2, 2))
        top, bottom = (lambda p: np.block([[p, zero], [zero, zero]])), (lambda p: np.block([[zero, zero], [zero, p]]))
        mats = [top(p1), bottom(p0), top(p0), bottom(p1)]
        want = outcome(loop_require_instrument, mats)
        assert want[1].startswith("projectors 0 and 2 are not mutually annihilating")
        assert outcome(qcore._require_instrument, np.array(mats)) == want

    def test_per_projector_checks_run_in_order(self):
        z0, z1 = np.diag([1.0, 0.0]) + 0j, np.diag([0.0, 1.0]) + 0j
        skew = np.array([[0, 1], [0, 0]], dtype=complex)
        cases = {
            "projector 0 is not Hermitian": [z0 + skew, 0.5 * z1],
            "projector 0 is not idempotent": [0.5 * z0, z1 + skew],
            "projector 1 is not Hermitian": [z0, z1 + skew],
        }
        for message, mats in cases.items():
            assert outcome(qcore._require_instrument, np.array(mats)) == (ValueError, message)
            assert outcome(loop_require_instrument, mats) == (ValueError, message)


def test_instrument_check_and_matching_hold_a_few_stacks_at_most():
    # 16 outcomes on 16 dimensions make a 64 KiB stack.  Forming every
    # P_i P_j, or every pairwise difference, at once takes 1 MiB or more,
    # which leaves the process heap megabytes larger for the rest of its run.
    basis = two_qubit_u_basis_measurement(CNOT, (1, 2, 3, 4))
    mats = np.array([p.matrix for p in basis.projectors])
    tracemalloc.start()
    try:
        qcore._require_instrument(mats)
        instrument_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        match_projector_sets(basis.projectors, basis.projectors[::-1])
        matching_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert instrument_peak <= 6 * mats.nbytes
    assert matching_peak <= 6 * mats.nbytes


def test_matching_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        match_projector_sets([np.full((2, 2), np.nan), I2], [I2, np.zeros((2, 2))])
    with pytest.raises(ValueError, match="finite"):
        match_projector_sets([I2], [np.diag([np.inf, 0.0])])


@pytest.mark.parametrize(
    "a, b",
    [
        ([np.ones((1, 4))], [np.eye(4)]),
        ([np.ones((1, 4))], [np.ones((1, 4))]),
        ([I2, np.eye(4)], [I2, I2]),
        ([np.ones(4)], [np.ones(4)]),
    ],
    ids=["row-vs-square", "not-square", "mixed-sizes", "vectors"],
)
def test_matching_rejects_families_without_one_square_shape(a, b):
    with pytest.raises(ValueError, match="one square shape"):
        match_projector_sets(a, b)


def test_matching_empty_families():
    assert match_projector_sets([], []) == ([], 0.0)


def test_identity_checks_validate_every_instrument_on_every_call(monkeypatch):
    # every measurement verify builds is checked as an instrument: 16 binary
    # measurements and 14 complete ones, 24 of them (the six catalogue gates'
    # x and z binaries, joints and bases) as members of three stacks; a cached
    # or skipped construction would show as fewer
    real, instruments = qcore._require_instrument, []

    def counting(mats):
        instruments.append(int(np.prod(np.shape(mats)[:-3])))  # a stack's members, or 1
        return real(mats)

    monkeypatch.setattr(qcore, "_require_instrument", counting)
    monkeypatch.setattr(msr, "_require_instrument", counting)
    counts = []
    for _ in range(2):
        instruments.clear()
        assert all(c.passed for c in identity_checks())
        counts.append((sum(instruments), len(instruments)))
    assert counts == [(30, 9), (30, 9)]


def test_a_verdict_makes_a_pinned_number_of_constructions(monkeypatch):
    # Per verdict: 9 instrument checks (30 instruments, above); 10 full-register
    # embeddings, the four controlled-NOT binaries' 8 slots once and the 2
    # parity forms' expected values; 11 unitarity checks, for the 4 Bell
    # states, the 6 catalogue gates and the controlled-NOT.  Building each
    # catalogue gate's pair, joint and basis as objects made 30, 38 and 23.
    counts = dict.fromkeys(["_require_instrument", "embed_at", "_require_unitary"], 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name in counts:
        spy = counted(name, getattr(qcore, name))
        for module in (qcore, msr):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    per_verdict = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        assert all(c.passed for c in identity_checks())
        per_verdict.append(dict(counts))
    assert per_verdict == [{"_require_instrument": 9, "embed_at": 10, "_require_unitary": 11}] * 2


class TestStackedXZPairs:
    """``measure._xz_pair_bases``: the x/z pairs of a stack of gates on the protocol's slots, checked in stacks."""

    GATES = np.array([I2, HADAMARD, T_GATE, X, Y, Z])

    def test_joints_and_bases_are_the_public_ones(self):
        # the catalogue gates' pairs are the public pairs bit for bit; on a Haar gate the protocol's slots
        # are the public parity slots, one rounding off the expansion's, so its joint is theirs composed
        haar = np.array([haar_unitary(np.random.default_rng(seed)) for seed in range(20)])
        joints, bases = msr._xz_pair_bases(np.concatenate([self.GATES, haar]))
        for k, u in enumerate(np.concatenate([self.GATES, haar])):
            pair = u_basis_binary_pair(u) if k < len(self.GATES) else [
                BinaryMeasurement(*parity_slots(solve_two_qubit_parity_form(i, u))) for i in (1, 3)]
            assert np.array_equal(joints[k], [p.matrix for p in compose_binaries(pair).projectors])
            assert np.array_equal(bases[k], [p.matrix for p in u_basis_measurement(u).projectors])

    @staticmethod
    def patch_slots(monkeypatch, k, change):
        """Make ``_xz_parity_slots`` hand member k's slots to ``change`` first; returns their changed copies."""
        real, seen, changed = msr._xz_parity_slots, [], []

        def patched(u):
            slots = real(u)
            if len(seen) == k:
                change(slots)
                changed.append(slots)
            seen.append(u)
            return slots

        monkeypatch.setattr(msr, "_xz_parity_slots", patched)
        return changed

    @pytest.mark.parametrize("k", range(6))
    def test_a_non_unitary_member_fails_as_one_gate_does(self, k):
        us = self.GATES.copy()
        us[k] *= 1.1
        one = outcome(u_basis_binary_pair, us[k])
        assert one == outcome(u_basis_measurement, us[k]) == (ValueError, "gate matrix is not unitary")
        assert outcome(msr._xz_pair_bases, us) == (ValueError, f"member {k}: {one[1]}")

    @pytest.mark.parametrize("k, axis", [(k, axis) for k in range(6) for axis in (0, 1)])
    def test_a_non_idempotent_slot_fails_as_one_binary_does(self, monkeypatch, k, axis):
        def halve(slots):
            slots[axis, 0] *= 0.5

        changed = self.patch_slots(monkeypatch, k, halve)
        got = outcome(msr._xz_pair_bases, self.GATES)
        one = outcome(BinaryMeasurement, *(Projector(p, (0, 1)) for p in changed[0][axis]))
        assert one == (ValueError, "projector 0 is not idempotent")
        assert got == (ValueError, f"member {k}, {axis}: {one[1]}")

    @pytest.mark.parametrize("k", range(6))
    def test_a_non_commuting_pair_fails_as_one_composition_does(self, monkeypatch, k):
        # the x binary measures X (x) B; Z (x) B = (ZX (x) I)(X (x) B) anticommutes with it
        def anticommuting_z(slots):
            zb = np.kron(Z @ X, I2) @ (2 * slots[0, 0] - np.eye(4))
            slots[1] = [(np.eye(4) + zb) / 2, (np.eye(4) - zb) / 2]

        changed = self.patch_slots(monkeypatch, k, anticommuting_z)
        got = outcome(msr._xz_pair_bases, self.GATES)
        pair = [BinaryMeasurement(*(Projector(p, (0, 1)) for p in slots)) for slots in changed[0]]
        one = outcome(compose_binaries, pair)
        assert one[0] is ValueError and one[1].startswith("binary measurements 0 and 1 do not commute")
        assert got == (ValueError, f"member {k}: {one[1]}")

    @pytest.mark.parametrize("k", range(6))
    def test_an_incomplete_basis_fails_as_one_basis_does(self, monkeypatch, k):
        real = qcore._bell_amplitudes

        def drop_outcome_2(ops):  # member k's in a stack, or a single gate's
            vs = real(ops).copy()
            (vs[k] if vs.ndim == 3 else vs)[2] = 0.0
            return vs

        monkeypatch.setattr(qcore, "_bell_amplitudes", drop_outcome_2)
        one = outcome(u_basis_measurement, self.GATES[k])
        assert one == (ValueError, "incomplete instrument: projectors do not sum to the identity")
        assert outcome(msr._xz_pair_bases, self.GATES) == (ValueError, f"member {k}: {one[1]}")
