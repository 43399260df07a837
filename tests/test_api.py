"""The public surface: every exported name resolves, and non-finite input is rejected where it enters."""
import contextlib
import importlib
import inspect
import pkgutil
import types

import numpy as np
import pytest

import measureonly
from measureonly import qcore
from measureonly.measure import SingleQubitBinary
from measureonly.protocol import GateSpec, prepare_ancilla_one
from measureonly.qcore import Projector, QuantumState

MODULES = [importlib.import_module(f"measureonly.{m.name}") for m in pkgutil.iter_modules(measureonly.__path__)]


@pytest.mark.parametrize("module", [measureonly] + MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_exports_every_public_import():
    public = {name for name, value in vars(measureonly).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(measureonly.__all__)


def test_public_surface_is_pinned():
    # a name added back to (or dropped from) the package surface is a reviewed edit here
    assert set(measureonly.__all__) == {
        "PHASES", "SIGMA", "PhasedPauli", "cnot_frame_update", "nearest_phased_pauli", "pauli_product",
        "Projector", "QuantumState", "apply_unitary", "bell_state", "embed", "fidelity_up_to_phase",
        "permute_to", "twisted_bell", "zero_state",
        "GAMMA", "MEAS_W", "MEAS_X", "MEAS_Y", "MEAS_Z", "BalancedBooleanFn", "BinaryMeasurement",
        "CompleteMeasurement", "PseudoseparateForm", "SingleQubitBinary", "cnot_measurement_set",
        "compose_binaries", "expand_f_separate", "is_pseudoseparate_witness", "match_projector_sets",
        "solve_two_qubit_parity_form", "two_qubit_u_basis_measurement", "u_basis_binary_pair",
        "u_basis_measurement",
        "BudgetExceeded", "GateSpec", "ProtocolConfig", "ProtocolError", "ProtocolTrace",
        "TrialRecord", "bell_measure", "direct_state", "prepare_ancilla_one", "run_circuit",
        "simulate_cnot", "simulate_one_qubit", "trials_needed",
    }


def test_public_signatures_are_pinned():
    # an option added back to (or dropped from) a public callable is a reviewed edit here
    signatures = {}
    for module in MODULES:
        prefix = module.__name__.rpartition(".")[2]
        for name in getattr(module, "__all__", []):
            value = getattr(module, name)
            if callable(value) and getattr(value, "__module__", "").startswith("measureonly"):
                with contextlib.suppress(ValueError):  # an exception class keeps its builtin constructor
                    signatures[f"{prefix}.{name}"] = tuple(inspect.signature(value).parameters)
    assert signatures == {
        "identities.CheckResult": ("name", "deviation", "tolerance"),
        "identities.identity_checks": ("tolerance",),
        "measure.SingleQubitBinary": ("bloch",),
        "measure.BalancedBooleanFn": ("arity", "table"),
        "measure.PseudoseparateForm": ("f", "parts", "targets"),
        "measure.BinaryMeasurement": ("p0", "p1", "pseudoseparate"),
        "measure.CompleteMeasurement": ("projectors",),
        "measure.expand_f_separate": ("form",),
        "measure.parity_slots": ("form",),
        "measure.solve_two_qubit_parity_form": ("i", "u", "targets"),
        "measure.u_basis_measurement": ("u", "labels"),
        "measure.two_qubit_u_basis_measurement": ("u", "labels"),
        "measure.u_basis_binary_pair": ("u", "labels"),
        "measure.cnot_measurement_set": ("labels",),
        "measure.compose_binaries": ("ms", "system"),
        "measure.is_pseudoseparate_witness": ("m", "form"),
        "measure.match_projector_sets": ("a", "b"),
        "pauli.PhasedPauli": ("phase", "indices"),
        "pauli.kron2": ("a", "b"),
        "pauli.pauli_product": ("i", "j"),
        "pauli.cnot_frame_update": ("j", "k"),
        "pauli.nearest_phased_pauli": ("matrix",),
        "protocol.GateSpec": ("name", "matrix"),
        "protocol.ProtocolConfig": ("epsilon", "max_trials", "prep_mode"),
        "protocol.TrialRecord": ("index", "prepared", "outcome", "prep_bits", "bell_bits", "success", "target"),
        "protocol.ProtocolTrace": ("trials", "succeeded", "residual_matrix", "residual_pauli"),
        "protocol.BudgetExceeded": ("message", "traces", "state", "gate_index"),
        "protocol.trials_needed": ("epsilon", "arity"),
        "protocol.prepare_ancilla_one": ("u", "mode", "rng", "labels"),
        "protocol.bell_measure": ("state", "pair", "rng", "variant"),
        "protocol.simulate_one_qubit": ("gate", "state", "qubit", "cfg", "rng"),
        "protocol.simulate_cnot": ("state", "qubits", "cfg", "rng"),
        "protocol.run_circuit": ("circuit", "n_qubits", "cfg", "rng"),
        "protocol.direct_state": ("circuit", "n_qubits"),
        "qcore.QuantumState": ("data", "labels"),
        "qcore.Projector": ("matrix", "labels"),
        "qcore.zero_state": ("labels",),
        "qcore.bell_state": ("i", "labels"),
        "qcore.twisted_bell": ("op", "labels"),
        "qcore.embed": ("op", "on", "system"),
        "qcore.embed_at": ("op", "positions", "n"),
        "qcore.apply_unitary": ("state", "op", "on"),
        "qcore.measure": ("state", "instrument", "rng"),
        "qcore.fidelity_up_to_phase": ("a", "b"),
        "qcore.permute_to": ("state", "new_labels"),
    }


NAN, INF = float("nan"), float("inf")


def _nan_projector_measurement(bad):
    z = (Projector(np.diag([bad, 0.0]), (0,)), Projector(np.diag([0.0, 1.0]), (0,)))
    return qcore.measure(qcore.zero_state((0,)), z, np.random.default_rng(0))


BOUNDARIES = {
    "QuantumState.pure": lambda bad: QuantumState.pure([bad, 0], (0,)),
    "GateSpec.custom": lambda bad: GateSpec.custom([[bad, 0], [0, 1]]),
    "prepare_ancilla_one": lambda bad: prepare_ancilla_one(np.full((2, 2), bad), "direct", np.random.default_rng(0)),
    "SingleQubitBinary": lambda bad: SingleQubitBinary((bad, 0, 0)),
    "measure": _nan_projector_measurement,
    "twisted_bell": lambda bad: qcore.twisted_bell([[bad, 0], [0, 1]], (0, 1)),
    "apply_unitary": lambda bad: qcore.apply_unitary(qcore.zero_state((0,)), [[bad, 0], [0, 1]], (0,)),
}


@pytest.mark.parametrize("bad", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_finite_input_is_rejected(boundary, bad):
    # every tolerance check is written so that a NaN deviation fails it; inf
    # input makes numpy warn of the NaN it produces on the way there
    quiet = np.errstate(invalid="ignore") if bad == INF else contextlib.nullcontext()
    with pytest.raises(ValueError), quiet:
        BOUNDARIES[boundary](bad)
