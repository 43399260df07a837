"""The public surface: every exported name resolves, and non-finite input is rejected where it enters."""
import contextlib
import importlib
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
    "factor_out": lambda bad: qcore.factor_out(qcore.zero_state((0, 1)), (0,), [bad, 0]),
    "twisted_bell": lambda bad: qcore.twisted_bell([[bad, 0], [0, 1]], (0, 1)),
}


@pytest.mark.parametrize("bad", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_finite_input_is_rejected(boundary, bad):
    # every tolerance check is written so that a NaN deviation fails it; inf
    # input makes numpy warn of the NaN it produces on the way there
    quiet = np.errstate(invalid="ignore") if bad == INF else contextlib.nullcontext()
    with pytest.raises(ValueError), quiet:
        BOUNDARIES[boundary](bad)
