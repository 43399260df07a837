"""Measurement-only quantum computation: catalogue construction and simulation.

The package simulates universal gate sets (Hadamard, pi/8, Paulis and the
controlled-NOT) using projective measurements alone.  Every measurement it
uses is binary and expressible as single-qubit measurements combined by a
balanced Boolean function; gates are enacted through repeat-until-success
teleportation with classical Pauli-frame tracking.
"""

from .pauli import (
    PHASES,
    SIGMA,
    PhasedPauli,
    cnot_frame_update,
    nearest_phased_pauli,
    pauli_product,
)
from .qcore import (
    Projector,
    QuantumState,
    apply_unitary,
    bell_state,
    embed,
    fidelity_up_to_phase,
    permute_to,
    twisted_bell,
    zero_state,
)
from .measure import (
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
    solve_two_qubit_parity_form,
    two_qubit_u_basis_measurement,
    u_basis_binary_pair,
    u_basis_measurement,
)
from .protocol import (
    BudgetExceeded,
    GateSpec,
    ProtocolConfig,
    ProtocolError,
    ProtocolTrace,
    TrialRecord,
    bell_measure,
    direct_state,
    prepare_ancilla_one,
    run_circuit,
    simulate_cnot,
    simulate_one_qubit,
    trials_needed,
)

__version__ = "0.1.0"

__all__ = [
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
]
