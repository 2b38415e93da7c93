"""Cooling limits and work costs of minimal quantum refrigerators.

Closed-form evaluators for incoherent (hot-bath) and coherent (battery)
cooling protocols on one- and two-qubit machines in single-cycle, repeated,
and asymptotic regimes, second-law-saturating N-stage ladder machines, an
analytic majorization solver for the work-optimal unitaries, and a dense
density-matrix oracle that independently verifies every closed form.
"""

from .ladder import LadderOutcome, LadderSpec, coherent_ladder, embedded_ladder_preheat, incoherent_ladder
from .protocols import (
    DegeneracyClassification,
    ProtocolOutcome,
    algorithmic_cooling,
    autonomous_steady_state,
    boxed_limits,
    degeneracy_classifier,
    internal_resource,
    one_qubit_coherent,
    optimal_sequence,
    repeated_coherent,
    repeated_incoherent,
    single_cycle_coherent_cost,
    two_qubit_coherent_single,
    two_qubit_incoherent_single,
)
from .thermal import (
    ConfigurationError,
    DomainError,
    INFINITE,
    InfeasibleTargetError,
    MachineSpec,
    NegativeTemperatureError,
    QubitSpec,
    binary_entropy,
    boltzmann_population,
    hamiltonian_diagonal,
    resource_free_energy,
    temperature_from_population,
    thermal_populations,
)
from .virtual import (
    EmptyVirtualQubitError,
    VirtualQubit,
    extract_virtual_qubit,
    n_swap_population,
    swap_update,
)

# The solver's names load numpy, which only the oracle side needs: resolve
# them on first access so `import qfridge` stays numpy-free.
_MAJORIZATION_NAMES = frozenset(
    {
        "ConstrainedMinResult",
        "TTransform",
        "majorizes",
        "solve_one_qubit",
        "solve_two_qubit",
        "vertex_oracle_min",
    }
)


def __getattr__(name: str):
    if name in _MAJORIZATION_NAMES:
        from . import majorization

        return getattr(majorization, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConstrainedMinResult",
    "DegeneracyClassification",
    "DomainError",
    "EmptyVirtualQubitError",
    "INFINITE",
    "InfeasibleTargetError",
    "LadderOutcome",
    "LadderSpec",
    "MachineSpec",
    "NegativeTemperatureError",
    "ProtocolOutcome",
    "QubitSpec",
    "TTransform",
    "VirtualQubit",
    "algorithmic_cooling",
    "autonomous_steady_state",
    "binary_entropy",
    "boltzmann_population",
    "boxed_limits",
    "coherent_ladder",
    "degeneracy_classifier",
    "embedded_ladder_preheat",
    "extract_virtual_qubit",
    "hamiltonian_diagonal",
    "incoherent_ladder",
    "internal_resource",
    "majorizes",
    "n_swap_population",
    "one_qubit_coherent",
    "optimal_sequence",
    "repeated_coherent",
    "repeated_incoherent",
    "resource_free_energy",
    "single_cycle_coherent_cost",
    "solve_one_qubit",
    "solve_two_qubit",
    "swap_update",
    "temperature_from_population",
    "thermal_populations",
    "two_qubit_coherent_single",
    "two_qubit_incoherent_single",
    "vertex_oracle_min",
]
