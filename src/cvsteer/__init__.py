"""Steering and Bell criteria for two-mode oscillator Fock superpositions.

Evaluates the Reid inference-variance criterion, the conditional-entropy criterion,
and the maximal CHSH value for finite Fock superpositions of two harmonic-oscillator
modes, with sweep and critical-angle tooling for the two built-in one-parameter
families cos(t)|00>+sin(t)|11> and cos(t)|01>+sin(t)|10>.
"""

from .criteria import (
    CHSH_CLASSICAL_BOUND,
    CRITERIA,
    LN_PI_E,
    REID_BOUND,
    CriterionResult,
    chsh_max,
    correlation_matrix,
    entropic_value,
    reid_value,
)
from .fock import (
    DENSITY_FLOOR,
    DegenerateMarginal,
    Domain,
    FockState,
    NATURAL_UNITS,
    UnitSystem,
    conditional_mean,
    joint_density,
    make_psi,
    make_psi_prime,
    marginal_density,
)
from .quadrature import (
    DEFAULT_SPEC,
    ENTROPY_FLOOR,
    IntegralResult,
    QuadratureSpec,
    adaptive_panels,
    integrate_entropy_1d,
    integrate_entropy_2d,
)
from .sweep import (
    STATE_BUILDERS,
    CriticalAngle,
    HierarchyReport,
    NoRootInRange,
    SweepResult,
    find_critical_angles,
    hierarchy_report,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CHSH_CLASSICAL_BOUND",
    "CRITERIA",
    "CriterionResult",
    "CriticalAngle",
    "DEFAULT_SPEC",
    "DENSITY_FLOOR",
    "DegenerateMarginal",
    "Domain",
    "ENTROPY_FLOOR",
    "FockState",
    "HierarchyReport",
    "IntegralResult",
    "LN_PI_E",
    "NATURAL_UNITS",
    "NoRootInRange",
    "QuadratureSpec",
    "REID_BOUND",
    "STATE_BUILDERS",
    "SweepResult",
    "UnitSystem",
    "adaptive_panels",
    "chsh_max",
    "conditional_mean",
    "correlation_matrix",
    "entropic_value",
    "find_critical_angles",
    "hierarchy_report",
    "integrate_entropy_1d",
    "integrate_entropy_2d",
    "joint_density",
    "make_psi",
    "make_psi_prime",
    "marginal_density",
    "reid_value",
    "sweep",
    "__version__",
]
