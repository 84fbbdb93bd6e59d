"""genosc: verification workbench for the Ricci-flat generalized oscillator.

Closed-form Kähler geometry, the Poisson algebra of moment-map observables,
and their exact geometric quantization on holomorphic polynomial states,
together with the numerical cross-checks tying the three layers together.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DimensionMismatch,
    DomainError,
    GenoscError,
)
from .exact import ComplexRational
from .geometry import (
    MetricData,
    OscillatorParams,
    PhasePoint,
    PotentialProfile,
    metric_at,
    radial_profile,
    ricci_at,
    sample_points,
    wirtinger,
)
from .observables import (
    AlgebraElement,
    closed_form_field,
    evaluate,
    moment_map,
    preserves_polarization,
    structure_bracket,
)
from .quantization import (
    MonomialBasis,
    QuantumOperator,
    SpectralLine,
    dirac_nonzero,
    dirac_residual,
    monomial_basis,
    quantize,
    spectrum_of_H,
)
from .symplectic import (
    TangentVector,
    hamiltonian_field,
    poisson_bracket,
)

__all__ = [
    "__version__",
    "GenoscError",
    "DomainError",
    "ConditioningError",
    "DimensionMismatch",
    "ComplexRational",
    "OscillatorParams",
    "PhasePoint",
    "PotentialProfile",
    "MetricData",
    "radial_profile",
    "metric_at",
    "wirtinger",
    "ricci_at",
    "sample_points",
    "TangentVector",
    "hamiltonian_field",
    "poisson_bracket",
    "AlgebraElement",
    "evaluate",
    "moment_map",
    "structure_bracket",
    "closed_form_field",
    "preserves_polarization",
    "MonomialBasis",
    "QuantumOperator",
    "SpectralLine",
    "monomial_basis",
    "quantize",
    "dirac_residual",
    "dirac_nonzero",
    "spectrum_of_H",
]
