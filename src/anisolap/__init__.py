"""Anisotropic (tempered) fractional Laplacians and their jump processes:
Fourier symbols, singular-integral quadrature, Monte Carlo sampling,
spectral density evolution, multi-state CTRWs, and coercivity analysis."""

__version__ = "0.1.0"

from .measures import (
    AngularBand,
    DirectionalMeasure,
    MomentSummary,
    StabilityProfile,
    is_nondegenerate,
    is_symmetric,
    make_atomic_measure,
    make_banded_measure,
    make_measure,
    measure_from_json,
    measure_to_json,
    moments,
    sphere_integrate,
    uniform_measure,
)
from .symbols import (
    GeneratorSymbol,
    beta1_symbol,
    beta2_symbol,
    gaussian_symbol,
    general_profile_symbol,
    isotropic_reference_symbol,
    make_generator,
    tempered_symbol,
)
from .realspace import (
    ScalarField,
    apply_caseI,
    apply_caseII,
    apply_general,
    apply_gaussian_nonlocal,
    bilinear_form,
    gaussian_bump,
)
from .sampler import (
    JumpSpec,
    Trajectory,
    compound_poisson_endpoints,
    empirical_cf,
    jump_cf,
    matched_rate,
    sample_direction,
    sample_inverse_subordinator,
    sample_jump,
    simulate_compound_poisson,
)
from .evolve import (
    DensityField,
    SpectralGrid,
    compare_densities,
    density_from_samples,
    evolve_spectral,
    evolve_time_fractional,
)
from .multistate import (
    FunctionalSpec,
    StateModel,
    WaitingLaw,
    empirical_functional_cf,
    montroll_transform,
    multistate_endpoints,
    simulate_multistate_ctrw,
    validate_multistate,
)
from .analysis import (
    coercivity_ratio,
    counterexample_1d,
    mass_conservation_check,
    parseval_bilinear_check,
    scaling_limit_check,
)
