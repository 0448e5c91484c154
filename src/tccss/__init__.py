"""Multi-soliton solutions of the three-component coupled Sasa-Satsuma
equation via a reflectionless Riemann-Hilbert construction, with independent
verification through Lax-pair and PDE residuals on exact jets, symmetry, and
direct-scattering checks."""

from .lax import (
    StencilSpec,
    build_Q,
    build_U,
    build_V,
    build_V_x,
    gauge_transform_and_cnls_residual,
    jet_table,
    pde_residual_tccss,
    zero_curvature_residual,
)
from .report import GridSpec, ResidualReport
from .rhp import (
    PoleError,
    RHSolutionPair,
    build_rh_pair,
    check_symmetries,
    reconstruct_potential,
)
from .scattering import (
    DomainTooSmallError,
    HalfPlaneError,
)
from .soliton import (
    DegenerateSeedError,
    Family,
    NearSingularError,
    NonFiniteFieldError,
    SpectrumConfig,
    SpectrumError,
    TypeISeed,
    TypeIISeed,
    breather_closed_form,
    breather_spectrum,
    eval_fields_array,
    eval_jets_array,
    one_soliton_closed_form,
    one_soliton_spectrum,
    theta,
    two_soliton_closed_form,
)

__version__ = "0.1.0"
