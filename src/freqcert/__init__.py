"""Frequency-domain small-gain certification of first-order optimization methods."""

from .certify import (
    CertificationQuery,
    CertificationResult,
    best_rate,
    certify,
    closed_form,
    frequency_response,
    gain_threshold,
    max_learning_rate,
)
from .dynamics import NoiseAdversary, Trajectory, apply_noise, estimate_rate, run
from .gain import cos_power_profile, hinf_norm
from .games import BilinearGame, bilinear_threshold, game_factor, spectrum_curve
from .operators import (
    OperatorSpec,
    SectorParams,
    bilinear_operator,
    build_minmax_operator,
    derived_sector,
    diagonal_quadratic,
    eval_operator,
    scalar_noncvx,
)
from .stability import is_schur, roots, spectral_radius_poly
from .transfer import (
    MethodSpec,
    RationalTF,
    Recursion,
    build_transfer,
    complementary_sensitivity,
    evaluate,
    rho_scale,
    tf_equal,
)

__version__ = "0.1.0"
