"""hypoflow: Harnack chains, closed-form kernels and Monte Carlo density
verification for four families of degenerate hypoelliptic diffusions."""

from .models import (
    ASIAN,
    HEISENBERG,
    KOLMOGOROV,
    QUADRATIC_LIFTED,
    DomainError,
    Model,
    UnsupportedOperationError,
    attainable_quadratic,
    dilate,
    group_compose,
    group_inverse,
    heat,
    iterated_kolmogorov,
)
from .paths import (
    AdmissiblePath,
    ControlPath,
    DomainExitError,
    constant_control,
    integrate_path,
    path_cost,
    path_length,
)
from .harnack import (
    ChainParams,
    HarnackChain,
    build_parabolic_chain,
    build_path_chain,
    chain_lower_bound,
)
from .kolmogorov import (
    GaussianLaw,
    gamma0,
    optimal_control_kolmogorov,
    psi0,
)
from .heisenberg import (
    CCResult,
    ball_volume,
    cc_distance,
    cc_distance_batch,
    cc_distance_brute,
    cc_envelope,
    estimate_unit_ball_volume,
)
from .quadratic import (
    Regime,
    certify_grid_reachability,
    far_near_shape_fits,
    reachable_cloud,
    regime_classify,
    regime_envelope,
    support_fraction,
)
from .asian import (
    AccuracyError,
    AsianEndpoints,
    asian_envelope,
    calibrate_hjb_convention,
    g,
    g_inverse,
    hjb_residual,
    value_psi,
    value_psi_details,
    variance_formulas,
    yor_density,
    yor_psi,
)
from .montecarlo import (
    BoundReport,
    DensityEstimate,
    SampleBatch,
    chi_square_gof,
    compare_bounds,
    estimate_density,
    euler_maruyama,
    exact_law,
    fit_log_envelope,
    fit_loglog_slopes,
    load_batch,
    sample_gaussian_exact,
    save_batch,
    variance_slope,
)
from .verify import verify_heat, verify_heisenberg, verify_kolmogorov

__version__ = "0.1.0"
