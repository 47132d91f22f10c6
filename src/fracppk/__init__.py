"""fracppk: Poisson counting processes and random fields of order k, with
time-fractional, space-fractional, and tempered time-space variants.

The package evaluates pmfs, pgfs, moments, Levy measures, and first-passage
densities exactly, by closed forms and positive sums (clock weights, from a
quadrature over the Mittag-Leffler law where the clock is inverse stable,
times convolution powers of the jump law); exact-in-law samplers built on
subordinator representations; marked spatial fields over boxes; and a
verification harness that cross-checks the analytic and sampling routes
against each other.
"""

from .combinatorics import (
    Composition,
    OrderParams,
    enumerate_omega,
    log_omega_kernel,
    omega_kernel,
    zeta_profile,
    zeta_table,
)
from .errors import (
    CapExceeded,
    DegenerateBins,
    DomainError,
    FracppkError,
    HorizonOverflow,
    NonConvergence,
)
from .fields import (
    BoxRegion,
    ClockVector,
    MarkedPointField,
    count_in_region,
    field_conditional_pmf,
    field_moments,
    field_pmf,
    fractional_field_moments,
    fractional_field_pmf,
    sample_field,
    sample_region_clocks,
)
from .processes import (
    MarkedEventPath,
    PmfTable,
    SpaceFractional,
    TemperedTimeSpace,
    TimeFractional,
    batch_pgf,
    pmf_table,
    ppok_moments,
    ppok_pgf,
    ppok_pmf,
    sample_fractional_counts,
    sample_ppok_counts,
    sample_ppok_path,
    sfppok_first_passage,
    sfppok_levy_weights,
    sfppok_pgf,
    sfppok_pmf,
    tfppok_cov,
    tfppok_mean,
    tfppok_pgf,
    tfppok_pmf,
    ttsfppok_pgf,
)
from .specfun import (
    inv_stable_density,
    mittag_leffler,
    ml_derivative,
    ml_derivatives,
    prabhakar_ml,
    stable_density,
)
from .subordinators import (
    Gamma,
    InverseGaussian,
    MixedStable,
    MixtureTemperedStable,
    RngStream,
    Stable,
    SubordinatorSpec,
    TemperedStable,
    as_generator,
    laplace_exponent,
    sample_increment,
    sample_inverse,
    sample_inverse_at,
    sample_inverse_many,
)
from .verify import (
    GofReport,
    MartingaleReport,
    compare_pmf,
    estimate_pmf,
    fractional_difference,
    governing_residual_sf,
    governing_residual_tf,
    martingale_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FracppkError",
    "DomainError",
    "NonConvergence",
    "CapExceeded",
    "HorizonOverflow",
    "DegenerateBins",
    # combinatorics
    "OrderParams",
    "Composition",
    "enumerate_omega",
    "zeta_profile",
    "zeta_table",
    "omega_kernel",
    "log_omega_kernel",
    # special functions
    "mittag_leffler",
    "prabhakar_ml",
    "ml_derivative",
    "ml_derivatives",
    "stable_density",
    "inv_stable_density",
    # subordinators
    "RngStream",
    "as_generator",
    "Stable",
    "MixedStable",
    "TemperedStable",
    "MixtureTemperedStable",
    "Gamma",
    "InverseGaussian",
    "SubordinatorSpec",
    "laplace_exponent",
    "sample_increment",
    "sample_inverse",
    "sample_inverse_many",
    "sample_inverse_at",
    # processes
    "TimeFractional",
    "SpaceFractional",
    "TemperedTimeSpace",
    "PmfTable",
    "MarkedEventPath",
    "batch_pgf",
    "ppok_pmf",
    "ppok_pgf",
    "ppok_moments",
    "tfppok_pmf",
    "tfppok_pgf",
    "tfppok_mean",
    "tfppok_cov",
    "sfppok_pmf",
    "sfppok_pgf",
    "sfppok_levy_weights",
    "sfppok_first_passage",
    "ttsfppok_pgf",
    "pmf_table",
    "sample_ppok_path",
    "sample_ppok_counts",
    "sample_fractional_counts",
    # fields
    "BoxRegion",
    "MarkedPointField",
    "ClockVector",
    "field_pmf",
    "field_conditional_pmf",
    "field_moments",
    "sample_field",
    "count_in_region",
    "sample_region_clocks",
    "fractional_field_pmf",
    "fractional_field_moments",
    # verification
    "GofReport",
    "MartingaleReport",
    "estimate_pmf",
    "compare_pmf",
    "fractional_difference",
    "governing_residual_tf",
    "governing_residual_sf",
    "martingale_check",
]
