"""moyalquot: exact Moyal-Weyl star products over Gaussian-rational coefficients.

The package provides exact multivariate rational-function arithmetic, star
products on constant symplectic spaces given in Darboux pairs, their
transport to cotangent charts of the projective line through the quadric
double cover, gluing across Mobius-transition atlases, and the symmetrized
product on quot-cell coordinates, together with a CLI and seeded
verification suites.
"""

from .errors import (
    BadPermutation,
    ChartMismatch,
    DegenerateMatrix,
    DomainError,
    ExprSyntaxError,
    HInDenominator,
    InvalidPoint,
    MissingTransition,
    MoyalQuotError,
    NameCollision,
    NotEven,
    NotInvariant,
    NotSymplectic,
    OrderOverflow,
    OrderTooLarge,
    ParseFailure,
    SubstitutionPole,
    UnknownIdentifier,
    UnknownSuite,
    UnknownVariable,
    UsageFailure,
    VariableMismatch,
    ZeroDenominator,
)
from .gaussian import GaussianRational
from .polynomial import Polynomial, poly_divexact, poly_gcd
from .rational import RationalFunction, rf_normalize
from .series import HSeries, hs_equal
from .moyal import (
    LinearSymplectic,
    MoyalContext,
    SymplecticSpace,
    apply_symplectic,
    bidiff_power,
    moyal_star,
    poisson_bracket,
    star_commutator,
)
from .geometry import cotangent_lift, pushforward_even_pair, sigma_pullback_pair
from .atlas import (
    KChartFunction,
    ProjectiveAtlas,
    atlas_validate,
    chart_independence_check,
    load_atlas,
    parse_atlas,
    standard_cp1_atlas,
    star_on_K,
    transport,
)
from .quot import (
    ProductContext,
    QuotCellPoint,
    SymSeries,
    is_invariant,
    permute,
    product_star,
    quot_cell_star,
    quot_point_validate,
    support_divisor,
    symmetrize,
)
from .expr import parse_expr, lower_expr, parse_rational, parse_series
from .suites import SUITES, SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"
