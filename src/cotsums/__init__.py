"""Finite cotangent sums c0(r/b): exact evaluation, asymptotic expansion,
the sawtooth limit profile, and equidistribution scans.

The package has four layers. `core` evaluates the sums themselves by one
direct-sum kernel with paired error bounds. `asymptotics` carries the
b -> infinity expansion of c0(1/b), the secondary coefficient C1(r, b0)
as a digamma sum and by empirical fit, and the Bernoulli, zeta and digamma
machinery both rest on. `gseries` handles the limit profile g(alpha): truncated
series, Fourier form, continued-fraction convergence, moments, and the
empirical distribution. `equidist` runs window scans over residues
coprime to b and the exponential-sum utilities used to test them.
"""

from .core import (
    ReducedFraction,
    SumValue,
    c0,
    c0_q_v,
    estermann_at_zero,
    fractional_identity_check,
    mod_inverse,
    q_sum,
    reciprocity_defect,
    vasyunin,
)
from .asymptotics import (
    AsymptoticExpansion,
    C1Input,
    bernoulli,
    c0_asymptotic,
    c1_direct,
    c1_empirical,
    default_b_list,
    g_partial,
    gstar,
    gstar_integral,
    p1_integral,
    s_sum,
    zeta_real,
)
from .gseries import (
    ContinuedFraction,
    EmpiricalCDF,
    MomentTable,
    TruncatedGSeries,
    cf_expand,
    cf_from_quotients,
    convergence_classifier,
    empirical_F,
    f_eval,
    fourier_coeffs_f,
    g_fourier_eval,
    hk_growth_check,
    hk_table,
)
from .equidist import (
    ExpSumParams,
    ScanReport,
    ScanWindow,
    euler_phi,
    inverse_localization_count,
    kloosterman,
    ks_distance,
    q_approx,
    ramanujan,
    scan,
)

__version__ = "0.1.0"

# every name imported above, in import order, then the version
_MODULES = ("asymptotics", "core", "equidist", "gseries")
__all__ = [*(name for name in globals() if name[0] != "_" and name not in _MODULES), "__version__"]
