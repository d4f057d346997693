"""Incomplete moment generating functions of generalized fading SNR laws, and
the wireless performance metrics built on them.

The kappa-mu shadowed family (with its kappa-mu, eta-mu, Rician shadowed,
Rician, Nakagami-m, Hoyt, Rayleigh and one-sided Gaussian special cases) gets
exact closed-form lower/upper IMGFs and s-derivatives; any other distribution
can go through the generic inverse-Laplace route.  On top sit secrecy outage,
interference outage, side-information capacity and adaptive-modulation BER.
"""

from .apps import (
    AdaptiveModScheme,
    CapacityScenario,
    SecrecyScenario,
    aber_adaptive,
    capacity_direct,
    capacity_side_info,
    eps_outage_capacity,
    opsc,
    outage_interference,
    solve_cutoff,
    spsc,
)
from .errors import AccuracyError, DomainError
from .fading import (
    FadingModel,
    Kind,
    canonicalize,
    cdf,
    cdf_grid,
    db_to_linear,
    laplace_image,
    linear_to_db,
    mgf,
    model_from_json,
    model_to_json,
    mrc_combine,
    pdf,
    sample,
    smallest_pole,
)
from .incomplete import (
    MAX_DERIV_ORDER,
    imgf_deriv_s,
    imgf_generic,
    imgf_lower,
    imgf_upper,
)
from .laplace import InversionResult, LaplaceImage, imgf_lower_numeric, invert
from .mixture import GammaMixture, mixture_cdf, mixture_from_model, mixture_params
from .oracles import McConfig, mc_aber, mc_opsc, quad_imgf
from .specfun import marcum_p, marcum_q

__version__ = "0.1.0"
