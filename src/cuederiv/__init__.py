"""Moments of the derivative of CUE characteristic polynomials.

Three mutually verifying computational routes (exact finite-N formulas,
closed-form asymptotics, Monte Carlo over Haar unitaries) plus the
number-theory side series they are conjectured to match.
"""

__version__ = "0.16.0"

from .errors import CapabilityError
from .exact_moments import (
    cue_moment_integer,
    cue_moment_ks,
    cue_moment_radial,
    moment_exact,
    moment_structure,
)
from .asymptotics import (
    cue_limit,
    expected_log_integral,
    expected_zero_count,
    global_moment,
    joint_moment,
    meso_moment,
    micro_b,
    micro_b_bessel,
)
from .rmt_mc import (
    MomentEstimate,
    estimate_joint_moment,
    estimate_moment,
    mean_zero_counts,
)
from .specfun import (
    exp_moment,
    hyp1f1,
    zeta_real,
)
from .zeta import (
    SeriesResult,
    arithmetic_factor,
    conjecture_rhs,
    deriv_moment_series,
    divisor_table,
    lindelof_series,
    log_convolution_table,
)
