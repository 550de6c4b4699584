"""The public names of `cuederiv`, pinned so that an API change is deliberate."""

import math
import types

import pytest

import cuederiv
from cuederiv.exact_moments import _validate_sizes

PUBLIC_NAMES = {
    "CapabilityError",
    "MomentEstimate",
    "SeriesResult",
    "arithmetic_factor",
    "conjecture_rhs",
    "cue_limit",
    "cue_moment_integer",
    "cue_moment_ks",
    "cue_moment_radial",
    "deriv_moment_series",
    "divisor_table",
    "estimate_joint_moment",
    "estimate_moment",
    "exp_moment",
    "expected_log_integral",
    "expected_zero_count",
    "global_moment",
    "hyp1f1",
    "joint_moment",
    "lindelof_series",
    "log_convolution_table",
    "mean_zero_counts",
    "meso_moment",
    "micro_b",
    "micro_b_bessel",
    "moment_exact",
    "moment_structure",
    "zeta_real",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(cuederiv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 28
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cuederiv.estimate_moment(6, math.inf, 0.3, 10, 1),
                 r"requires finite s, got s = inf", id="estimate_moment-s-inf"),
    pytest.param(lambda: cuederiv.cue_limit(2, "microscopic", c=math.nan),
                 r"microscopic regime requires finite c, got c = nan", id="cue_limit-c-nan"),
    pytest.param(lambda: cuederiv.moment_structure(5, 2, math.nan),
                 r"requires finite u, got u = nan",
                 id="moment_structure-u-nan"),
    pytest.param(lambda: cuederiv.moment_structure(5, 2, math.inf),
                 r"requires finite u, got u = inf",
                 id="moment_structure-u-inf"),
    pytest.param(lambda: cuederiv.cue_moment_radial(5, 2, math.inf),
                 r"requires finite r, got r = inf", id="cue_moment_radial-r-inf"),
    pytest.param(lambda: cuederiv.joint_moment(1, math.inf, 0.3, 0.5j),
                 r"requires finite h, got h = inf", id="joint_moment-h-inf"),
    pytest.param(lambda: cuederiv.estimate_joint_moment(6, 1, math.inf, 0.3, 0.3, 10, 1),
                 r"requires finite h, got h = inf", id="estimate_joint_moment-h-inf"),
    pytest.param(lambda: cuederiv.global_moment(math.inf, 0.5),
                 r"requires finite s, got s = inf", id="global_moment-s-inf"),
    pytest.param(lambda: cuederiv.micro_b(2, math.nan),
                 r"requires finite c, got c = nan", id="micro_b-c-nan"),
])
def test_non_finite_input_is_refused_by_name(call, message):
    # each was an OverflowError, a conversion error or a capability error
    # that did not name the parameter
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _validate_sizes(0, 2), r"N must be a positive integer, got 0",
                 id="_validate_sizes-N"),
    pytest.param(lambda: _validate_sizes(3, 1.5), r"s must be a positive integer, got 1.5",
                 id="_validate_sizes-s"),
    pytest.param(lambda: cuederiv.moment_structure(3, 2, -0.5), r"u = \|z\|\^2 must be non-negative",
                 id="moment_structure-u-negative"),
    pytest.param(lambda: cuederiv.cue_moment_ks(0, 1.0), r"N must be a positive integer",
                 id="cue_moment_ks-N"),
    pytest.param(lambda: cuederiv.cue_moment_integer(2.5, 1), r"N must be a positive integer",
                 id="cue_moment_integer-N"),
    pytest.param(lambda: cuederiv.cue_moment_integer(3, -1), r"s must be a non-negative integer",
                 id="cue_moment_integer-s"),
    pytest.param(lambda: cuederiv.expected_zero_count(1.0), r"requires 0 <= r < 1",
                 id="expected_zero_count-r"),
    pytest.param(lambda: cuederiv.expected_log_integral(-0.1), r"requires 0 <= r < 1",
                 id="expected_log_integral-r"),
    pytest.param(lambda: cuederiv.micro_b(0, 1.0), r"s must be a positive integer",
                 id="micro_b-s"),
    pytest.param(lambda: cuederiv.micro_b_bessel(1.5, 1.0), r"s must be a positive integer",
                 id="micro_b_bessel-s"),
    pytest.param(lambda: cuederiv.mean_zero_counts(5, [0.5, 1.0], 10, 0),
                 r"radii must lie in \(0, 1\)", id="mean_zero_counts-radius"),
    pytest.param(lambda: cuederiv.exp_moment(-1, 1.0), r"exp_moment requires k >= 0",
                 id="exp_moment-k"),
    pytest.param(lambda: cuederiv.divisor_table(0, 10), r"requires s >= 1 and n_max >= 1",
                 id="divisor_table-s"),
])
def test_out_of_range_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
