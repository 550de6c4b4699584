"""The public names of `cuederiv`, pinned so that an API change is deliberate."""

import math
import types

import pytest

import cuederiv

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
