"""The public names of `cuederiv`, pinned so that an API change is deliberate."""

import dataclasses
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

import cuederiv
from cuederiv.errors import _size

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
    pytest.param(lambda: cuederiv.exp_moment(2, math.nan),
                 r"requires finite c, got c = nan", id="exp_moment-c-nan"),
    pytest.param(lambda: cuederiv.exp_moment(2, math.inf),
                 r"requires finite c, got c = inf", id="exp_moment-c-inf"),
    pytest.param(lambda: cuederiv.hyp1f1(math.nan, 2.0, 1.0),
                 r"1F1 requires finite a, got a = nan", id="hyp1f1-a-nan"),
    pytest.param(lambda: cuederiv.hyp1f1(1.0, math.inf, 1.0),
                 r"1F1 requires finite b, got b = inf", id="hyp1f1-b-inf"),
    pytest.param(lambda: cuederiv.hyp1f1(1.0, 2.0, math.nan),
                 r"1F1 requires finite x, got x = nan", id="hyp1f1-x-nan"),
])
def test_non_finite_input_is_refused_by_name(call, message):
    # each was an OverflowError, a conversion error, a capability error or a
    # series that ran to its term limit, none naming the parameter
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cuederiv.moment_exact(0, 2, 0.5), r"requires N >= 1, got N = 0",
                 id="_validate_sizes-N"),
    pytest.param(lambda: cuederiv.moment_exact(3, 1.5, 0.5),
                 r"requires a whole number s >= 1, got s = 1.5", id="_validate_sizes-s"),
    pytest.param(lambda: cuederiv.moment_structure(3, 2, -0.5), r"u = \|z\|\^2 must be non-negative",
                 id="moment_structure-u-negative"),
    pytest.param(lambda: cuederiv.cue_moment_ks(0, 1.0), r"requires N >= 1",
                 id="cue_moment_ks-N"),
    pytest.param(lambda: cuederiv.cue_moment_integer(2.5, 1), r"whole number N >= 1",
                 id="cue_moment_integer-N"),
    pytest.param(lambda: cuederiv.cue_moment_integer(3, -1), r"requires s >= 0",
                 id="cue_moment_integer-s"),
    pytest.param(lambda: cuederiv.expected_zero_count(1.0), r"requires 0 <= r < 1",
                 id="expected_zero_count-r"),
    pytest.param(lambda: cuederiv.expected_log_integral(-0.1), r"requires 0 <= r < 1",
                 id="expected_log_integral-r"),
    pytest.param(lambda: cuederiv.micro_b(0, 1.0), r"requires s >= 1",
                 id="micro_b-s"),
    pytest.param(lambda: cuederiv.micro_b_bessel(1.5, 1.0), r"whole number s >= 1",
                 id="micro_b_bessel-s"),
    pytest.param(lambda: cuederiv.mean_zero_counts(5, [0.5, 1.0], 10, 0),
                 r"radii must lie in \(0, 1\)", id="mean_zero_counts-radius"),
    pytest.param(lambda: cuederiv.exp_moment(-1, 1.0), r"requires k >= 0",
                 id="exp_moment-k"),
    pytest.param(lambda: cuederiv.divisor_table(0, 10), r"requires s >= 1",
                 id="divisor_table-s"),
    pytest.param(lambda: cuederiv.zeta_real(2.0, 3), r"requires order <= 2, got order = 3",
                 id="zeta_real-order-above"),
])
def test_out_of_range_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Every public entry point that takes an integer argument: arguments at which
# it runs quickly, and the minimum of each integer parameter.
_MC_MINIMA = dict(N=1, samples=2, seed=0, threads=1)
_SIZED = [
    (cuederiv.moment_exact, dict(N=3, s=2, u=Fraction(1, 2)), dict(N=1, s=1)),
    (cuederiv.moment_structure, dict(N=3, s=2, u=Fraction(1, 2)), dict(N=1, s=1)),
    (cuederiv.cue_moment_radial, dict(N=3, s=2, r=Fraction(1, 2)), dict(N=1, s=1)),
    (cuederiv.cue_moment_ks, dict(N=3, s=1.5), dict(N=1)),
    (cuederiv.cue_moment_integer, dict(N=3, s=2), dict(N=1, s=0)),
    (cuederiv.meso_moment, dict(s=2, alpha=0.5, N=100.0), dict(s=1)),
    (cuederiv.micro_b, dict(s=2, c=1.0), dict(s=1)),
    (cuederiv.micro_b_bessel, dict(s=2, c=1.0), dict(s=1)),
    (cuederiv.cue_limit, dict(s=2, regime="microscopic", c=1.0), dict(s=1)),
    (cuederiv.estimate_moment, dict(N=6, s=1.0, z=0.3, samples=20, seed=1, threads=1),
     _MC_MINIMA),
    (cuederiv.estimate_joint_moment,
     dict(N=6, s=1.0, h=1.0, z1=0.3, z2=0.5j, samples=20, seed=1, threads=1), _MC_MINIMA),
    (cuederiv.mean_zero_counts, dict(N=6, radii=[0.5], samples=20, seed=1, threads=1),
     _MC_MINIMA),
    (cuederiv.divisor_table, dict(s=2, n_max=50), dict(s=1, n_max=1)),
    (cuederiv.log_convolution_table, dict(s=2, n_max=50), dict(s=1, n_max=1)),
    (cuederiv.deriv_moment_series, dict(s=2, sigma=0.8, n_max=50), dict(s=1, n_max=3)),
    (cuederiv.lindelof_series, dict(s=2, sigma=0.8, n_max=50), dict(s=1, n_max=3)),
    (cuederiv.arithmetic_factor, dict(s=2.0, p_max=1000), dict(p_max=100)),
    (cuederiv.conjecture_rhs, dict(s=2.0, sigma=0.8, p_max=1000), dict(p_max=100)),
    (cuederiv.exp_moment, dict(k=3, c=1.5), dict(k=0)),
    (cuederiv.zeta_real, dict(w=2.0, order=1), dict(order=0)),
]


def _size_cases(kinds):
    for func, kwargs, minima in _SIZED:
        for name, minimum in minima.items():
            for kind, make in kinds.items():
                value = make(kwargs[name], minimum)
                yield pytest.param(func, kwargs, name, value, id=f"{func.__name__}-{name}-{kind}")


def _bits(value):
    """A result's types and bits: float.hex for a float, raw bytes for an array."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("func, kwargs, name, value", _size_cases({
    "whole-float": lambda good, _: float(good),
    "numpy-int": lambda good, _: np.int64(good),
    "whole-fraction": lambda good, _: Fraction(good),
}))
def test_whole_number_size_gives_the_int_result(func, kwargs, name, value):
    # a whole-number float was a bare TypeError at all but two of these
    assert _bits(func(**{**kwargs, name: value})) == _bits(func(**kwargs))


@pytest.mark.parametrize("func, kwargs, name, value", _size_cases({
    "fractional": lambda good, _: good + 0.5,
    "below-minimum": lambda _, minimum: minimum - 1,
    "nan": lambda good, _: math.nan,
    "true": lambda *_: True,
    "false": lambda *_: False,
    "numpy-true": lambda *_: np.True_,
}))
def test_bad_size_is_refused_by_name(func, kwargs, name, value):
    with pytest.raises(ValueError, match=rf"\b{name} = {re.escape(str(value))}$"):
        func(**{**kwargs, name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, "2", 2 + 0j, None, Fraction(3, 2),
                                   True, np.True_])
def test_size_refuses_what_is_not_a_whole_number(value):
    with pytest.raises(ValueError, match=r"requires a whole number n >= 1, got n = "):
        _size("n", value)
