"""Package-wide exception types and the checks on numeric arguments."""

import math
import numbers


class CapabilityError(Exception):
    """A request exceeds a documented size/precision limit of the library."""


def _size(name: str, value, minimum: int = 1) -> int:
    """`value`, a finite whole number (int, numpy int, 2.0, Fraction(2)) of at
    least `minimum`, as an int; anything else, a bool too, is a ValueError
    naming `name`."""
    try:  # numpy's bool is named bool (bool_ before numpy 2): refused without loading numpy
        whole = type(value).__name__ not in ("bool", "bool_") and int(value) == value
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        whole = False
    if not whole:
        raise ValueError(f"requires a whole number {name} >= {minimum}, got {name} = {value}")
    if value < minimum:
        raise ValueError(f"requires {name} >= {minimum}, got {name} = {value}")
    return int(value)


def _real(name: str, value, low=-math.inf, high=math.inf, closed: bool = False):
    """`value`, a finite real (int, float, numpy number, Fraction) in (low, high),
    or in [low, high) if `closed`, returned unchanged, so a Fraction stays exact;
    anything else, a bool, str, None or complex too, is a ValueError naming
    `name`.  numpy's bool is not a `numbers.Real`, so it needs no numpy."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        shown = repr(value) if isinstance(value, str) else value
        raise ValueError(f"requires a real number {name}, got {name} = {shown}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"requires finite {name}, got {name} = {value}")
    if not (low <= value if closed else low < value) or not value < high:
        bound = (f"{name} {'>=' if closed else '>'} {low}" if high == math.inf
                 else f"{low} {'<=' if closed else '<'} {name} < {high}")
        raise ValueError(f"requires {bound}, got {name} = {value}")
    return value


def _complex(name: str, value) -> complex:
    """`value`, a finite complex number (a real one too), as a complex; a bool,
    str or None is a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        shown = repr(value) if isinstance(value, str) else value
        raise ValueError(f"requires a complex number {name}, got {name} = {shown}")
    point = complex(value)
    if not (math.isfinite(point.real) and math.isfinite(point.imag)):
        raise ValueError(f"requires finite {name}, got {name} = {value}")
    return point
