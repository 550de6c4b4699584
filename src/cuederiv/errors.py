"""Package-wide exception types and the one check on integer arguments."""


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
