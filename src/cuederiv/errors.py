"""Package-wide exception types."""


class CapabilityError(Exception):
    """A request exceeds a documented size/precision limit of the library."""
