"""Shared exception types, and the check that a coefficient is exact."""

from fractions import Fraction


def check_coefficient(v):
    """v itself when it is an int or a Fraction; TypeError for anything else."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"coefficient {v!r} is not an int or a Fraction")
    return v


class OutOfWindowError(Exception):
    """An index needed by an evaluation lies outside the active window."""


class BoundaryError(Exception):
    """A derivation needs a cell or index beyond the window edge."""


class NotACocycleError(Exception):
    """Input fails the cocycle condition; carries the first violated tuple and,
    when a Jacobi defect report found it, that report."""

    def __init__(self, tuple_, detail="", report=None):
        self.tuple = tuple_
        self.report = report
        super().__init__(f"cocycle condition violated at {tuple_}{': ' + detail if detail else ''}")


class ContradictionError(Exception):
    """Two derivations assign inconsistent values, or a system forces 0 = c != 0."""


class FormatError(Exception):
    """Malformed text document (structure constants, cochain, deformation)."""


class ConfigError(Exception):
    """Inconsistent run configuration (window/margin bounds and the like)."""
