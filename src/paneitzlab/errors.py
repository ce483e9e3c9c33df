"""Exception hierarchy shared across the lab.

The CLI maps these onto exit codes: spec/validation/gate problems exit 2,
eigensolver breakdowns exit 3.  A violated bound is a *finding*, not an
exception, and is reported through :class:`~paneitzlab.bounds.BoundReport`.
"""

from __future__ import annotations


class PaneitzLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(PaneitzLabError):
    """Operator coefficients or a bound were requested outside their dimension range."""


class DegenerateImmersionError(PaneitzLabError):
    """The pulled-back metric dropped rank (det g below threshold) somewhere."""

    def __init__(self, message: str, where=None, det=None):
        super().__init__(message)
        self.where = where
        self.det = det

    @classmethod
    def at(cls, where, det: float) -> "DegenerateImmersionError":
        """The error for a first degenerate point: its index and det g there."""
        return cls(f"immersion is degenerate: det g = {det:.3e} at index {where}",
                   where=where, det=det)


class GateError(PaneitzLabError):
    """A bound's hypotheses (ambient, eigenvalue count, positivity) are not met."""


class PositivityError(GateError):
    """The bottom eigenvalue is not strictly positive where the bound requires it."""


class AmbiguityError(PaneitzLabError):
    """Two distinct spectral lines tie for the bottom of the spectrum."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


class SolverFailureError(PaneitzLabError):
    """The iterative eigensolver did not reach the requested residual tolerance."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class SpecFileError(PaneitzLabError):
    """A manifold spec file failed to parse or validate."""

    def __init__(self, message: str, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
