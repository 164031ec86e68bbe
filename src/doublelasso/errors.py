"""Exception types raised across the package.

Plain invalid arguments raise ValueError; everything domain-specific derives
from DoubleLassoError so callers (and the CLI) can map failures to exit codes.
Every class pickles to an equal type and message, so an error raised in a
worker process reaches the caller unchanged.
"""

from __future__ import annotations


class DoubleLassoError(Exception):
    """Base class for all package-specific failures."""


class ParseError(DoubleLassoError):
    """Raw table could not be parsed; message carries the 1-based row index."""


class SchemaError(DoubleLassoError):
    """A spec document is malformed or references absent columns."""


class EncodingError(DoubleLassoError):
    """A data value cannot be encoded under the active spec."""


class EmptyDatasetError(DoubleLassoError):
    """Every row was dropped; nothing left to encode or fit."""


class RankDeficiencyError(DoubleLassoError):
    """A design or Gram matrix is numerically rank deficient."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        cols = ", ".join(str(c) for c in self.columns)
        super().__init__(f"rank-deficient design; offending columns: {cols}")

    def __reduce__(self):
        return type(self), (self.columns,)


class DegenerateTreatmentError(DoubleLassoError):
    """The treatment column is constant."""


class DegenerateOutcomeError(DoubleLassoError):
    """The outcome column is constant."""


class WeakInstrumentError(DoubleLassoError):
    """Residualized treatment carries essentially no variation."""

    def __init__(self, mean_z2: float):
        self.mean_z2 = float(mean_z2)
        super().__init__(
            "treatment is (numerically) perfectly explained by the controls; "
            f"mean squared instrument = {self.mean_z2:.3e}"
        )

    def __reduce__(self):
        return type(self), (self.mean_z2,)


class DegenerateMomentError(DoubleLassoError):
    """A moment denominator collapsed to zero."""
