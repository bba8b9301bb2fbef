"""Exception hierarchy.

Every domain error derives from :class:`PhdError` and carries the CLI exit
code of its class: 2 usage, 3 data, 4 numeric degeneracy.  The usage checks
share one integer rule, :func:`is_integer`.
"""

from __future__ import annotations

import numbers


def is_integer(value) -> bool:
    """The integer rule of every size, rank, seed and index argument: a
    ``numbers.Integral`` that is not a bool (True is not taken for 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class PhdError(Exception):
    exit_code = 1


# -- usage -------------------------------------------------------------

class InvalidArgument(PhdError, ValueError):
    """A parameter outside its domain (a size, a scale, a vector's shape).
    Also a ValueError, the type such checks raise in plain Python.  ``row``,
    where given, is the first offending row of an array argument."""

    exit_code = 2

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InvalidRank(PhdError):
    exit_code = 2


class InvalidEpsilon(PhdError):
    exit_code = 2


# -- data --------------------------------------------------------------

class InsufficientData(PhdError):
    exit_code = 3


class MissingColumn(PhdError):
    exit_code = 3


class TooFewRows(PhdError):
    exit_code = 3


class DuplicateColumn(PhdError):
    exit_code = 3


class NonNumericCell(PhdError):
    exit_code = 3

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


# -- numeric degeneracy ------------------------------------------------

class InvalidMatrix(PhdError):
    exit_code = 4


class NotPositiveDefinite(PhdError):
    exit_code = 4

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateLeverage(PhdError):
    exit_code = 4

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateSpectrum(PhdError):
    exit_code = 4


class DegenerateEigenvalue(PhdError):
    exit_code = 4


class AmbiguousMatch(PhdError):
    exit_code = 4


class UndefinedCorrelation(PhdError):
    exit_code = 4


class UnsupportedModel(PhdError):
    exit_code = 4
