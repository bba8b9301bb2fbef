"""Exception hierarchy.

Every domain error derives from :class:`PhdError` and carries the CLI exit
code of its class: 2 usage, 3 data, 4 numeric degeneracy.  The usage checks
share one integer rule, :func:`is_integer`, and one real-number rule,
:func:`as_real` for a scalar and :func:`as_real_array` for an array, each
applied once, where the argument enters.  Beside them stands one ownership
rule, :func:`owned`: every array a result type stores is a read-only copy
that shares no memory with the caller's, made by each type at construction
(:func:`own_arrays` is the ``__post_init__`` of the types that check
nothing else), so ``dataclasses.replace`` keeps the rule too.

One error rule, with no exceptions: a check on a caller's argument raises a
class of this module, never a bare ValueError, TypeError or IndexError,
which carry no exit code.  A value outside its domain (a variant name, a
shape, a grid, a value that is not finite) raises :class:`InvalidArgument`,
a ValueError with exit code 2; every class with exit code 2 is an
InvalidArgument (:class:`InvalidRank`, the rank's own name in the CLI's
error record, is its one subclass).
"""

from __future__ import annotations

import dataclasses
import numbers


def is_integer(value) -> bool:
    """The integer rule of every size, rank, seed and index argument: a
    ``numbers.Integral`` that is not a bool (True is not taken for 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_real(value, name: str) -> float:
    """The real-number rule of every scalar parameter: a ``numbers.Real`` or a
    0-d array of a bool, integer or float dtype (a numeric string is
    neither), returned as a float; InvalidArgument otherwise."""
    if not isinstance(value, numbers.Real):
        import numpy as np  # lazily: the package itself loads no numpy

        if not (isinstance(value, np.ndarray) and value.ndim == 0
                and value.dtype.kind in "biuf"):
            raise InvalidArgument(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_real_array(value, name: str):
    """The real-number rule of every array parameter: numbers of a bool,
    integer or float dtype (not strings, objects or ragged rows), returned as
    a read-only float64 copy (:func:`owned`); InvalidArgument otherwise."""
    import numpy as np

    try:
        array = np.asarray(value)
    except ValueError:  # ragged rows
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise InvalidArgument(f"{name} must hold real numbers, got {value!r}")
    return owned(array, float)


def owned(value, dtype=None):
    """The ownership rule of every array a result type stores: a read-only
    copy of ``value`` in its memory order, of its dtype unless ``dtype`` is
    given, sharing no memory with it, so neither the caller nor the holder
    can change what the other reads."""
    import numpy as np

    array = np.array(value, dtype=dtype, order="K")
    array.setflags(write=False)
    return array


def own_arrays(result) -> None:
    """The ``__post_init__`` of a frozen result type: every field annotated
    ``np.ndarray`` is replaced by its :func:`owned` copy, whether the value
    came from a builder, a caller or ``dataclasses.replace``."""
    for f in dataclasses.fields(result):
        if f.type == "np.ndarray":
            object.__setattr__(result, f.name, owned(getattr(result, f.name)))


class PhdError(Exception):
    exit_code = 1


# -- usage -------------------------------------------------------------

class InvalidArgument(PhdError, ValueError):
    """A parameter outside its domain (a size, a scale, a vector's shape, a
    variant name).  Also a ValueError, the type such checks raise in plain
    Python, so ``except ValueError`` still catches it.  ``row``,
    where given, is the first offending row of an array argument."""

    exit_code = 2

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InvalidRank(InvalidArgument):
    """A reduction rank k outside its domain; its own name, which the CLI
    prints, for the one argument every fit and report takes."""


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
