"""Exception hierarchy shared across the package, and the checks of its inputs.

The CLI maps these onto process exit codes: parameter/validation problems
exit 2, malformed data files exit 3, and numeric degeneracies exit 4.  The
checks of counts, ids, ±1 signs and probabilities return what they accept
as int, int64 or float64 (an array of that dtype without a copy), and an
int8 array of signs as it is.  A whole float such as 3.0 passes; a
boolean, a fraction or a NaN fails them, and so does a count beyond the
float range.  A column tied to a graph holds one value per edge, task or
worker: any other shape, 2-D included, fails ``check_length``.
"""
from __future__ import annotations

import numbers

import numpy as np


class CrowdBPError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CrowdBPError, ValueError):
    """An argument or configuration value is invalid."""


class SizeError(ParameterError):
    """An input exceeds an enumeration or safety guard."""


class DataFormatError(CrowdBPError, ValueError):
    """A dataset file is malformed."""


class NumericDegeneracyError(CrowdBPError, ArithmeticError):
    """A message, belief, or posterior lost all probability mass."""


def check_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int of at least ``minimum``."""
    try:
        whole = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                 and float(value).is_integer())
    except OverflowError:
        raise ParameterError(f"{name} must be an integer >= {minimum} within the float "
                             "range") from None
    if not whole or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def check_budget(k_max, tol) -> int:
    """An iterative decoder's sweep budget ``k_max`` as an int, with ``tol`` >= 0."""
    k_max = check_count(k_max, "k_max", 1)
    if not tol >= 0:
        raise ParameterError("tol must be non-negative")
    return k_max


def check_ids(values, n: int, name: str) -> np.ndarray:
    """``values`` as int64 ids in [0, n)."""
    return _checked(values, np.int64, f"{name}: expected integers in [0, {n})",
                    lambda ids: ids.min() >= 0 and ids.max() < n)


def check_signs(values, name: str) -> np.ndarray:
    """``values`` as signs, each -1 or +1: an int8 array as it is, else as int64."""
    values = np.asarray(values)
    return _checked(values, np.int8 if values.dtype == np.int8 else np.int64,
                    f"{name} must be -1 or +1",
                    lambda signs: ((signs == 1) | (signs == -1)).all())


def check_probabilities(values, name: str) -> np.ndarray:
    """``values`` as float64 probabilities in [0, 1]."""
    # min and max carry a NaN through, so that it fails the comparison.
    return _checked(values, np.float64, f"{name} must lie in [0, 1]",
                    lambda p: p.min() >= 0.0 and p.max() <= 1.0)


def check_length(shape: tuple, n: int, what: str, node: str) -> None:
    """Raise ``ParameterError`` unless a column of ``shape`` holds one value per node."""
    if shape != (n,):
        raise ParameterError(f"{what} must hold one value per {node}, {n} in all; "
                             f"got shape {shape}")


def _checked(values, dtype, message: str, valid) -> np.ndarray:
    """Numeric ``values`` as ``dtype`` if the conversion changes none and ``valid`` holds."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ParameterError(message)
    with np.errstate(invalid="ignore"):
        converted = array.astype(dtype, copy=False)
    if (converted is not array and not np.array_equal(converted, array)
            or converted.size and not valid(converted)):
        raise ParameterError(message)
    return converted
