"""The four rules that check the package's arguments.

``count`` checks an integer size, ``real`` a real number within bounds,
``finite_array`` an array of a given shape (its first step, ``float_array``,
only converts) and ``seed_sequence`` a seed.
Whatever fails raises a PorcupineError: DomainError for a non-finite value,
ParameterOutOfRange for a value out of range, DimensionMismatch for a wrong
shape.  Each rule costs O(1) for a number and one pass for an array.
"""
from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, DomainError, ParameterOutOfRange


def count(value, name: str, minimum: int = 1, *, error=None) -> int:
    """``value`` as an ``int`` of at least ``minimum``; it must be an
    Integral, not a bool.  A non-finite real raises DomainError, anything
    else that fails ParameterOutOfRange, unless ``error`` names the class
    to raise for every failure."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        if value >= minimum:
            return int(value)
        raise (error or ParameterOutOfRange)("need %s >= %d, got %d" % (name, minimum, value))
    if isinstance(value, Real) and not math.isfinite(value):
        raise (error or DomainError)("%s must be finite, got %r" % (name, value))
    raise (error or ParameterOutOfRange)("%s must be an integer, got %r" % (name, value))


def real(value, name: str, low: float = -math.inf, high: float = math.inf, *,
         open_low: bool = False, error=None) -> float:
    """``value`` as a finite ``float`` in ``[low, high]``, or ``(low, high]``
    with ``open_low``.  A non-finite value raises DomainError and any other
    failure ParameterOutOfRange, unless ``error`` names the class to raise
    for every failure."""
    if not isinstance(value, Real):
        failure, want = ParameterOutOfRange, "a real number"
    elif not math.isfinite(value):
        failure, want = DomainError, "finite"
    elif (low < value if open_low else low <= value) and value <= high:
        return float(value)
    else:
        failure, want = ParameterOutOfRange, "in %s%g, %g]" % ("(" if open_low else "[", low, high)
    raise (error or failure)("%s must be %s, got %r" % (name, want, value))


def float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; what numpy cannot convert (a ragged
    nested list, a string) raises DimensionMismatch.  The first step of
    ``finite_array``, alone for a caller that checks the rest itself."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch("%s must be a numeric array" % name) from None


def finite_array(values, name: str, shape: tuple) -> np.ndarray:
    """``values`` as a float array of ``shape``, in which a None entry
    matches any size: another shape raises DimensionMismatch, a non-finite
    entry DomainError."""
    arr = float_array(values, name)
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise DimensionMismatch("%s must have shape %s, got %s" % (name, shape, arr.shape))
    if not np.isfinite(arr).all():
        raise DomainError("%s must be finite" % name)
    return arr


def seed_sequence(value, name: str) -> np.random.SeedSequence:
    """``value`` as a SeedSequence: one is returned as it is, and an integer
    of at least 0 (not a bool), or a non-empty tuple or list of them, is
    checked part by part with ``count``.  The result draws what numpy
    draws from ``value``."""
    if isinstance(value, np.random.SeedSequence):
        return value
    parts = value if isinstance(value, (tuple, list)) else [value]
    if not parts:
        raise ParameterOutOfRange("%s must not be empty" % name)
    return np.random.SeedSequence([count(part, name, 0) for part in parts])
