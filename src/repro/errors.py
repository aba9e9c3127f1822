"""Exception types for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError):
    """An array or matrix has an incompatible shape."""


class FormatError(ReproError):
    """A sparse matrix is malformed (bad indptr, unsorted indices, ...)."""


class ConfigError(ReproError):
    """An algorithm knob received an unknown or malformed value."""


class FactorError(ReproError):
    """A [0,n]-factor violates its invariants."""


class ScanError(ReproError):
    """The bidirectional scan was invoked on invalid input."""


class PathError(ReproError):
    """Path ids/positions do not describe a linear forest (a path id that is
    not a vertex id, or a path whose positions are not ``1..len``)."""


class SolverError(ReproError):
    """An iterative or direct solver failed (breakdown, singular pivot, ...)."""

