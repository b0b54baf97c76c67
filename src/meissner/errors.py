"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MeissnerError",
    "GeometryError",
    "NoIntersection",
    "ValidationError",
    "ArgumentError",
    "DiameterViolation",
    "NotExtremal",
    "CoincidentPoints",
    "WrongPairCount",
    "FaceCycleError",
    "TooManyPairs",
    "EmptySystem",
    "ParseError",
    "ValidationMismatch",
    "InfeasibleStart",
]


class MeissnerError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(MeissnerError):
    """A geometric quantity left its admissible range beyond tolerance."""


class NoIntersection(GeometryError):
    """The balls of a system have no common point."""


class ValidationError(MeissnerError):
    """Input data failed validation.  The CLI maps this family to exit code 2."""


class ArgumentError(ValidationError, ValueError):
    """A function argument is outside its documented range or shape."""


class DiameterViolation(ValidationError):
    """A pairwise distance or chord exceeds one beyond tolerance."""


class NotExtremal(ValidationError):
    """The number of unit-distance pairs differs from 2m - 2."""


class CoincidentPoints(ValidationError):
    """Two points of a vertex set lie within the tolerance of each other."""


class WrongPairCount(ValidationError):
    """Dual edge pair enumeration did not produce exactly m - 1 pairs."""


class FaceCycleError(ValidationError):
    """The neighbors of a vertex admit no unambiguous cyclic order."""


class TooManyPairs(ValidationError):
    """Exhaustive smoothing enumeration was requested for too many pairs."""


class EmptySystem(ArgumentError):
    """A ball system needs at least one point center."""


class ParseError(ValidationError):
    """Text the CLI parses is malformed: a vertex file, MEISSNER_TOL, --smoothing or the gen spec."""


class ValidationMismatch(ValidationError):
    """Edges declared in a vertex file disagree with the computed graph."""


class InfeasibleStart(ValidationError):
    """An optimization start violates the distance constraints too strongly."""
