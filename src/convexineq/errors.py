"""Exception hierarchy.

Everything raised deliberately by this package derives from
:class:`ConvexIneqError`, so callers can catch one type at the CLI boundary.
Subclasses mark which contract was violated, not which module raised them.
"""

from __future__ import annotations


class ConvexIneqError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ConvexIneqError):
    """Operands live in different ambient dimensions."""


class DegenerateBodyError(ConvexIneqError):
    """A body parameter is degenerate: empty interior, zero scale, singular map."""


class UnboundedBodyError(ConvexIneqError):
    """A polyhedron admits a recession direction."""


class QuadratureUnsupportedError(ConvexIneqError):
    """No deterministic quadrature rule exists for this body variant."""


class SamplingError(ConvexIneqError):
    """A sampler received an invalid request or produced invalid points."""


class ChainStuckError(SamplingError):
    """A Markov chain found numerically zero-length chords repeatedly."""


class NotNormalizedError(ConvexIneqError):
    """A discrete measure is malformed: weights that do not sum to one, or a
    support point or weight that is not finite."""


class SolverError(ConvexIneqError):
    """An optimization backend failed to converge or returned garbage."""


class FunctionalDomainError(ConvexIneqError):
    """A functional was evaluated outside its domain of validity."""


class ContainmentError(ConvexIneqError):
    """A claimed inclusion between bodies failed a membership certificate."""


class ManifestError(ConvexIneqError):
    """An experiment manifest failed schema validation."""
