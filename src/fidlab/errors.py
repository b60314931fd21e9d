# src/fidlab/errors.py

from __future__ import annotations


class FidlabError(Exception):
    """Base class for all errors raised by this package."""


class NotPsd(FidlabError):
    """An operator expected to be positive semidefinite has a negative eigenvalue or a non-finite entry."""


class NotPositiveDefinite(FidlabError):
    """An operator expected to be strictly positive definite is singular."""


class DimensionMismatch(FidlabError):
    """Operands have incompatible dimensions."""


class SingularPair(FidlabError):
    """A Lyapunov equation has no solution for the given right-hand side."""


class NoConvergence(FidlabError):
    """An iterative scheme missed its tolerance within its cap: positive_fixed_point's
    max_iter steps, or polar_min's _BRACKET_MAX_EVALS eigenvalue evaluations."""


class InvalidPovm(FidlabError):
    """POVM elements fail positivity or do not sum to the identity."""


class InvalidState(FidlabError):
    """A density operator fails positivity or unit trace."""


class NegativeEntry(FidlabError):
    """A weight vector contains a negative or non-finite entry."""


class LengthMismatch(FidlabError):
    """Classical weight vectors have different lengths."""


class SOutOfRange(FidlabError):
    """Extreme-point parameter s lies outside [-2, 2]."""


class DegenerateZ(FidlabError):
    """The quartic-root routine was called with z = 0; use the f1 branch."""


class RootAmbiguity(FidlabError):
    """Quartic root filtering did not isolate exactly one admissible root."""


class DegenerateFrame(FidlabError):
    """Frame parameter l vanishes, or l, m or 2 l^2 is not finite."""


class DecompositionInfeasible(FidlabError):
    """The explicit POVM decomposition misses L_k: p lies above the polar."""


class UnknownSuite(FidlabError):
    """Verification suite name is not recognized."""


class ParseError(FidlabError):
    """A matrix file could not be parsed."""
