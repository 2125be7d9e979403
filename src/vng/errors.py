"""Exception types shared across the package.

Every error raised by the library derives from :class:`VngError` so callers
can catch the whole family at once.  The CLI maps a subset of these onto its
exit-code contract.
"""

from __future__ import annotations


class VngError(Exception):
    """Base class for all library errors."""


# --- scenario tree -----------------------------------------------------------

class CycleOrForest(VngError):
    """Parent structure is not a single rooted tree."""


class BadProbability(VngError):
    """Child probabilities do not sum to 1, or a probability is not in (0, 1]."""


class RaggedDepth(VngError):
    """A leaf sits at a depth other than the horizon."""


class UnknownNode(VngError):
    """Node id or index not present in the tree."""


class DepthMismatch(VngError):
    """Adapted data supplied at the wrong depth."""


# --- market model ------------------------------------------------------------

class NonpositivePrice(VngError):
    """A price (or derived return) is not strictly positive."""


class DimensionMismatch(VngError):
    """Vector length does not match the market's asset count."""


class MarginTooTight(VngError):
    """Condition (B2) fails: some margin does not exceed its nu bound."""


class NotInCone(VngError):
    """A vector fails the required cone membership test."""


class PreconditionViolated(VngError):
    """Input sequence violates the documented preconditions."""


class LPFailure(VngError):
    """The verification LP broke down; no certificate can be issued."""


# --- solver ------------------------------------------------------------------

class InfeasibleStart(VngError):
    """Initial portfolio is not strictly interior to the date-0 cone."""


class NonConvergence(VngError):
    """Solver hit its iteration cap with residuals above tolerance."""


# --- certification -----------------------------------------------------------

class NotCertified(VngError):
    """Refusing to extract a dual path from a non-converged solution."""


class ShapeMismatch(VngError):
    """Dual path or competitor path has inconsistent shapes."""


class ZeroDenominator(VngError):
    """Normalizing inner product is zero or negative."""


class NonpositiveDenominator(VngError):
    """Competitor path violates the positivity proviso of the growth ratio."""


# --- cli ----------------------------------------------------------------------

class ParseError(VngError):
    """An input file failed to parse or validate, or an output file cannot be written."""


class DigestMismatch(VngError):
    """Solution file does not belong to the given problem file and options."""
