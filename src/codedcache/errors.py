"""Exception hierarchy shared by all codedcache modules.

Every condition that callers are expected to catch gets its own class so the
CLI can map failures to exit codes without string matching.
"""


class CodedCacheError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- arithmetic


class DomainError(CodedCacheError):
    """A scalar domain could not be constructed as requested."""


class NotAUnit(CodedCacheError):
    """Inversion was requested for a non-invertible element."""


class RingNotSupported(CodedCacheError):
    """The operation is defined over fields only."""


class DimensionMismatch(CodedCacheError):
    """Matrix shapes are incompatible for the requested operation."""


# --------------------------------------------------------------------- codes


class ZeroColumn(CodedCacheError):
    """A generator matrix over a field has an all-zero column."""


class RingConditionViolated(CodedCacheError):
    """A generator column over Z mod q fails the unit-content condition,
    so the induced block sizes would be unequal."""


class InvalidAlpha(CodedCacheError):
    """alpha outside the valid range 1..k+1."""


class NotCyclic(CodedCacheError):
    """The shortcut check applies to cyclic-code generator matrices only."""


class FieldTooSmall(CodedCacheError):
    """The field does not have enough elements for the construction."""


class NotMonic(CodedCacheError):
    """A generator polynomial must be monic."""


class ZeroConstantTerm(CodedCacheError):
    """A generator polynomial must have a nonzero constant term."""


class NotADivisor(CodedCacheError):
    """The generator polynomial does not divide X^n - 1."""


class BaseNotCcp(CodedCacheError):
    """The base matrix of a derived construction fails its required
    consecutive-column property."""


class ShapeMismatch(CodedCacheError):
    """Construction parameters are structurally inconsistent."""


class ModuliNotCoprimePrimes(CodedCacheError):
    """Component moduli must be distinct primes."""


class ComponentInvalid(CodedCacheError):
    """A component cyclic code of a residue construction is invalid."""


# ------------------------------------------------------------------- caching


class IncompleteDemands(CodedCacheError):
    """A demand vector does not assign a file to every user."""


class DecodeFailure(CodedCacheError):
    """An equation references a subfile its designated recipient cannot
    cancel; indicates a malformed delivery plan."""


class Lemma4Violated(CodedCacheError):
    """An equation-subfile matrix fails the validity conditions required to
    reinterpret it as a caching scheme."""


# ------------------------------------------------------------------ analysis


class NonIntegralCachePoint(CodedCacheError):
    """K * M/N must be an integer for the uncoded-prefetch baseline."""


class NoSolutionInRange(CodedCacheError):
    """The target point lies outside the memory-sharing region."""


class NoFeasibleK(CodedCacheError):
    """No constructible dimension fits the subpacketization budget."""


# ----------------------------------------------------------------- interface


class SchemeFileError(CodedCacheError):
    """A scheme file is malformed or has an unsupported version."""


class TooLarge(CodedCacheError):
    """A command would materialize more codewords or equations than the
    size cap allows."""
