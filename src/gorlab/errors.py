"""Exception hierarchy shared by all gorlab components."""


class GorlabError(Exception):
    """Base class for all gorlab errors."""


class NotPrime(GorlabError):
    pass


class NotSymmetric(GorlabError):
    pass


class Degenerate(GorlabError):
    pass


class EmbeddingDimTooSmall(GorlabError):
    pass


class RingMismatch(GorlabError):
    pass


class NotCommutative(GorlabError):
    pass


class NotAssociative(GorlabError):
    pass


class CubeNotZero(GorlabError):
    pass


class SocleRankNot1(GorlabError):
    pass


class UnitIdeal(GorlabError):
    pass


class GeneratorInRadical(GorlabError):
    pass


class RadicalSquareNonzero(GorlabError):
    pass


class InsufficientDegree(GorlabError):
    """Raised when a coefficient sequence has no recurrence tail with the
    required margin.  Carries the largest recurrence-violating index."""

    def __init__(self, message, violating_index=None):
        super().__init__(message)
        self.violating_index = violating_index


class ConfigError(GorlabError):
    pass


class SchemaError(GorlabError):
    """Malformed input file.  ``pointer`` is a JSON-pointer to the offending
    location."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class NotMaterialized(GorlabError):
    """Requested resolution data beyond the materialized window."""


class CertificateError(GorlabError):
    """An internal consistency check behind a served value failed: a tail
    certificate, a minimality guard, a lift that must exist, a homology
    length that must be nonnegative or the Ext/Tor duality.  Raised
    instead of serving a number that the check could not vouch for."""
