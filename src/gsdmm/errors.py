"""Exception types shared across the package."""

__all__ = [
    "GsdmmError", "DuplicateDocId", "AllDocumentsEmpty", "MalformedRecord",
    "InactiveCluster", "NonFiniteScore", "KMaxExceedsCorpus", "KRealOutOfRange",
    "EmptyCluster", "ZeroNorm", "LengthMismatch", "TooManyClusters",
    "InstanceTooLarge", "NonPositiveArgument", "ConfigError",
]


class GsdmmError(Exception):
    """Base class for all package errors."""


class DuplicateDocId(GsdmmError):
    pass


class AllDocumentsEmpty(GsdmmError):
    pass


class MalformedRecord(GsdmmError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InactiveCluster(GsdmmError):
    pass


class NonFiniteScore(GsdmmError):
    pass


class KMaxExceedsCorpus(GsdmmError):
    pass


class KRealOutOfRange(GsdmmError):
    pass


class EmptyCluster(GsdmmError):
    pass


class ZeroNorm(GsdmmError):
    pass


class LengthMismatch(GsdmmError):
    pass


class TooManyClusters(GsdmmError):
    pass


class InstanceTooLarge(GsdmmError):
    pass


class NonPositiveArgument(GsdmmError):
    pass


class ConfigError(GsdmmError):
    pass
