"""Exception hierarchy for the operator lab."""


class IsolabError(Exception):
    """Base class for all errors raised by this package."""


class AllVectorsNegligible(IsolabError):
    """Every input vector was dropped as numerically dependent."""


class CapacityExceeded(IsolabError):
    """The ambient space ran out of coordinates."""


class DomainMismatch(IsolabError):
    """A vector was fed to an operator whose domain does not contain it."""


class NotExpansive(IsolabError):
    """An operator expected to satisfy ||Tx|| >= ||x|| fails to."""


class NotNilpotent(IsolabError):
    """A matrix expected to square to zero does not."""


class OddDimension(IsolabError):
    """An even dimension is required."""


class InvalidFamilyParameter(IsolabError):
    """A prescribed singular value or family parameter is out of range."""


class SubspaceNotContained(IsolabError):
    """The evaluation subspace is not contained in the construction subspace."""


class UsageError(IsolabError):
    """Bad command line, config file or input operator file."""
