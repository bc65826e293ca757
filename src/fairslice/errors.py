"""Exception types shared across the package."""


class FairsliceError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FairsliceError):
    """An argument lies outside its mathematical domain (e.g. x not in [0,1])."""


class DegenerateDensityError(FairsliceError):
    """A density has zero total measure or an empty/zero-width support element."""


class NotFullSupportError(FairsliceError):
    """A density is negative or vanishes on a set of positive measure."""


class OrderingError(FairsliceError):
    """An interval instance violates the ordering property (nested intervals)."""


class UnsupportedFamilyError(FairsliceError):
    """A density family is not supported by the requested operation."""


class ParameterRegimeError(FairsliceError):
    """Input parameters fall outside the regime an algorithm's guarantee covers."""


class InvalidDivisionError(FairsliceError):
    """A division has overlapping pieces or pieces outside the cake."""


class UnsupportedSizeError(FairsliceError):
    """A brute-force grid oracle was asked for a grid over 2000 cells or an unknown objective."""


class SearchFailedError(FairsliceError):
    """An internal search ran out of float resolution or of an explicit iteration budget."""
