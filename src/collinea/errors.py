"""Exception types shared by all collinea modules."""


class CollineaError(Exception):
    """Base class for all toolkit errors."""


class NotPrimePower(CollineaError):
    pass


class DivisionByZero(CollineaError, ZeroDivisionError):
    pass


class NoSuchLine(CollineaError, IndexError):
    pass


class NotAPlane(CollineaError):
    pass


class ParseError(CollineaError):
    pass


class DuplicatePoint(CollineaError):
    pass


class EvenCharacteristic(CollineaError):
    pass


class FieldTooSmall(CollineaError):
    pass


class DegenerateParams(CollineaError):
    pass


class PointNotInSet(CollineaError):
    pass


class NoConic(CollineaError):
    pass


class Ambiguous(CollineaError):
    pass


class CertificateFailure(CollineaError):
    """Raised by certificate construction; `check` names the first failed test."""

    def __init__(self, check, message=""):
        self.check = check
        super().__init__(f"{check}: {message}" if message else check)


class NodeLimitExceeded(CollineaError):
    pass


class ClassesNotDistinct(CollineaError):
    pass


class OrderMismatch(CollineaError):
    pass


class IncompleteSet(CollineaError):
    pass


class NotOrthogonal(CollineaError):
    pass


class UsageError(CollineaError):
    pass
