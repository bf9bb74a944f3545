"""Exception hierarchy shared by all modules."""


class PDivError(Exception):
    """Base class for all library errors."""


class ZeroVector(PDivError):
    pass


class NotSurjective(PDivError):
    pass


class NotSplit(PDivError):
    pass


class NotPointed(PDivError):
    pass


class AmbientMismatch(PDivError):
    pass


class NotConcave(PDivError):
    pass


class NoDegreeMap(PDivError):
    pass


class UnsupportedBase(PDivError):
    pass


class ZeroFunction(PDivError):
    pass


class TooManySections(PDivError):
    pass


class NegativePoleBound(PDivError):
    pass


class NonIntegral(PDivError):
    pass


class WeightOutsideCone(PDivError):
    pass


class WeightOutsideBox(PDivError):
    pass


class EmptyCoefficient(PDivError):
    pass


class EmptyDomain(PDivError):
    pass


class IndeterminateBaseMap(PDivError):
    pass


class NotContractionFree(PDivError):
    pass


class NotQCartier(PDivError):
    def __init__(self, cell, message=""):
        self.cell = cell
        super().__init__(message or f"no affine extension on cell {cell!r}")


class BoxNotFullDimensional(PDivError):
    pass


class MarksMissingSupport(PDivError):
    pass


class NotProper(PDivError):
    pass


class TorsionCokernel(PDivError):
    pass


class FormsDisagree(PDivError):
    pass


class SumMismatch(PDivError):
    pass


class NotAdmissible(PDivError):
    pass


class RoutesDisagree(PDivError):
    pass


class SchemaError(PDivError):
    pass


class VersionMismatch(PDivError):
    pass
