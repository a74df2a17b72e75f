"""Exception types shared across the package."""


class EquipureError(Exception):
    pass


class UnitIdealError(EquipureError):
    """The presented ring is the zero ring."""


class IllDefinedError(EquipureError):
    def __init__(self, relation, image):
        self.relation = relation
        self.image = image
        super().__init__(f"relation {relation} maps to nonzero {image}")


class UnsupportedPointKind(EquipureError):
    pass


class RecursionBudgetExceeded(EquipureError):
    pass


class RootSearchBudgetExceeded(EquipureError):
    """Trial division for rational root candidates stopped at its cap below
    the square root of the number, so roots could be missed."""


class NormalizationBudgetExceeded(EquipureError):
    pass


class PresentationBudgetExceeded(EquipureError):
    """A module presentation would have more generators than its budget."""


class ParamBudgetError(EquipureError):
    """A parametric reduction or Buchberger run exceeded its step budget."""


class LiftFailure(EquipureError):
    pass


class PreconditionFailed(EquipureError):
    pass


class NotModuleFinite(EquipureError):
    pass


class NotHypersurface(EquipureError):
    pass


class BadCharacteristic(EquipureError):
    pass


class NotEquidimensionalBase(EquipureError):
    pass


class HypothesisFailed(EquipureError):
    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__(f"hypothesis failed: {hypothesis}" + (f" ({detail})" if detail else ""))
