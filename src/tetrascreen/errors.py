"""Exception hierarchy shared by all modules."""


class TetraScreenError(Exception):
    """Base class for all engine errors."""


# --- scalar layer ---

class DivisionByZero(TetraScreenError, ZeroDivisionError):
    pass


class IndeterminateDivision(TetraScreenError):
    """Interval divisor contains zero; value cannot be enclosed."""


class NegativeRadicand(TetraScreenError):
    pass


class Undecided(TetraScreenError):
    """A sign/zero question could not be settled at the current precision."""


# --- expression language / planar layer ---

class CenterExprError(TetraScreenError):
    pass


class ExprSyntaxError(CenterExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotSymmetric(CenterExprError):
    pass


class NotHomogeneous(CenterExprError):
    pass


class ValidationError(CenterExprError):
    """A catalog entry failed validation; carries the entry id."""

    def __init__(self, entry_id: str, cause: Exception):
        super().__init__(f"entry {entry_id!r}: {cause}")
        self.entry_id = entry_id
        self.cause = cause


class DegenerateTriangle(TetraScreenError):
    pass


class IrrationalInExactMode(TetraScreenError):
    """Exact evaluation requested but a radical survives in the result."""


class OnSideline(TetraScreenError):
    """Conjugation is undefined for a point with a zero coordinate."""


class EvaluationSingular(TetraScreenError):
    """A center formula degenerates (zero denominator or all-zero
    coordinates) on a particular face."""

    def __init__(self, message: str = "", face: int | None = None):
        super().__init__(message or f"singular on face {face}")
        self.face = face


# --- spatial kernel ---

class IdenticalPoints(TetraScreenError):
    pass


class DegenerateRatio(TetraScreenError):
    pass


class SkewLines(TetraScreenError):
    pass


class ParallelLines(TetraScreenError):
    pass


class IdenticalLines(TetraScreenError):
    pass


class ImaginarySigma(TetraScreenError):
    """The direction-cosine quadratic form is nonnegative; the direction is
    not realizable for the given edge metric."""


class CollinearPoints(TetraScreenError):
    pass


class PointOnLine(TetraScreenError):
    pass


class PointAtInfinity(TetraScreenError):
    pass


class ParallelDirections(TetraScreenError):
    pass


class LineParallelToPlane(TetraScreenError):
    pass


class CoplanarPoints(TetraScreenError):
    pass


class SingularSystem(TetraScreenError):
    pass


# --- model / screening ---

class InvalidTetrahedron(TetraScreenError):
    pass


class GenerationExhausted(TetraScreenError):
    pass


class EulerLineDegenerate(TetraScreenError):
    """Centroid and circumcenter coincide; the Euler line is undefined."""


class UnknownId(TetraScreenError):
    pass
