"""Exception types shared across the package."""


class KnotoidalError(Exception):
    """Base class for all errors raised by this package."""


# -- text / structure parsing ------------------------------------------------

class MalformedToken(KnotoidalError):
    pass


class CrossingCountMismatch(KnotoidalError):
    pass


class SignCountMismatch(KnotoidalError):
    pass


class DuplicateLabel(KnotoidalError):
    pass


class LabelOutOfRange(KnotoidalError):
    pass


class UnknownFixture(KnotoidalError, KeyError):
    """No built-in diagram has that name; still a ``KeyError`` for old callers."""

    # a KeyError's str is the repr of its argument; print the message as is
    __str__ = Exception.__str__


# -- API arguments ---------------------------------------------------------------

class InvalidArgument(KnotoidalError, ValueError):
    """A bad argument to a public function; still a ``ValueError`` for old callers."""


# -- truncated series arithmetic ----------------------------------------------

class CapsMismatch(KnotoidalError):
    pass


class NotInvertible(KnotoidalError):
    pass


class ExpDomain(KnotoidalError):
    pass


class DegreeOutOfRange(KnotoidalError):
    pass


class NonIntegralScale(KnotoidalError):
    """A coefficient times the walk's scale ``L**h`` is not an integer."""


class CapsTooCostly(KnotoidalError):
    """The caps are past the cost limit of the strand walk."""


# -- representation data -------------------------------------------------------

class DimensionMismatch(KnotoidalError):
    pass


# -- curves and projections ----------------------------------------------------

class ParseError(KnotoidalError):
    pass


class TooFewPoints(KnotoidalError):
    pass


class DuplicateConsecutivePoint(KnotoidalError):
    pass


class DegenerateDirection(KnotoidalError):
    """Projection direction hit one of the measure-zero bad configurations."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class ArcOutOfRange(KnotoidalError):
    pass


class EmptyEstimate(KnotoidalError):
    pass


class AllSamplesDegenerate(KnotoidalError):
    pass
