"""Exception hierarchy shared by all genosc modules."""


class GenoscError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GenoscError, ValueError):
    """A phase-space point (or a differencing stencil around it) lies outside
    the admissible region r^m - a^m > 0, where the metric degenerates."""


class ConditioningError(GenoscError, ArithmeticError):
    """Closed-form and direct numerical linear algebra disagree beyond
    tolerance, signalling breakdown near the domain boundary."""


class DimensionMismatch(GenoscError, ValueError):
    """Two objects built over different complex dimensions were combined."""
