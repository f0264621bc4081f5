"""Exception hierarchy for trinedisc."""


class TrineError(Exception):
    """Base class for all trinedisc errors."""


class DomainError(TrineError, ValueError):
    """Input outside the mathematically admissible domain."""


class PureStateError(TrineError):
    """The ensemble density matrix is pure, so its inverse is undefined."""


class ZeroPriorError(TrineError, ZeroDivisionError):
    """A formula requiring strictly positive priors received a zero prior."""


class VerificationError(TrineError):
    """Two redundant internal computations of the same quantity disagree."""


class ZeroOutcomeError(TrineError):
    """Bayes confidence requested for an outcome with vanishing probability."""


class UndefinedError(TrineError):
    """A closed form is undefined at these priors: the confidence at p_i = 1, a singular
    Gamma^{-1} on the tie edge, collinear three-outcome directions, or a pole."""


class InsufficientDataError(TrineError):
    """Too few Monte Carlo shots landed on the requested outcome."""
