"""Exception types shared across the library, and whole, the one rule for
every count (N, n, trials, samples, directions, depths): an integral float
such as 1e3 passes as an int, anything else raises DomainError (CLI exit 3)."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class AccuracyError(ArithmeticError):
    """A numerical routine failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DegenerateParameterError(DomainError):
    """A recursion denominator vanished; parameters sit on a pole."""


class RangeError(ValueError):
    """A bracketing search left the supported range."""


class EstimationError(RuntimeError):
    """Empirical estimation impossible (degenerate sample)."""


def whole(value, name: str, least: int = 1) -> int:
    """value as an int when it is an integer no smaller than least (an
    integral float such as 1e3 passes); DomainError naming it otherwise."""
    if not (value >= least and float(value).is_integer()):
        rule = "a positive integer" if least == 1 else f"an integer of at least {least}"
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return int(value)
