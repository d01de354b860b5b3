"""Exception types shared across the toolkit."""


class SpuriousLensError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SpuriousLensError, ValueError):
    """A configuration field or parameter is out of its legal range."""


class ShapeError(SpuriousLensError, ValueError):
    """Array dimensions do not match the operation's contract."""


class InsufficientDataError(SpuriousLensError, ValueError):
    """Too few samples for the requested computation."""


class DomainError(SpuriousLensError, ValueError):
    """Input outside the mathematical domain (NaN, singular parameters,
    accuracies at 0/1 under a probit transform, ...)."""


class NonconvergenceError(SpuriousLensError, RuntimeError):
    """Iterative optimization diverged or stalled; the message names the step."""


class ParseError(SpuriousLensError, ValueError):
    """An input file violates its schema.

    `lines` lists the offending 1-based line numbers, when known.
    """

    def __init__(self, message: str, lines: tuple[int, ...] = ()):
        super().__init__(message)
        self.lines = lines


class DegenerateFitError(SpuriousLensError, ValueError):
    """A least-squares fit has no unique solution (e.g. identical x values)."""
