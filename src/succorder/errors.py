"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed edge-list input; message carries the offending line number."""


class InternalCheckError(RuntimeError):
    """An exact-arithmetic self-check failed.

    Raised when a quantity that is provably integral (or provably within
    bounds) comes out otherwise.  This always signals a bug in the engine,
    never bad user input.
    """


class VerificationError(RuntimeError):
    """Engine output disagrees with the oracle."""


def require_internal(condition: bool, message: str) -> None:
    if not condition:
        raise InternalCheckError(message)
