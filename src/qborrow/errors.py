"""Common exception base for all toolchain errors."""


class QborrowError(Exception):
    """Base class for every error raised by the qborrow toolchain."""


class SourceError(QborrowError):
    """An error attached to a source location (1-based line and column)."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


class UsageError(QborrowError, ValueError):
    """A malformed argument: an unknown or empty solver, a size or budget
    out of range."""


class ResourceLimit(QborrowError):
    """A cap or budget ran out.  `reason` names it: size (the formula store
    or the CNF), conflicts or time (the CDCL, or time for the external
    solver), exec (the solver did not start) or output (it printed no
    verdict)."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(detail)


class SelfCheckError(QborrowError):
    """A result failed its own check: a bug, never a verdict."""
