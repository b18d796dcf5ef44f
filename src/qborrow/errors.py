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


class SelfCheckError(QborrowError):
    """A result failed its own check: a bug, never a verdict."""
