"""Shared exception types, mapped to CLI exit codes."""


class IlrkitError(Exception):
    """Base class for all ilrkit errors."""

    exit_code = 1


class ConfigError(IlrkitError):
    """Invalid configuration or command-line arguments."""

    exit_code = 2


class DataValidationError(IlrkitError):
    """Input data violates a format or consistency requirement."""

    exit_code = 3


class DivergenceError(IlrkitError):
    """A numeric computation produced non-finite values."""

    exit_code = 4


class WriterError(IlrkitError):
    """A writer process died before it reported, e.g. killed by a signal."""

    exit_code = 5
