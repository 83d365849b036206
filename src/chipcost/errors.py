"""Error types shared across the package.

All configuration problems derive from ConfigError so the CLI can map them
to a single exit code. Infeasible results (a recurring or NRE cost that is
not finite: zero dies per wafer, a tested yield of zero, or a cost past
double range) are not errors; they are reported as tagged infinite costs.
"""


class ConfigError(ValueError):
    """Base class for invalid input. The CLI exits with code 2 on these."""

    def __init__(self, message: str, context: str | None = None):
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
        self.context = context


class XmlError(ConfigError):
    """Malformed XML, with file and position when available."""


class DuplicateNameError(ConfigError):
    """Two definitions of the same kind share a name."""


class ValidationError(ConfigError):
    """Well-formed input with an out-of-range or inconsistent field."""
