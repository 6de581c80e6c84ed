"""Error hierarchy shared across the package.

Every error class carries an ``exit_code`` used by the CLI: 2 for input
format problems, 3 for precondition violations (including integration
failures), 4 for verification failures.
"""


class ToolError(Exception):
    exit_code = 1


class InputFormatError(ToolError):
    """Base class for problems with a system document."""

    exit_code = 2


class MalformedDocumentError(InputFormatError):
    """Input that does not parse: JSON, document keys, terms or option values."""


class NonFiniteCoefficientError(InputFormatError):
    """A coefficient is infinite or NaN."""


class DegreeCapExceededError(InputFormatError):
    """A component exceeds the input degree cap."""


class EmptyBoxError(InputFormatError):
    """The box has no volume or no slice of the switching plane."""


class BoxRangeError(InputFormatError):
    """A side of the box is longer than the float range."""


class PreconditionError(ToolError):
    """An operation was called outside its stated domain."""

    exit_code = 3


class IntegrationFailure(PreconditionError):
    """A numeric flight did not produce the requested event.

    ``status`` is the terminal status of the failed flight (a
    :class:`foldatlas.integrator.FlightStatus` member).
    """

    def __init__(self, status, message=""):
        super().__init__(message or f"integration failed: {status}")
        self.status = status


class VerificationFailure(ToolError):
    exit_code = 4
