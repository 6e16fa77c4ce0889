"""Shared exception types, each with the exit code `cli.main` returns for it.

2 (the default): the input is rejected, unparsable, outside the
implemented scope or fails a certificate's preconditions.  3: a work
budget or retry budget ran out (BudgetExceeded, SamplingError,
NonGeneralConfiguration); a new --seed may help only when the command
takes one.  Any other exception is a bug and ends in a traceback.
"""


class GrassgeoError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InvalidInput(GrassgeoError, ValueError):
    """Rejected arguments or input file contents."""


class Unsupported(GrassgeoError, ValueError):
    """A valid input outside the implemented scope."""


class FieldMismatch(GrassgeoError, TypeError):
    """Elements of different fields (or rings) were combined."""


class BudgetExceeded(GrassgeoError, RuntimeError):
    """A Groebner computation spent its budget of term operations."""

    exit_code = 3


class SamplingError(GrassgeoError, RuntimeError):
    """No suitable point/line was found within the retry budget."""

    exit_code = 3


class NonGeneralConfiguration(GrassgeoError, RuntimeError):
    """A seeded configuration failed a genericity check; reseed."""

    exit_code = 3


class CertificateNotApplicable(GrassgeoError, ValueError):
    """Preconditions of a tangency/multiplicity certificate fail."""


class ParseError(GrassgeoError, ValueError):
    """Syntax error in a polynomial expression, with a position."""

    def __init__(self, message, text="", pos=0):
        self.pos = pos
        self.text = text
        if text:
            caret = " " * pos + "^"
            message = "%s at position %d\n  %s\n  %s" % (message, pos, text, caret)
        super().__init__(message)
