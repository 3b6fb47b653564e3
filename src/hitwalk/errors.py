"""Exception hierarchy shared by every engine.

Three families matter to callers (and to the CLI exit codes): bad input,
violated structural hypotheses, and numerical failure.
"""


class HitwalkError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(HitwalkError, ValueError):
    """An argument is outside the documented domain."""


class OracleTooLargeError(InvalidParameterError):
    """Brute-force enumeration guard exceeded (too many nodes or steps)."""


class GraphTooLargeError(InvalidParameterError):
    """Graph too large for the exact integer keys of an engine."""


class HypothesisError(HitwalkError):
    """A structural hypothesis of the requested method does not hold."""


class NotConnectedError(HypothesisError):
    """Target unreachable; hitting times may be infinite."""


class NotErgodicError(HypothesisError):
    """Step law does not generate the group (some nontrivial transform is 1)."""


class NumericalError(HitwalkError):
    """A numerical routine could not meet its accuracy contract."""


class SingularMatrixError(NumericalError):
    """Linear system singular to working tolerance."""
