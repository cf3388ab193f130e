"""Exception hierarchy shared by all modules.

Domain errors mean the caller asked for something outside the supported
range; they are ordinary ``ValueError`` subclasses.  Stability and
inconsistency errors signal that a computation could not certify its own
answer, which callers should treat as a bug or a resource limit rather
than bad input.
"""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class SizeLimitError(DomainError):
    """Requested computation exceeds one of the fixed size caps."""


class StabilityError(RuntimeError):
    """A truncated computation failed to stabilise within the fixed work
    cap, or was asked about degrees above its stabilised window."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers.

    This always indicates an internal bug, never bad input.
    """
