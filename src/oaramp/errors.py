"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An enumeration or verification would exceed a configured size cap.

    The message names the cap that was hit and the offending size, so batch
    callers can distinguish "too big by construction" from a genuine failure.
    """


class ConstructionError(ValueError):
    """A matrix fails the independence conditions required by a construction.

    Carries the first offending column subset in ``witness`` (0-based column
    indices; for ``dual-basis``, the last of the basis, see
    ``designs.dual_aoa``) and the condition label in ``condition``.
    """

    def __init__(self, message: str, *, condition: str = "", witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


class SchemeError(ValueError):
    """A distribution-rule collection violates a ramp-scheme precondition."""
