"""Exception types raised by the toolkit."""


class GridcertError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(GridcertError):
    """An argument violates a precondition (shape, finiteness, consistency)."""


class GridFormatError(InvalidInput):
    """A grid document failed validation; the message opens with the field's path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


class NoUniqueSolution(GridcertError):
    """The Lyapunov operator is singular (some eigenvalue pair sums to zero)."""


class CertificateInvalid(GridcertError):
    """A stability certificate could not be established for the given matrix."""

    def __init__(self, message, offending_eigenvalue=None):
        self.offending_eigenvalue = offending_eigenvalue
        super().__init__(message)


class NotSemiSimple(GridcertError):
    """The matrix is defective: geometric multiplicity below algebraic."""


class IllConditionedTransform(GridcertError):
    """The eigenvector matrix is singular to working precision."""


class Uncontrollable(GridcertError):
    """The controllability matrix of (A, B) is rank deficient."""


class Degenerate(GridcertError):
    """A required quantity vanishes (e.g. zero input column)."""


class ProtocolViolation(GridcertError):
    """A message broke the protocol rules."""


class DivergedSimulation(GridcertError):
    """The integration produced non-finite values; ``time`` is the first bad step."""

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)
