"""The failure raised when a computation of the package breaks down."""


class Degenerate(RuntimeError):
    """A computation broke down: an admissible interval came out empty or
    overlapping, a root solver did not converge, or, as its subclass
    :class:`~slopedesign.oracle.NumericalFailure`, the oracle's simplex
    failed."""
