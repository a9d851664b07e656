"""The failure raised when a root computation of the region breaks down."""


class Degenerate(RuntimeError):
    """A root computation failed: an admissible interval came out empty or
    overlapping, or a root solver did not converge."""
