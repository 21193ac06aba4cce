"""Exception types shared across the package."""


class HyperwalkError(Exception):
    """Base class for domain errors raised by this package."""


class TruncationExceededError(HyperwalkError):
    """A computation needed constants beyond the stored truncation radius.

    Tensors over a truncated half-line index set only define the rows (i, j)
    with i + j <= radius; anything else is refused instead of being guessed.
    A walk names its start position and letter sum as the pair.
    """

    def __init__(self, i: int, j: int, radius: int, message: str | None = None):
        self.pair = (i, j)
        self.radius = radius
        super().__init__(
            message or f"constants for ({i}, {j}) lie outside the truncation radius {radius}"
        )


class DisconnectedGraphError(HyperwalkError):
    """The vertex set is not connected."""


class EmptySphereError(HyperwalkError):
    """A sphere S_j(v) needed by a sphere-count formula is empty."""

    def __init__(self, vertex, radius: int):
        self.vertex = vertex
        self.radius = radius
        super().__init__(f"sphere of radius {radius} around vertex {vertex!r} is empty")


class BoundaryContactError(HyperwalkError):
    """A sphere of a windowed graph would extend past the window boundary.

    Raised when an evaluation on a finite window of an infinite graph can no
    longer be trusted to agree with the infinite graph.
    """

    def __init__(self, vertex, radius: int, window_radius: int):
        self.vertex = vertex
        self.radius = radius
        self.window_radius = window_radius
        super().__init__(
            f"sphere of radius {radius} around {vertex!r} exceeds the "
            f"window of radius {window_radius}"
        )


class ConditionSViolatedError(HyperwalkError):
    """The graph fails the sphere-symmetry condition required by an oracle."""


class NotAGroupError(HyperwalkError):
    """A multiplication table does not define a group."""


class InvolutionError(HyperwalkError):
    """The zero-index supports of a tensor do not determine an involution."""


class NoCandidateError(InvolutionError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"no partner j with positive constant at 0 for index {index}")


class AmbiguousInvolutionError(InvolutionError):
    def __init__(self, index: int, candidates):
        self.index = index
        self.candidates = tuple(candidates)
        super().__init__(
            f"several partners {self.candidates} with positive constant at 0 "
            f"for index {index}"
        )


class NotInvolutiveError(InvolutionError):
    def __init__(self, sigma):
        self.sigma = tuple(sigma)
        super().__init__(f"derived map {self.sigma} is not an involution")


class HypergroupAxiomError(HyperwalkError):
    """A tensor/involution pair failed the hypergroup axioms."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.check for c in report.checks if not c.passed)
        super().__init__(f"hypergroup axioms failed: {failed}")


class FormatError(HyperwalkError):
    """A document is syntactically or structurally invalid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
