"""Exception types raised by conekit's validation layers."""


class ConekitError(Exception):
    """Base class for all conekit errors."""


class ZeroVector(ConekitError):
    """Vector norm below the decomposition cutoff."""


class MissingDims(ConekitError):
    """Operation needs bipartite dimensions but none were declared."""


class DimMismatch(ConekitError):
    """Shapes or declared dimensions do not line up."""


class NotHermitian(ConekitError):
    """Matrix fails the Hermiticity tolerance."""


class NotHermiticityPreserving(NotHermitian):
    """Map's Choi matrix fails the Hermiticity tolerance."""


class NotCompletelyPositive(ConekitError):
    """Choi matrix has an eigenvalue below the allowed floor."""


class NotPSD(ConekitError):
    """Matrix expected positive semidefinite is not."""


class NotAState(ConekitError):
    """Density-matrix validation failed (trace or positivity)."""


class EmptyList(ConekitError):
    """An operator or vector list that must be nonempty is empty."""


class BadK(ConekitError):
    """Schmidt level k outside 1..d."""


class BadParam(ConekitError):
    """Scalar parameter outside its documented range."""


class BadFamily(ConekitError):
    """Unknown scan family name."""


class RankTooHigh(ConekitError):
    """Operator rank exceeds the level the construction supports."""


class BlockNotPSD(ConekitError):
    """Block action matrix is not PSD; refutes the assumed positivity level."""
