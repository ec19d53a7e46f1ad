"""Exception hierarchy.

``DomainError`` marks inputs that are legal Python values but violate a
mathematical precondition (degenerate path, inadmissible gluing parameters,
a differential that is not a chain map, ...).  The command line maps these
to exit code 2; I/O and parse problems exit with code 1.
"""


class DomainError(Exception):
    """Mathematically invalid input; CLI exit code 2."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DegeneratePath(DomainError):
    """Eigenvalue path ends on an integer; the nondegeneracy hypothesis fails."""


class GenericityViolated(DomainError):
    """Rotation parameter resonates with the supplied action data."""


class BadResonance(DomainError):
    """Tubular orbit data does not satisfy the exact resonance ratio."""


class MalformedForest(DomainError):
    """Forest violates a structural invariant (incoming edges, levels, acyclicity)."""


class NotInteriorEdge(DomainError):
    """Edge contraction requested on an input or output edge."""


class LabelMismatch(DomainError):
    """Concatenation matched two edges with different orbit labels or levels."""


class NegativeExponent(DomainError):
    """Tree data violates the intersection positivity lower bound."""


class InadmissibleParameters(DomainError):
    """Rotation/energy parameters fail the mixed-map admissibility gate."""


class TooLarge(DomainError):
    """Input exceeds the documented size bound for an exhaustive search."""


class BoundaryConditionViolated(DomainError):
    """Type B decomposition samples break the t = 0 matching condition."""


class NotSupported(DomainError):
    """A computation sftkit does not model: energy gluing without a
    symplectization factor, or the word complex in degree 0 of an
    associative algebra over more than one component."""


class NonComposable(DomainError):
    """Adjacent chords have mismatched endpoint components."""


class NotAChainMap(DomainError):
    """Candidate augmentation does not annihilate the differential."""

    def __init__(self, generator: str, message: str = ""):
        self.generator = generator
        super().__init__(message or f"augmentation fails on generator {generator!r}")


class DSquareNonzero(DomainError):
    """The differential does not square to zero."""


class BidegreeViolation(DomainError):
    """A differential term leaves the next degree down or the linking degree."""


class InfiniteBasis(DomainError):
    """Requested window has infinitely many basis words (degree-0 generators)."""


class WindowNotGuaranteed(DomainError):
    """Rotation parameter too small to push interior orbits past the window."""


class OddDimension(DomainError):
    """Computation only defined for even ambient parameter."""


class OutOfRange(DomainError):
    """Surgery index outside the subcritical isotropic range."""


class UnresolvedComparison(DomainError):
    """Strict inequality undecidable within the configured tolerance."""
