"""Exception types shared across the package.

Everything raised for a domain reason derives from ``SeriesError`` so
callers (and the CLI) can distinguish domain failures from usage bugs.
"""


class SeriesError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatch(SeriesError):
    """Coefficient list length does not match the stated modulus."""


class UnbalancedCoefficients(SeriesError):
    """Coefficients do not sum to zero, so the attached series diverges."""


class ModulusMismatch(SeriesError):
    """Vectors over different moduli were combined without lifting."""


class BudgetExceeded(SeriesError):
    """The request exceeds a fixed cost limit of the package.

    TERM_LIMIT bounds every count of terms summed or slots built: the
    terms of the exact sums and of an exact prefix, the slots of a
    vector or a relation family, and the Horner slots of quadrature.
    The panel limit of adaptive quadrature bounds the panels of the
    fixed rule as well.
    """


class Unachievable(SeriesError):
    """The requested accuracy is below the supported precision floor."""


class NoConvergence(SeriesError):
    """Adaptive refinement exhausted its budget without converging."""


class NotComposite(SeriesError):
    """A composite modulus was required."""
