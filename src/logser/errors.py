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

    DEFAULT_BLOCK_BUDGET bounds the block-terms of an exact prefix,
    TERM_LIMIT the terms of the exact sums that grow with n and the
    modulus of ln_vector, lift and ln_rational_vector, and the panel
    limit of adaptive quadrature the panels of the fixed rule as well.
    """


class Unachievable(SeriesError):
    """The requested accuracy is below the supported precision floor."""


class NoConvergence(SeriesError):
    """Adaptive refinement exhausted its budget without converging."""


class NotComposite(SeriesError):
    """A composite modulus was required."""
