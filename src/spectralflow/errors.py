"""Exception hierarchy shared by all modules.

Every failure mode that callers are expected to catch has its own class;
generic numpy/ValueError leakage is considered a bug.
"""


class SpectralFlowError(Exception):
    """Base class for all library errors."""


# -- series -----------------------------------------------------------------

class IncompatibleFrames(SpectralFlowError):
    """Arithmetic between series attached to different local coordinates."""


class ZeroLeadingCoefficient(SpectralFlowError):
    """Inversion or square root of a series whose leading term vanishes."""


class OddLeadingExponentForSqrt(SpectralFlowError):
    """Square root of a series with odd leading exponent."""


class TruncationTooShort(SpectralFlowError):
    """A coefficient outside the tracked window was requested."""


class LevelTooLarge(SpectralFlowError):
    """A recursion level whose dense size passes the byte bound."""


class NotInvertibleAtOrigin(SpectralFlowError):
    """Functional inversion of a series with f(0) != 0 or f'(0) == 0."""


# -- curve ------------------------------------------------------------------

class NonSimpleRamification(SpectralFlowError):
    """dX has a zero of order >= 2."""


class SingularCurve(SpectralFlowError):
    """A degenerate curve: X constant (dX = 0), dY vanishing at a
    ramification point, or a ramification chart that misses its frame."""


class BadModulus(SpectralFlowError):
    """Torus modulus with Im tau <= 0."""


class PoleAtRamificationPoint(SpectralFlowError):
    """A 1-form has a pole sitting on a ramification point."""


class ResidueSumNonzero(SpectralFlowError):
    """Global residue theorem violated beyond tolerance."""


class NearBranchPoint(SpectralFlowError):
    """Requested x value too close to a branch value for safe sheet work."""


class RootFindingFailed(SpectralFlowError):
    """Sheet solver did not find the expected number of preimages."""


class NotRepresentable(SpectralFlowError):
    """A curve outside the backends: a zero denominator or an unreadable
    curve spec field; or a point or a form the curve does not have (inf
    on the torus)."""


# -- quadrature -------------------------------------------------------------

class QuadratureNotConverged(SpectralFlowError):
    """An adaptive panel missed its tolerance at the depth limit."""


# -- geometry ---------------------------------------------------------------

class CoincidentPoints(SpectralFlowError):
    """Two-point kernel evaluated on the diagonal."""


class DivergentRegularization(SpectralFlowError):
    """A regularized potential at a pole is not finite."""


class ThetaZeroDivision(SpectralFlowError):
    """Theta factor in a denominator is numerically on the theta divisor."""


class ThetaNotConverged(SpectralFlowError):
    """A theta lattice sum failed its tail test or left the double range."""


class ResidueFreePreconditionViolated(SpectralFlowError):
    """Bilinear-identity input form carries a nonzero residue."""


class UnsupportedCycle(SpectralFlowError):
    """Cycle descriptor not available on this curve (e.g. B-cycle at genus 0)."""


class BadIndex(SpectralFlowError):
    """An index or a pole outside what the object defines: an unstable
    (g, n), F_g for g < 2, a second-kind form of index j < 1, a center
    that is not a pole of the form."""


# -- classical ----------------------------------------------------------------

class SingularCDMatrix(SpectralFlowError):
    """Christoffel-Darboux matrix numerically singular."""


class SingularSheetMatrix(SpectralFlowError):
    """Sheet matrix inversion with condition number beyond 1e10."""


class PsiOutOfRange(SpectralFlowError):
    """The factor e^{int chi} of the classical kernel, or the target of a
    residual built from it, leaves the double range."""
