"""Weierstrass functions on the torus C/(Z + tau Z), built from theta1.

The normalization keeps the A-cycle equal to the segment [0, 1] and the
B-cycle equal to [0, tau], so periods never have to be computed.
"""

from __future__ import annotations

import numpy as np

from .series import TruncSeries, log_jet, truncate
from .theta import ThetaEvaluator


class EllipticTools:
    """wp, wp' and their local series for one modulus tau."""

    def __init__(self, tau: complex, order: int = 32):
        self.tau = complex(tau)
        self.theta = ThetaEvaluator(tau)
        self.order = order
        # wp(u) = -(ln theta1)''(u) + c0 restores the u^-2 normalization
        self.c0 = self.theta.theta1(0.0, 3) / (3.0 * self.theta.theta1(0.0, 1))
        self._laurent0 = None
        self._g2g3 = None

    # -- point values ---------------------------------------------------------

    def wp(self, u: complex) -> complex:
        return self.wp_pair(u)[0]

    def wp_prime(self, u: complex) -> complex:
        return self.wp_pair(u)[1]

    def wp_pair(self, u):
        """(wp(u), wp'(u)) from one theta1 jet."""
        _, d2, d3 = self.theta.log_theta1_derivs(u)
        return -d2 + self.c0, -d3

    # -- local series ----------------------------------------------------------

    def log_theta1_series(self, u0: complex, order=None) -> TruncSeries:
        """Series of ln theta1(u0 + s) for u0 away from the lattice."""
        order = order or self.order
        tay = TruncSeries(self.theta.theta1_taylor(u0, order + 2), 0)
        t0 = tay.coeff(0)
        unit = tay * (1.0 / t0)
        # log of a unit series: integrate u'/u
        ls = (unit.differentiate() * unit.invert()).antiderivative()
        return ls + np.log(t0)

    def wp_series(self, u0: complex, order=None) -> TruncSeries:
        """Series of wp(u0 + s); Laurent with u^-2 head when u0 ~ 0."""
        order = order or self.order
        if self.is_lattice(u0):
            return self.wp_laurent_at_zero(order)
        ls = self.log_theta1_series(u0, order + 2)
        return -ls.differentiate().differentiate() + self.c0

    def wp_laurent_at_zero(self, order=None) -> TruncSeries:
        order = order or self.order
        if self._laurent0 is not None and \
                self._laurent0.trunc_order >= order:
            return truncate(self._laurent0, order, absolute=True)
        n = order + 4
        coeffs = self.theta.theta1_taylor(0.0, n + 2)
        coeffs[::2] = 0.0            # theta1 is odd; kill roundoff noise
        # theta1(s) = s g(s) with g(0) = theta1'(0) != 0, and
        # -(ln theta1)'' = 1/s^2 - (ln g)''; the 1/s^2 monomial is exact,
        # so give it a window long enough not to clip the regular part
        b = log_jet(coeffs[1:])
        k = np.arange(len(b) - 2)
        head = np.zeros(n + 6, dtype=complex)
        head[[0, 2]] = 1.0, self.c0
        out = TruncSeries(head, -2) - TruncSeries((k + 2) * (k + 1) * b[2:])
        self._laurent0 = out
        return truncate(out, order, absolute=True)

    def invariants_g2_g3(self):
        """Coefficients in wp'^2 = 4 wp^3 - g2 wp - g3."""
        if self._g2g3 is None:
            lau = self.wp_laurent_at_zero(6)
            self._g2g3 = (20.0 * lau.coeff(2), 28.0 * lau.coeff(4))
        return self._g2g3

    # -- lattice reduction -------------------------------------------------------

    def to_cell(self, u: complex) -> complex:
        """Representative in the cell {s + t tau : s, t in [0, 1)}.

        Values within 1e-9 of the upper/right edge snap to the lower
        representative, so preimage sets are reproducible."""
        u = complex(u)
        t = u.imag / self.tau.imag
        s = u.real - t * self.tau.real
        s -= np.floor(s)
        t -= np.floor(t)
        if s > 1 - 1e-9:
            s -= 1.0
        if t > 1 - 1e-9:
            t -= 1.0
        return s + t * self.tau

    def is_lattice(self, u: complex, tol=1e-9) -> bool:
        c = self.to_cell(u)
        return min(abs(c), abs(c - 1), abs(c - self.tau),
                   abs(c - 1 - self.tau)) < tol
