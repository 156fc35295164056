"""Point values of wp on the torus C/(Z + tau Z), and the cell reduction.

wp and wp' come from one theta1 jet at each point; the series of wp
are read off the prime-form jet of the curve's torus backend, whose
cycle marking is ``Genus1Curve.cycles``.
"""

from __future__ import annotations

import numpy as np

from .theta import ThetaEvaluator


class EllipticTools:
    """wp and wp' at points, and the reduction of a point to the cell,
    for one modulus tau."""

    def __init__(self, tau: complex):
        self.tau = complex(tau)
        self.theta = ThetaEvaluator(tau)
        # wp(u) = -(ln theta1)''(u) + c0 restores the u^-2 normalization
        self.c0 = self.theta.theta1(0.0, 3) / (3.0 * self.theta.theta1(0.0, 1))

    # -- point values ---------------------------------------------------------

    def wp(self, u: complex) -> complex:
        return self.wp_pair(u)[0]

    def wp_prime(self, u: complex) -> complex:
        return self.wp_pair(u)[1]

    def wp_pair(self, u):
        """(wp(u), wp'(u)) from one theta1 jet."""
        _, d2, d3 = self.theta.log_theta1_derivs(u)
        return -d2 + self.c0, -d3

    # -- cell reduction ----------------------------------------------------------

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
