"""Genus-1 theta functions as jets of lattice sums.

One lattice sum gives all derivative orders 0..n at once (a jet): the
terms e^{i pi q^2 tau + 2 i pi q (u + b)} are weighted by (2 i pi q)^k
for each order k.  Jets broadcast over an array u.  The jet of a scalar
argument is cached, at most ``cache.CACHE_MAX`` of them per evaluator
with the oldest evicted first; array arguments are not cached.  Each sum
starts on the window |n| <= 8 and doubles it until the edge terms fall
below 1e-16 of the sum for every point and order; a window of 800 terms
that still fails, or a sum whose value leaves the double range, raises
ThetaNotConverged.  What does not depend on u (i pi q^2 tau, 2 i pi q,
the rows (2 i pi q)^k) is tabulated once per characteristic and window,
at most 2 x 7 tables per evaluator; an order whose rows overflow on a
window the sum reaches (past 150 at tau = i) is refused the same way.
"""

from __future__ import annotations

from math import factorial, log

import numpy as np

from .cache import BoundedCache
from .errors import BadModulus, ThetaNotConverged

_TAIL = 1e-16
_MIN_HALF = 8
_MAX_HALF = 400
# a cached jet holds at least the orders that values and the derivatives
# of ln theta1 up to the third read
_MIN_ORDER = 3
# k! as floats, for Taylor coefficients from jets (171! overflows)
_FACTORIAL = np.array([float(factorial(k)) for k in range(171)])


def _check_tau(tau: complex):
    if not (np.imag(tau) > 0):
        raise BadModulus(f"Im tau = {np.imag(tau)} must be positive")


class ThetaEvaluator:
    """Riemann theta and the odd Jacobi theta for one modulus tau.

    Derivative orders up to ~60 are supported (needed for local series
    expansions of elliptic functions).
    """

    def __init__(self, tau: complex):
        _check_tau(tau)
        self.tau = complex(tau)
        self._cache = BoundedCache()
        self._tables = {}

    def theta(self, u, deriv: int = 0):
        """d^k/du^k of theta(u|tau) = sum_n e^{2 i pi n u + i pi n^2 tau}."""
        return self._jet(u, deriv, 0.0)[deriv]

    def theta1(self, u, deriv: int = 0):
        """d^k/du^k of the odd Jacobi theta1(u) = -sum_n e^{i pi (n+1/2)^2
        tau + 2 i pi (n+1/2)(u+1/2)}."""
        return -self._jet(u, deriv, 0.5)[deriv]

    def theta1_jet(self, u, n: int) -> np.ndarray:
        """Rows k = 0..n: d^k/du^k theta1(u), shape (n+1,) + shape(u)."""
        return -self._jet(u, n, 0.5)

    def _jet(self, u, n, a):
        """Jet of the sum with characteristic [a, a], through the cache
        for a scalar u."""
        if np.ndim(u):
            return self._sum(np.asarray(u, dtype=complex), n, a)
        key = (a, complex(u))
        jet = self._cache.get(key)
        if jet is None or len(jet) <= n:
            jet = self._sum(complex(u), max(n, _MIN_ORDER), a)
            self._cache[key] = jet
        return jet[:n + 1]

    def _sum(self, u, n, a):
        """Rows k = 0..n of sum_q (2 i pi q)^k e^{i pi q^2 tau + 2 i pi q
        (u + a)} over q in Z + a; the lattice sits on the last axis."""
        u = np.asarray(u)[..., None]
        half = _MIN_HALF
        while True:
            pre, b, rows = self._table(a, half, n)
            expo = pre + b * (u + a)
            shift = expo.real.max(axis=-1)
            terms = np.exp(expo - shift[..., None]) * rows[:n + 1].reshape(
                (n + 1,) + (1,) * (u.ndim - 1) + (-1,))
            total = terms.sum(axis=-1)
            mag = np.abs(terms)
            edge = np.maximum(mag[..., 0], mag[..., -1])
            scale = np.maximum(np.abs(total), mag.max(axis=-1))
            if (edge <= _TAIL * scale).all():
                # the value is below e^shift (2 half + 1) (7 half + 7)^n
                top = float(shift.max() if shift.ndim else shift)
                bound = top + log(2 * half + 1) + int(n) * log(7 * half + 7)
                if bound > 709.78 and top + log(scale.max()) > 709.78:
                    raise ThetaNotConverged(f"theta sum at tau = {self.tau} "
                                            "leaves the double range")
                return total * np.exp(shift)
            if 2 * half + 1 >= 2 * _MAX_HALF:
                raise ThetaNotConverged(
                    f"theta lattice sum at tau = {self.tau} misses its "
                    f"tail test on {2 * half + 1} terms")
            half *= 2

    def _table(self, a, half, n):
        """(i pi q^2 tau, 2 i pi q, rows k = 0..n at least of (2 i pi q)^k)
        on the window q = a - half .. a + half."""
        table = self._tables.get((a, half))
        if table is None or len(table[2]) <= n:
            q = np.arange(-half, half + 1) + a
            b = 2j * np.pi * q
            with np.errstate(over="ignore", invalid="ignore"):
                rows = b ** np.arange(n + 1)[:, None]
            if not np.all(np.isfinite(rows)):
                raise ThetaNotConverged(
                    f"theta derivative order {n} overflows the powers "
                    f"(2 i pi q)^k on the window of {2 * half + 1} terms")
            table = self._tables[(a, half)] = \
                1j * np.pi * q * q * self.tau, b, rows
        return table

    # -- derived helpers -------------------------------------------------------

    def log_theta1_derivs(self, u):
        """[(d/du)^k ln theta1 at u for k = 1, 2, 3], from one theta1 jet."""
        t = self.theta1_jet(u, 3)
        r1, r2 = t[1] / t[0], t[2] / t[0]
        return r1, r2 - r1 ** 2, t[3] / t[0] - 3 * r2 * r1 + 2 * r1 ** 3

    def theta1_taylor(self, u0, n: int) -> np.ndarray:
        """Rows k = 0..n: the Taylor coefficients of theta1 around u0,
        shape (n+1,) + shape(u0)."""
        return self.theta1_jet(u0, n) / _FACTORIAL[:n + 1].reshape(
            (-1,) + (1,) * np.ndim(u0))


def heat_equation_residual(tau, u, h=1e-4):
    """|d_tau theta - (1/4 i pi) d_u^2 theta| by central differences."""
    up = ThetaEvaluator(tau + h)
    dn = ThetaEvaluator(tau - h)
    mid = ThetaEvaluator(tau)
    dtau = (up.theta(u) - dn.theta(u)) / (2 * h)
    return abs(dtau - mid.theta(u, 2) / (4j * np.pi))
