"""Genus-1 theta functions as jets of lattice sums.

One lattice sum gives all derivative orders 0..n at once (a jet): the
terms e^{i pi q^2 tau + 2 i pi q (u + b)} are tabulated once and weighted
by (2 i pi q)^k for each order k.  Jets broadcast over an array u.  The
jet of a scalar argument is cached, at most ``cache.CACHE_MAX`` of them
per evaluator with the oldest evicted first; array arguments are not
cached.  Each sum starts on the window |n| <= 8 and doubles it until
the edge terms fall below 1e-16 of the sum for every point and order;
a window of 800 terms that still fails raises ThetaNotConverged.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .cache import BoundedCache
from .errors import BadModulus, ThetaNotConverged

_TAIL = 1e-16
_MIN_HALF = 8
_MAX_HALF = 400
# a cached jet holds at least the orders that values and the derivatives
# of ln theta1 up to the third read
_MIN_ORDER = 3


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
        ks = np.arange(n + 1).reshape((-1,) + (1,) * u.ndim)
        ns = np.arange(-_MIN_HALF, _MIN_HALF + 1)
        while True:
            q = ns + a
            expo = 1j * np.pi * q * q * self.tau + 2j * np.pi * q * (u + a)
            shift = np.max(expo.real, axis=-1)
            terms = np.exp(expo - shift[..., None]) * (2j * np.pi * q) ** ks
            total = np.sum(terms, axis=-1)
            mag = np.abs(terms)
            edge = np.maximum(mag[..., 0], mag[..., -1])
            scale = np.maximum(np.abs(total), np.max(mag, axis=-1))
            if np.all(edge <= _TAIL * scale):
                return total * np.exp(shift)
            if len(ns) >= 2 * _MAX_HALF:
                raise ThetaNotConverged(
                    f"theta lattice sum at tau = {self.tau} misses its "
                    f"tail test on {len(ns)} terms")
            ns = np.arange(ns[0] * 2, ns[-1] * 2 + 1)

    # -- derived helpers -------------------------------------------------------

    def log_theta1_d(self, u, order: int):
        """(d/du)^order of ln theta1 at u, order in {1, 2, 3}."""
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")
        t = self.theta1_jet(u, order)
        r1 = t[1] / t[0]
        if order == 1:
            return r1
        r2 = t[2] / t[0]
        if order == 2:
            return r2 - r1 ** 2
        return t[3] / t[0] - 3 * r2 * r1 + 2 * r1 ** 3

    def theta1_taylor(self, u0: complex, n: int) -> np.ndarray:
        """Taylor coefficients of theta1 around u0, length n+1."""
        return self.theta1_jet(u0, n) / np.array(
            [float(factorial(m)) for m in range(n + 1)])


def heat_equation_residual(tau, u, h=1e-4):
    """|d_tau theta - (1/4 i pi) d_u^2 theta| by central differences."""
    up = ThetaEvaluator(tau + h)
    dn = ThetaEvaluator(tau - h)
    mid = ThetaEvaluator(tau)
    dtau = (up.theta(u) - dn.theta(u)) / (2 * h)
    return abs(dtau - mid.theta(u, 2) / (4j * np.pi))
