"""Genus-1 theta functions: lattice sums, derivatives, characteristics.

Evaluators cache values per (argument, order) in an unbounded dict.
Each lattice sum starts on the window |n| <= 8 and doubles it until the
edge terms fall below 1e-16 of the sum or the window holds 800 terms.
"""

from __future__ import annotations

import numpy as np

from .errors import BadModulus

_TAIL = 1e-16
_MIN_HALF = 8
_MAX_HALF = 400


def _check_tau(tau: complex):
    if not (np.imag(tau) > 0):
        raise BadModulus(f"Im tau = {np.imag(tau)} must be positive")


class ThetaEvaluator:
    """Riemann theta and the odd Jacobi theta for one modulus tau.

    Characteristics (a, b) refer to the classical theta with
    characteristics; derivative orders up to ~60 are supported (needed
    for local series expansions of elliptic functions).
    """

    def __init__(self, tau: complex):
        _check_tau(tau)
        self.tau = complex(tau)
        self._cache: dict = {}

    # -- plain Riemann theta -------------------------------------------------

    def theta(self, u: complex, deriv: int = 0) -> complex:
        """d^k/du^k of theta(u|tau) = sum_n e^{2 i pi n u + i pi n^2 tau}."""
        key = ("t", complex(u), deriv)
        val = self._cache.get(key)
        if val is None:
            val = self._sum(complex(u), deriv, a=0.0, b=0.0)
            self._cache[key] = val
        return val

    def theta_char(self, a: float, b: float, u: complex,
                   deriv: int = 0) -> complex:
        """Theta with characteristics [a, b]:
        sum_n e^{i pi (n+a)^2 tau + 2 i pi (n+a)(u+b)}."""
        key = ("tc", a, b, complex(u), deriv)
        val = self._cache.get(key)
        if val is None:
            val = self._sum(complex(u), deriv, a=a, b=b)
            self._cache[key] = val
        return val

    def theta1(self, u: complex, deriv: int = 0) -> complex:
        """Odd Jacobi theta; theta1(u) = -theta_char(1/2, 1/2, u)."""
        return -self.theta_char(0.5, 0.5, u, deriv)

    def _sum(self, u, deriv, a, b):
        ns = np.arange(-_MIN_HALF, _MIN_HALF + 1)
        while True:
            q = ns + a
            expo = 1j * np.pi * q * q * self.tau + 2j * np.pi * q * (u + b)
            shift = np.max(expo.real)
            terms = np.exp(expo - shift)
            if deriv:
                terms = terms * (2j * np.pi * q) ** deriv
            total = np.sum(terms)
            edge = max(abs(terms[0]), abs(terms[-1]))
            scale = max(abs(total), np.max(np.abs(terms)))
            if edge <= _TAIL * scale or len(ns) >= 2 * _MAX_HALF:
                return total * np.exp(shift)
            ns = np.arange(ns[0] * 2, ns[-1] * 2 + 1)

    # -- derived helpers -------------------------------------------------------

    def log_theta1_d(self, u: complex, order: int) -> complex:
        """(d/du)^order of ln theta1 at u, order in {1, 2, 3}."""
        t0 = self.theta1(u)
        t1 = self.theta1(u, 1)
        if order == 1:
            return t1 / t0
        t2 = self.theta1(u, 2)
        if order == 2:
            return t2 / t0 - (t1 / t0) ** 2
        t3 = self.theta1(u, 3)
        if order == 3:
            r1, r2 = t1 / t0, t2 / t0
            return t3 / t0 - 3 * r2 * r1 + 2 * r1 ** 3
        raise ValueError("order must be 1, 2 or 3")

    def theta1_taylor(self, u0: complex, n: int) -> np.ndarray:
        """Taylor coefficients of theta1 around u0, length n+1."""
        from math import factorial
        return np.array([self.theta1(u0, m) / factorial(m)
                         for m in range(n + 1)])


def heat_equation_residual(tau, u, h=1e-4):
    """|d_tau theta - (1/4 i pi) d_u^2 theta| by central differences."""
    up = ThetaEvaluator(tau + h)
    dn = ThetaEvaluator(tau - h)
    mid = ThetaEvaluator(tau)
    dtau = (up.theta(u) - dn.theta(u)) / (2 * h)
    return abs(dtau - mid.theta(u, 2) / (4j * np.pi))

