"""Truncated Laurent series over complex coefficients.

This is the computational substrate for every local expansion in the
library: involutions at ramification points, residues of recursion
kernels, pole data of 1-forms, regularized limits.

A series tracks integer exponents k in a window [k_min, K]:

    f(z) = sum_{k=k_min..K}  c[k - k_min] * z**k

Coefficients below k_min are exactly zero; coefficients above the
truncation order K are *unknown*.  All arithmetic propagates the window
honestly and reading past it raises TruncationTooShort rather than
zero-filling.  Values are immutable; operations are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IncompatibleFrames,
    NotInvertibleAtOrigin,
    OddLeadingExponentForSqrt,
    SpectralFlowError,
    TruncationTooShort,
    ZeroLeadingCoefficient,
)

# Relative threshold below which a would-be leading coefficient counts as zero
# for inversion / square roots.
UNDERFLOW = 1e-13

DEFAULT_TRUNC = 24


class TruncSeries:
    """Immutable truncated Laurent series in one local coordinate."""

    __slots__ = ("k_min", "coeffs", "var_tag")

    def __init__(self, coeffs, k_min=0, var_tag=""):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1:
            raise SpectralFlowError("coefficient array must be 1-D")
        if coeffs.size == 0:
            raise SpectralFlowError("series needs a tracked coefficient")
        # strip exact zeros at the low edge so k_min is the true valuation
        # (unless everything is zero, in which case keep the window).
        nz = np.nonzero(coeffs)[0]
        if nz.size and nz[0] > 0:
            k_min += int(nz[0])
            coeffs = coeffs[nz[0]:]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "k_min", int(k_min))
        object.__setattr__(self, "var_tag", var_tag)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TruncSeries is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return self.k_min + len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        """Coefficient of z**k; exact zero below the window."""
        if k > self.trunc_order:
            raise TruncationTooShort(
                f"coefficient {k} beyond truncation order "
                f"{self.trunc_order} (tag {self.var_tag!r})")
        if k < self.k_min:
            return 0.0 + 0.0j
        return complex(self.coeffs[k - self.k_min])

    def __repr__(self):
        head = ", ".join(
            f"{c:.6g}*z^{k}"
            for k, c in list(zip(range(self.k_min, self.trunc_order + 1),
                                 self.coeffs))[:4])
        return (f"TruncSeries[{head}, ...; K={self.trunc_order}, "
                f"tag={self.var_tag!r}]")

    def _check_compatible(self, other: "TruncSeries"):
        if self.var_tag and other.var_tag and self.var_tag != other.var_tag:
            raise IncompatibleFrames(f"{self.var_tag!r} vs {other.var_tag!r}")

    def _tag_with(self, other):
        return self.var_tag or other.var_tag

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self._add_scalar(complex(other))
        self._check_compatible(other)
        K = min(self.trunc_order, other.trunc_order)
        k_min = min(self.k_min, other.k_min)
        if K < k_min:
            raise TruncationTooShort("empty window in addition")
        n = K - k_min + 1
        out = np.zeros(n, dtype=complex)
        for s in (self, other):
            lo = s.k_min - k_min
            hi = min(s.trunc_order, K) - k_min + 1
            out[lo:hi] += s.coeffs[:hi - lo]
        return TruncSeries(out, k_min, self._tag_with(other))

    def _add_scalar(self, c):
        if self.k_min > 0:
            pad = np.zeros(self.k_min, dtype=complex)
            coeffs = np.concatenate([pad, self.coeffs])
            coeffs[0] += c
            return TruncSeries(coeffs, 0, self.var_tag)
        if self.trunc_order < 0:
            raise TruncationTooShort("scalar addition beyond truncation")
        coeffs = self.coeffs.copy()
        coeffs[-self.k_min] += c
        return TruncSeries(coeffs, self.k_min, self.var_tag)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.coeffs, self.k_min, self.var_tag)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries)
                       else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return TruncSeries(self.coeffs * complex(other), self.k_min,
                               self.var_tag)
        self._check_compatible(other)
        k_min = self.k_min + other.k_min
        K = min(self.trunc_order + other.k_min,
                other.trunc_order + self.k_min)
        n = K - k_min + 1
        if n <= 0:
            raise TruncationTooShort("empty window in multiplication")
        full = np.convolve(self.coeffs, other.coeffs)
        return TruncSeries(full[:n], k_min, self._tag_with(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return self * (1.0 / complex(other))
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return constant(1.0, self.var_tag, len(self.coeffs))
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- units --------------------------------------------------------------

    def _leading(self):
        # compare against neighbouring low orders only: large high-order
        # coefficients are normal for series with small convergence radius
        scale = np.max(np.abs(self.coeffs[:4]))
        if scale == 0.0 or abs(self.coeffs[0]) <= UNDERFLOW * scale:
            raise ZeroLeadingCoefficient(
                f"leading coefficient {self.coeffs[0]} below threshold")
        return self.coeffs[0]

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse by Newton doubling; window kept."""
        lead = self._leading()
        n = len(self.coeffs)
        if not self.coeffs[1:].any():     # a monomial inverts exactly
            return TruncSeries(np.eye(1, n)[0] / lead, -self.k_min,
                               self.var_tag)
        u = self.coeffs / lead            # unit part, u[0] == 1
        inv, m = np.eye(1, n, dtype=complex)[0], 1
        while m < n:                      # g <- g - g (u g - 1)
            k = min(2 * m, n)
            err = np.convolve(u[:k], inv[:m])[m:]
            inv[m:k] = -np.convolve(inv[:m], err)[:k - m]
            m = k
        return TruncSeries(inv / lead, -self.k_min, self.var_tag)

    def sqrt(self) -> "TruncSeries":
        """Square root, the principal root of the leading coefficient;
        the leading exponent must be even."""
        lead = self._leading()
        if self.k_min % 2:
            raise OddLeadingExponentForSqrt(
                f"leading exponent {self.k_min}")
        root = np.sqrt(lead)
        n = len(self.coeffs)
        u = self.coeffs / lead
        s = np.zeros(n, dtype=complex)
        s[0] = 1.0
        for m in range(1, n):
            acc = u[m] - np.dot(s[1:m], s[1:m][::-1]) if m > 1 else u[m]
            s[m] = acc / 2.0
        return TruncSeries(s * root, self.k_min // 2, self.var_tag)

    # -- calculus -----------------------------------------------------------

    def differentiate(self) -> "TruncSeries":
        """d/dz, where z is the local coordinate."""
        ks = np.arange(self.k_min, self.trunc_order + 1)
        return TruncSeries(self.coeffs * ks, self.k_min - 1, self.var_tag)

    def antiderivative(self) -> "TruncSeries":
        """Primitive with zero constant; the z**-1 slot must vanish."""
        if self.k_min <= -1 <= self.trunc_order and \
                abs(self.coeff(-1)) > 1e-13 * (np.max(np.abs(self.coeffs)) + 1e-300):
            raise SpectralFlowError(
                "nonzero residue term: primitive needs a log")
        ks = np.arange(self.k_min, self.trunc_order + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeffs = np.where(ks == -1, 0.0, self.coeffs / (ks + 1))
        return TruncSeries(coeffs, self.k_min + 1, self.var_tag)

    def residue(self) -> complex:
        """Coefficient of z**-1 of ``self`` viewed as g(z) in g(z) dz.

        Raises TruncationTooShort when the window ends before the
        z**-1 slot, i.e. when the residue is genuinely unknown.
        """
        if self.trunc_order < -1:
            raise TruncationTooShort("window ends below the residue slot")
        return self.coeff(-1)

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(w)); inner must vanish at the origin.  For self known
        through z^K and inner of valuation v, the unknown z^(K+1) term
        starts at w^((K+1) v): 1 + z + z^2 + O(z^3) composed with a series
        known through w^10 is known through w^2."""
        if inner.k_min < 1:
            raise NotInvertibleAtOrigin(
                "composition needs inner series with inner(0) == 0")
        out, K = None, self.trunc_order
        if K >= 0:                          # the non-negative part
            out = _horner([self.coeff(k) for k in range(K + 1)], inner)
        if self.k_min < 0:
            inv = inner.invert()
            pos = inv
            for k in range(-1, self.k_min - 1, -1):
                term = pos * self.coeff(k)
                out = term if out is None else out + term
                if k > self.k_min:
                    pos = pos * inv
        return truncate(out, (K + 1) * inner.k_min - 1, absolute=True)

    # -- misc ----------------------------------------------------------------

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by z**k."""
        return TruncSeries(self.coeffs, self.k_min + k, self.var_tag)

    def evaluate(self, z):
        """Numeric evaluation by Horner's rule, at a point or an ndarray."""
        return np.polynomial.polynomial.polyval(z, self.coeffs) \
            * z ** self.k_min

    def retag(self, var_tag: str) -> "TruncSeries":
        return TruncSeries(self.coeffs, self.k_min, var_tag)


# -- constructors and helpers -------------------------------------------------

def constant(c, var_tag="", order=DEFAULT_TRUNC):
    out = np.zeros(order + 1, dtype=complex)
    out[0] = c
    return TruncSeries(out, 0, var_tag)


def identity(var_tag="", order=DEFAULT_TRUNC):
    """The series z itself, tracked up to the given order."""
    out = np.zeros(order, dtype=complex)
    out[0] = 1.0
    return TruncSeries(out, 1, var_tag)


def from_poly(coeffs, var_tag="", order=DEFAULT_TRUNC):
    """Series of a polynomial sum(coeffs[k] z^k), exact, padded to order."""
    c = np.zeros(max(order + 1, len(coeffs)), dtype=complex)
    c[:len(coeffs)] = coeffs
    return TruncSeries(c[:order + 1], 0, var_tag)


def _horner(p, t):
    """p(t) for ascending coefficients p and a series t, from a constant
    whose window never clips the products."""
    acc = constant(p[-1], t.var_tag,
                   t.trunc_order + abs(t.k_min) + len(t.coeffs) + 4)
    for ck in p[-2::-1]:
        acc = acc * t + ck
    return acc


def inverse_at(c, s, n) -> np.ndarray:
    """Coefficients of 1/(c[i, p] + s[i](t)) through t^n on axis 1, for a
    stack of charts i, c of shape (A, P) (c != 0), s[i] the Taylor
    coefficients of chart i through t^n (s[i, 0] is not read): the
    recurrence of the series reciprocal, each step one batched product."""
    rs = np.asarray(s)[:, None, n:0:-1]         # rs[:, 0, n - j] = [t^j] s
    inv = np.empty((len(c), n + 1, len(c[0])), dtype=complex)
    inv[:, 0] = 1.0 / np.asarray(c)
    neg = -inv[:, 0]
    for m in range(1, n + 1):
        inv[:, m] = neg * (rs[:, :, n - m:] @ inv[:, :m])[:, 0]
    return inv


def log_jet(jet) -> np.ndarray:
    """Taylor coefficients b_k of log f(c + t), k = 0..n on axis 0, from
    those of f (f(c) != 0), for every c of an ndarray at once: b_0 is
    log f(c) and k b_k = k r_k - sum_(0<i<k) i b_i r_(k-i), r = f/f(c)."""
    jet = np.asarray(jet, dtype=complex)
    r = jet / jet[0]
    k = np.arange(len(r)).reshape((-1,) + (1,) * (r.ndim - 1))
    kb = k * r                                  # becomes k b_k, row by row
    for m in range(2, len(r)):
        kb[m] -= np.einsum("i...,i...->...", kb[1:m], r[m - 1:0:-1])
    kb[1:] /= k[1:]
    kb[0] = np.log(jet[0])
    return kb


def _series_exp(f: TruncSeries) -> TruncSeries:
    """exp of a series with vanishing constant term, from e' = e f'."""
    if f.k_min < 1 and abs(f.coeff(0)) > 0:
        raise SpectralFlowError("series exp needs vanishing constant term")
    n = f.trunc_order
    df = f.differentiate()
    d = np.array([df.coeff(k) for k in range(n)], dtype=complex)
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for m in range(1, n + 1):
        e[m] = np.dot(e[:m], d[m - 1::-1]) / m
    return TruncSeries(e, 0, f.var_tag)


def truncate(f: TruncSeries, n_or_K: int, absolute=False) -> TruncSeries:
    """Keep ``n`` coefficients (or clip to absolute order K)."""
    K = n_or_K if absolute else f.k_min + n_or_K - 1
    n = min(K - f.k_min + 1, len(f.coeffs))
    if n <= 0:
        raise TruncationTooShort("truncation removes every coefficient")
    return TruncSeries(f.coeffs[:n], f.k_min, f.var_tag)

