"""Spectral-curve backends: genus-0 rational and genus-1 Weierstrass.

A curve carries two meromorphic functions X, Y in a global chart (z on
the sphere, u on the torus), classified ramification points with their
sheet involutions as truncated series, pole frames of X, and a sheet
solver.  Everything is validated at build time; instances are immutable
and all queries are pure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .elliptic import EllipticTools
from .errors import (
    BadModulus,
    NearBranchPoint,
    NonSimpleRamification,
    NotRepresentable,
    RootFindingFailed,
    SingularCurve,
    ThetaZeroDivision,
)
from .series import DEFAULT_TRUNC, TruncSeries, _monomial, _series_exp

# kernel arguments this close to 0 (or to a lattice point) are taken to
# sit on the pole, and their series carry the Laurent head
_ON_POLE = 1e-9


# -- rational functions -------------------------------------------------------

def _poly_shift(c: np.ndarray, z0: complex) -> np.ndarray:
    """Coefficients of p(z0 + s) from those of p(z) (Taylor shift)."""
    from math import comb
    c = np.asarray(c, dtype=complex)
    n = len(c)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        ck = c[k]
        if ck == 0:
            continue
        for j in range(k, -1, -1):
            out[j] += ck * comb(k, j) * z0 ** (k - j)
    return out


class RationalFunction:
    """P(z)/Q(z) with ascending complex coefficient arrays."""

    def __init__(self, num, den=(1.0,)):
        self.num = np.trim_zeros(np.asarray(num, dtype=complex), "b")
        self.den = np.trim_zeros(np.asarray(den, dtype=complex), "b")
        if self.num.size == 0:
            self.num = np.zeros(1, dtype=complex)
        if self.den.size == 0:
            raise ZeroDivisionError("zero denominator polynomial")

    def __call__(self, z):
        return (np.polynomial.polynomial.polyval(z, self.num)
                / np.polynomial.polynomial.polyval(z, self.den))

    def deriv(self) -> "RationalFunction":
        der = np.polynomial.polynomial.polyder
        mul = np.polynomial.polynomial.polymul
        num = np.polynomial.polynomial.polysub(
            mul(der(self.num), self.den), mul(self.num, der(self.den)))
        return RationalFunction(num, mul(self.den, self.den))

    def series(self, z0: complex, order: int, var_tag="") -> TruncSeries:
        n = max(len(self.num), len(self.den)) + order + 1
        p = np.zeros(n, dtype=complex)
        q = np.zeros(n, dtype=complex)
        p[:len(self.num)] = self.num
        q[:len(self.den)] = self.den
        ps = TruncSeries(_poly_shift(p, z0)[:order + 1 + len(self.num)], 0,
                         var_tag=var_tag)
        qs = TruncSeries(_poly_shift(q, z0)[:order + 1 + len(self.den)], 0,
                         var_tag=var_tag)
        # deformation sums carry removable 0/0 factors at special points
        return _trim_leading_noise(ps) / _trim_leading_noise(qs)

    def series_at_infinity(self, order: int, var_tag="w@inf") -> TruncSeries:
        """Series in w = 1/z."""
        dp, dq = len(self.num) - 1, len(self.den) - 1
        n = order + max(dp, dq) + 2
        pr = np.zeros(n, dtype=complex)
        qr = np.zeros(n, dtype=complex)
        pr[:dp + 1] = self.num[::-1]
        qr[:dq + 1] = self.den[::-1]
        ps = TruncSeries(pr, dq - dp, var_tag=var_tag)  # w^{-dp} P_rev -> shift
        qs = TruncSeries(qr, 0, var_tag=var_tag)
        return ps / qs

    def finite_poles(self):
        """[(location, multiplicity)] for roots of the denominator."""
        if len(self.den) == 1:
            return []
        roots = np.polynomial.polynomial.polyroots(self.den)
        return _cluster(roots)

    def degree_as_map(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    # small arithmetic closure, enough for curve deformations
    def add(self, other):
        pol = np.polynomial.polynomial
        num = pol.polyadd(pol.polymul(self.num, other.den),
                          pol.polymul(other.num, self.den))
        return RationalFunction(num, pol.polymul(self.den, other.den))

    def scale(self, c):
        return RationalFunction(self.num * c, self.den)


def _cluster(roots, tol=1e-7):
    """Group numerically equal roots into (value, multiplicity) pairs."""
    roots = sorted(roots, key=lambda r: (round(r.real, 7), round(r.imag, 7)))
    out = []
    for r in roots:
        if out and abs(r - out[-1][0]) < tol * max(1.0, abs(r)):
            val, m = out[-1]
            out[-1] = ((val * m + r) / (m + 1), m + 1)
        else:
            out.append((r, 1))
    return [(complex(v), int(m)) for v, m in out]


# -- data records ---------------------------------------------------------------

class RamificationPoint:
    """Simple zero of dX with its local double-sheet structure.

    All series are in the local coordinate zeta = sqrt(X - X(a)):
    ``s_of_zeta`` maps zeta to the chart offset s = z - a, and the
    involution is s(-zeta).
    """

    def __init__(self, location, branch_value, s_of_zeta, y_series, index):
        self.location = complex(location)
        self.branch_value = complex(branch_value)
        self.s_of_zeta = s_of_zeta
        self.y_series = y_series          # Y(z(zeta)) as series in zeta
        self.index = index

    @property
    def involution(self) -> TruncSeries:
        return flip_parity(self.s_of_zeta)


def flip_parity(f: TruncSeries) -> TruncSeries:
    """f(-zeta) for a series in zeta."""
    ks = np.arange(f.k_min, f.trunc_order + 1)
    return TruncSeries(f.coeffs * (-1.0 + 0j) ** (ks % 2), f.k_min,
                       f.ram_index, f.var_tag)


class PoleFrame:
    """Local coordinate xi(s) at a point p = location + s: X^(-1/d) at a
    pole of X of order d >= 1, X - X(p) (order -1) at a pole of a form
    where X is regular."""

    def __init__(self, location, order, xi_of_s):
        self.location = location          # chart value or "inf"
        self.order = int(order)
        self.xi_of_s = xi_of_s

    @cached_property
    def s_of_xi(self):
        """The chart offset s as a series in xi."""
        return self.xi_of_s.functional_inverse()


class SheetStructure:
    """The d preimages of a base value x, deterministically ordered."""

    def __init__(self, x, preimages, near_branch=False):
        self.x = complex(x)
        self.preimages = list(preimages)
        self.near_branch = bool(near_branch)


def _sort_points(pts):
    return sorted(pts, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# -- the curve ---------------------------------------------------------------------

class SpectralCurve:
    """Parametrized spectral curve with validated regularity."""

    def __init__(self, genus, order=DEFAULT_TRUNC):
        self.genus = genus
        self.order = order
        self.ramification_points: list[RamificationPoint] = []
        self.x_poles: list[PoleFrame] = []

    # subclasses provide: x_value, y_value, dx_value,
    # x_series(center, order), y_series(center, order), sheets_above,
    # deformed(...), d (degree of X as a map), the reduced Bergman
    # kernel B(z1, z2) = F(z1 - z2) dz1 dz2 in the global chart:
    #   bergman(v)                    F(v)
    #   bergman_primitive(v)          P(v) with P' = -F
    #   bergman_taylor(c, inner, n)   [F^(q)(c + inner)/q! for q < n]
    #   bergman_derivs(v, n)          [F^(q)(v)/q! for q < n]
    #   bergman_primitive_series(c, order)   P(c + t)
    # where inner is a series vanishing at 0 (often t itself); the series
    # carry the Laurent head when c sits on the pole of F; point values
    # (bergman, bergman_primitive, bergman_derivs with q on a new first
    # axis, x/y/dx_value) broadcast over an ndarray of points; and the
    # reduced Szego factor theta(v + zeta)/(theta(zeta) E(v)), with
    # theta = 1 on the sphere and theta1 on the torus:
    #   prime_form(v)                 E(v)
    #   theta_ratio(v, zeta)          theta(v + zeta)/theta(zeta)
    #   szego_series(c, inner, zeta)  theta_ratio/prime_form at c + inner

    def branch_values(self):
        return [r.branch_value for r in self.ramification_points]

    def _branch_scale(self):
        vals = [abs(v) for v in self.branch_values()]
        return max(vals) if vals else 1.0

    def check_near_branch(self, x, raise_on_hit=False):
        scale = max(self._branch_scale(), 1.0)
        near = any(abs(x - b) < 1e-6 * scale for b in self.branch_values())
        if near and raise_on_hit:
            raise NearBranchPoint(f"x = {x} within 1e-6*scale of a branch value")
        return near

    def _validate_ramification(self):
        locs = [r.location for r in self.ramification_points]
        for i, a in enumerate(locs):
            for b in locs[i + 1:]:
                if abs(a - b) < 1e-6:
                    raise NonSimpleRamification(
                        f"ramification points {a} and {b} collide")
        for r in self.ramification_points:
            odd = r.y_series - flip_parity(r.y_series)
            if abs(odd.coeff(1)) < 1e-10:
                raise SingularCurve(
                    f"dY vanishes at ramification point {r.location}")
            # involution must satisfy X(s(-zeta)) = X(a) + zeta^2
            fwd = self.x_series_in_zeta(r)
            res = max(abs(fwd.coeff(k) - (1.0 if k == 2 else 0.0))
                      for k in range(fwd.k_min, min(fwd.trunc_order,
                                                    self.order) + 1))
            if res > 1e-8:
                raise SingularCurve(
                    f"local coordinate at {r.location} inconsistent: {res}")

    def x_series_in_zeta(self, ram: RamificationPoint) -> TruncSeries:
        xs = self.x_series(ram.location, self.order + 2) - ram.branch_value
        return xs.compose(ram.s_of_zeta)

    def local_chart(self, ram: RamificationPoint, order: int):
        """(s_of_zeta, zeta_of_s, y_in_zeta) rebuilt at the given order.

        The recursion needs deeper windows than the validation series
        stored on the ramification points."""
        return self._chart(ram.location, ram.branch_value, order,
                           ram.s_of_zeta.var_tag)

    def _chart(self, a, xa, order, tag):
        """(s_of_zeta, zeta_of_s, y_in_zeta) at a simple zero a of dX
        with X(a) = xa, in zeta = sqrt(X - xa) tagged ``tag``."""
        xs = self.x_series(a, order + 4) - xa
        if self.genus == 1:
            # wp(a + s) is even in s at a half period: odd slots are noise
            coeffs = xs.coeffs.copy()
            ks = np.arange(xs.k_min, xs.trunc_order + 1)
            coeffs[(ks % 2).astype(bool)] = 0.0
            xs = TruncSeries(coeffs, xs.k_min, xs.ram_index, xs.var_tag)
        if abs(xs.coeff(1)) > 1e-9 * max(1.0, abs(xs.coeff(2))):
            raise NonSimpleRamification(
                f"inconsistent vanishing of dX at {a}")
        xs = _drop_low_noise(xs)
        zeta_of_s = xs.sqrt().retag(tag)          # odd-start series in s
        s_of_zeta = zeta_of_s.functional_inverse()
        ys = self.y_series(a, order + 4).compose(s_of_zeta)
        return s_of_zeta, zeta_of_s, ys


class Genus0Curve(SpectralCurve):
    def __init__(self, X: RationalFunction, Y: RationalFunction,
                 order=DEFAULT_TRUNC):
        super().__init__(0, order)
        self.X, self.Y = X, Y
        self.dX = X.deriv()
        self.d = X.degree_as_map()
        self._find_ramification()
        self._find_x_poles()
        self._validate_ramification()

    # chart helpers (z-chart; "inf" handled through w = 1/z)
    def x_value(self, z):
        return self.X(z)

    def y_value(self, z):
        return self.Y(z)

    def dx_value(self, z):
        return self.dX(z)

    def x_series(self, center, order, tag=None):
        if center == "inf":
            return self.X.series_at_infinity(order)
        return self.X.series(center, order, tag or f"s@{center:.6g}")

    def y_series(self, center, order, tag=None):
        if center == "inf":
            return self.Y.series_at_infinity(order)
        return self.Y.series(center, order, tag or f"s@{center:.6g}")

    # Bergman kernel: F(v) = 1/v^2, P(v) = 1/v
    def bergman(self, v):
        return 1.0 / v ** 2

    def bergman_primitive(self, v):
        return 1.0 / v

    def bergman_taylor(self, c, inner, count):
        """F^(q)(c + inner)/q! = (-1)^q (q+1) (c + inner)^-(q+2).

        The powers come from inverting c + inner itself: expanding
        1/(c + t)^2 first and composing with inner loses digits."""
        base = inner + c if abs(c) >= _ON_POLE else inner
        binv = base.invert()
        acc = binv * binv
        out = [acc]
        for q in range(1, count):
            acc = acc * binv
            out.append(acc * ((-1.0) ** q * (q + 1)))
        return out

    def bergman_derivs(self, v, count):
        """[F^(q)(v)/q! = (-1)^q (q+1) v^-(q+2) for q < count]."""
        q = np.arange(count).reshape((-1,) + (1,) * np.ndim(v))
        return (-1.0) ** q * (q + 1) / np.asarray(v) ** (q + 2)

    def bergman_primitive_series(self, c, order):
        """1/(c + t), known through t^order."""
        if abs(c) < _ON_POLE:
            return TruncSeries(np.concatenate([[1.0], np.zeros(order + 1)]),
                               -1)
        return TruncSeries(np.concatenate([[c, 1.0], np.zeros(order - 1)]),
                           0).invert()

    def bergman_taylor_at_infinity(self, p, count, order):
        """[F^(q)(p - z)/q! dz/dw for q < count] in the chart w = 1/z:
        -(q+1) w^q (1 - p w)^-(q+2), known through w^order."""
        base = TruncSeries(np.concatenate([[1.0, -p], np.zeros(order)]), 0,
                           var_tag="w@inf")
        binv = base.invert()
        acc = binv * binv
        out = [-acc]
        for q in range(1, count):
            acc = acc * binv
            out.append(acc.shift(q) * (-(q + 1.0)))
        return out

    # Szego factor: E(v) = v and theta = 1
    def prime_form(self, v):
        return v

    def theta_ratio(self, v, zeta):
        return 1.0

    def szego_series(self, c, inner, zeta):
        """1/(c + inner)."""
        return (inner + c).invert()

    def _find_ramification(self):
        pol = np.polynomial.polynomial
        num = pol.polysub(pol.polymul(pol.polyder(self.X.num), self.X.den),
                          pol.polymul(self.X.num, pol.polyder(self.X.den)))
        num = np.trim_zeros(num, "b")
        if len(num) <= 1:
            return
        roots = _cluster(pol.polyroots(num))
        den_roots = [p for p, _ in self.X.finite_poles()]
        idx = 0
        for a, mult in roots:
            if any(abs(a - q) < 1e-7 for q in den_roots):
                continue                      # cancelled by a pole of X
            if mult > 1:
                raise NonSimpleRamification(
                    f"dX has a zero of order {mult} at {a}")
            xa = self.X(a)
            s_of_zeta, _, ys = self._chart(a, xa, self.order, f"zeta@{idx}")
            self.ramification_points.append(RamificationPoint(
                a, xa, s_of_zeta, ys, idx))
            idx += 1
        self.ramification_points.sort(
            key=lambda r: (round(r.location.real, 9),
                           round(r.location.imag, 9)))
        for i, r in enumerate(self.ramification_points):
            r.index = i

    def _find_x_poles(self):
        for p, m in self.X.finite_poles():
            xs = self.X.series(p, self.order + 4)
            xi = _root_coordinate(xs, m, f"xi@{p:.6g}")
            self.x_poles.append(PoleFrame(p, m, xi))
        dp = len(self.X.num) - len(self.X.den)
        if dp >= 1:
            xs = self.X.series_at_infinity(self.order + 4 + dp)
            xi = _root_coordinate(xs, dp, "xi@inf")
            self.x_poles.append(PoleFrame("inf", dp, xi))

    def sheets_above(self, x, allow_near_branch=False) -> SheetStructure:
        near = self.check_near_branch(x, raise_on_hit=not allow_near_branch)
        pol = np.polynomial.polynomial
        coeffs = pol.polysub(self.X.num, np.asarray([x]) * np.pad(
            self.X.den, (0, max(0, len(self.X.num) - len(self.X.den)))))
        coeffs = np.trim_zeros(np.atleast_1d(coeffs), "b")
        if len(coeffs) - 1 != self.d:
            raise RootFindingFailed(
                f"degree drop at x = {x}: preimages escape to infinity")
        roots = pol.polyroots(coeffs)
        if len(roots) != self.d:
            raise RootFindingFailed(f"expected {self.d} preimages at x = {x}")
        # Newton polish
        roots = [_newton(lambda z: self.X(z) - x, self.dX, r) for r in roots]
        return SheetStructure(x, _sort_points(roots), near)

    def deformed(self, dY: RationalFunction) -> "Genus0Curve":
        """New curve with Y -> Y + dY."""
        return Genus0Curve(self.X, self.Y.add(dY), self.order)

    def scaled(self, lam: complex) -> "Genus0Curve":
        """(X, Y) -> (lam X, Y / lam)."""
        return Genus0Curve(RationalFunction(self.X.num * lam, self.X.den),
                           self.Y.scale(1.0 / lam), self.order)


def _drop_low_noise(f: TruncSeries, upto: int = 2) -> TruncSeries:
    """Zero roundoff-level coefficients below exponent ``upto``.

    Used where a vanishing low order is known analytically (simple
    ramification) but root polishing leaves ~1e-16 residue.
    """
    coeffs = f.coeffs.copy()
    ks = np.arange(f.k_min, f.trunc_order + 1)
    scale = np.max(np.abs(coeffs))
    mask = (ks < upto) & (np.abs(coeffs) < 1e-9 * scale)
    coeffs[mask] = 0.0
    return TruncSeries(coeffs, f.k_min, f.ram_index, f.var_tag)


def _root_coordinate(x_series: TruncSeries, m: int, tag: str) -> TruncSeries:
    """xi(s) = X(s)^(-1/m) near a pole of X of order m (principal branch)."""
    inv = x_series.invert()               # k_min = m
    lead = inv.coeffs[0]
    root = np.exp(np.log(lead) / m)
    unit = inv.shift(-m) * (1.0 / lead)
    if m == 1:
        frac = unit
    elif m == 2:
        frac = unit.sqrt()
    else:
        # unit^(1/m) via exp(log/m)
        lg = (unit.differentiate() * unit.invert()).antiderivative()
        frac = _series_exp(lg * (1.0 / m))
    return (frac * root).shift(1).retag(tag)


def _newton(f, df, z0, steps=40, tol=1e-14):
    z = complex(z0)
    for _ in range(steps):
        fz = f(z)
        d = df(z)
        if d == 0:
            break
        step = fz / d
        z -= step
        if abs(step) < tol * max(1.0, abs(z)):
            break
    return z


class Genus1Curve(SpectralCurve):
    """X = x_scale * wp(u), Y = R1(wp) + R2(wp) wp'(u) on C/(Z + tau Z)."""

    def __init__(self, tau, R1: RationalFunction, R2: RationalFunction,
                 x_scale=1.0, order=DEFAULT_TRUNC):
        if not (np.imag(tau) > 0):
            raise BadModulus(f"Im tau = {np.imag(tau)} must be positive")
        super().__init__(1, order)
        self.tau = complex(tau)
        self.R1, self.R2 = R1, R2
        self.x_scale = complex(x_scale)
        self.ell = EllipticTools(tau, order + 12)
        self.d = 2
        self._find_ramification()
        self._find_x_poles()
        self._validate_ramification()

    def x_value(self, u):
        return self.x_scale * self.ell.wp(u)

    def y_value(self, u):
        w = self.ell.wp(u)
        return self.R1(w) + self.R2(w) * self.ell.wp_prime(u)

    def dx_value(self, u):
        return self.x_scale * self.ell.wp_prime(u)

    def x_series(self, center, order, tag=None):
        return self.ell.wp_series(center, order).retag(
            tag or f"s@{center:.6g}") * self.x_scale

    def y_series(self, center, order, tag=None):
        wp = self.ell.wp_series(center, order + 4)
        wpp = wp.differentiate()
        r1 = _compose_rational(self.R1, wp, order)
        r2 = _compose_rational(self.R2, wp, order)
        out = r1 + r2 * wpp
        return out.retag(tag or f"s@{center:.6g}")

    # Bergman kernel: F(v) = -(ln theta1)''(v), P(v) = (ln theta1)'(v)
    def bergman(self, v):
        return -self.ell.theta.log_theta1_d(v, 2)

    def bergman_primitive(self, v):
        return self.ell.theta.log_theta1_d(v, 1)

    def _bergman_series(self, c, order):
        """F(c + t), known through t^order; wp - c0 at lattice points."""
        ell = self.ell
        if ell.is_lattice(c, _ON_POLE):
            return ell.wp_laurent_at_zero(order) - ell.c0
        return -ell.log_theta1_series(c, order).differentiate().differentiate()

    def bergman_taylor(self, c, inner, count):
        """[F^(q)(c + inner)/q! for q < count].

        All q are read off one series F(c + t) = sum f_k t^k: the
        coefficient of t^k in F^(q)(c + t)/q! is C(k+q, q) f_(k+q).  They
        are composed with ``inner`` at once, through one table of the
        powers of inner that carry a nonzero coefficient."""
        K = inner.trunc_order
        F = self._bergman_series(c, K + count)
        k0 = F.k_min - count + 1
        e = np.arange(k0, F.trunc_order + 1)
        D = np.zeros((count, len(e)), dtype=complex)
        D[0, F.k_min - k0:] = F.coeffs
        for q in range(1, count):
            D[q, :-1] = D[q - 1, 1:] * (e[1:] / q)
        # inner^-p is known through t^(K-1-p)
        top = K if k0 >= 0 else K - 1 + k0
        D, e = D[:, :top - k0 + 1], e[:top - k0 + 1]
        used = np.any(D, axis=0)
        T = D[:, used] @ _power_table(inner, e[used], k0, top)
        return [TruncSeries(row, k0, inner.ram_index, inner.var_tag)
                for row in T]

    def bergman_derivs(self, v, count):
        """[F^(q)(v)/q! for q < count]: -(q+2)(q+1) b_(q+2), where
        ln theta1(v + t) = sum_k b_k t^k comes from one theta1 jet by the
        log-series recurrence k b_k = k r_k - sum_(0<i<k) i b_i r_(k-i),
        r_k = theta1^(k)(v)/(k! theta1(v))."""
        n = count + 1
        q = np.arange(n + 1.0).reshape((-1,) + (1,) * np.ndim(v))
        jet = self.ell.theta.theta1_jet(v, n)
        r = (jet / np.cumprod(np.maximum(q, 1.0), axis=0))[1:] / jet[0]
        b = np.zeros_like(r)                # b[k - 1] = b_k
        for k in range(1, n + 1):
            b[k - 1] = r[k - 1] - sum(i * b[i - 1] * r[k - i - 1]
                                      for i in range(1, k)) / k
        return -(q[:count] + 2) * (q[:count] + 1) * b[1:]

    def bergman_primitive_series(self, c, order):
        """(ln theta1)'(c + t), known through t^order."""
        ell = self.ell
        if not ell.is_lattice(c, _ON_POLE):
            return ell.log_theta1_series(c, order - 1).differentiate()
        # (ln theta1)'' = c0 - wp: integrate the part past the 1/t^2 head;
        # a shift by m + n tau adds the quasi-period -2 i pi n
        wp = ell.wp_laurent_at_zero(order - 1)
        reg = (ell.c0 - (wp - _monomial(-2, 1.0, wp))).antiderivative()
        n = round(complex(c).imag / self.tau.imag)
        return reg + _monomial(-1, 1.0, reg) - 2j * np.pi * n

    # Szego factor: E(v) = theta1(v)/theta1'(0) and theta = theta1
    def prime_form(self, v):
        th = self.ell.theta
        return th.theta1(v) / th.theta1(0.0, 1)

    def theta_ratio(self, v, zeta):
        th = self.ell.theta
        den = th.theta1(zeta)
        if abs(den) < 1e-12:
            raise ThetaZeroDivision("theta(zeta) on the divisor")
        return th.theta1(v + zeta) / den

    def szego_series(self, c, inner, zeta):
        """theta1(c + zeta + inner) theta1'(0) / (theta1(c + inner)
        theta1(zeta)), from Taylor series of theta1 cut at 40 terms."""
        th = self.ell.theta
        depth = min(len(inner.coeffs), 40)
        num = TruncSeries(th.theta1_taylor(c + zeta, depth), 0).compose(inner)
        den = TruncSeries(th.theta1_taylor(c, depth), 0).compose(inner)
        return num * den.invert() * (th.theta1(0.0, 1) / th.theta1(zeta))

    def _find_ramification(self):
        halves = [0.5, 0.5 * self.tau, 0.5 * (1 + self.tau)]
        for idx, a in enumerate(halves):
            xa = self.x_value(a)
            s_of_zeta, _, ys = self._chart(a, xa, self.order, f"zeta@{idx}")
            self.ramification_points.append(RamificationPoint(
                a, xa, s_of_zeta, ys, idx))

    def _find_x_poles(self):
        xs = self.x_series(0.0, self.order + 6)
        xi = _root_coordinate(xs, 2, "xi@0")
        self.x_poles.append(PoleFrame(0.0, 2, xi))

    def sheets_above(self, x, allow_near_branch=False) -> SheetStructure:
        """The preimages u and -u of x: wp is even, so one Newton solve
        gives both.  Seeds on an 8 x 8 grid are tried in turn until one
        converges off the lattice."""
        near = self.check_near_branch(x, raise_on_hit=not allow_near_branch)
        target = x / self.x_scale
        grid = 9
        for i in range(1, grid):
            for j in range(1, grid):
                u0 = (i / grid) + (j / grid) * self.tau
                u = _newton(lambda u: self.ell.wp(u) - target,
                            self.ell.wp_prime, u0, steps=60)
                if abs(self.ell.wp(u) - target) > 1e-9 * max(1.0, abs(target)):
                    continue
                u = self.ell.to_cell(u)
                if self.ell.is_lattice(u, tol=1e-6):
                    continue
                if self.ell.is_lattice(2 * u, tol=1e-6):
                    raise RootFindingFailed(
                        f"x = {x} is a branch value: its preimages coincide")
                pair = [u, self.ell.to_cell(-u)]
                return SheetStructure(x, _sort_points(pair), near)
        raise RootFindingFailed(f"wp inversion did not converge at x = {x}")

    def deformed(self, dR1: RationalFunction, dR2: RationalFunction):
        return Genus1Curve(self.tau, self.R1.add(dR1), self.R2.add(dR2),
                           self.x_scale, self.order)

    def scaled(self, lam: complex) -> "Genus1Curve":
        return Genus1Curve(self.tau, self.R1.scale(1.0 / lam),
                           self.R2.scale(1.0 / lam), self.x_scale * lam,
                           self.order)


def _power_table(inner: TruncSeries, exps, lo, hi) -> np.ndarray:
    """Rows: coefficients of inner^e on t^lo..t^hi, for e in ``exps``
    (ascending); inner starts at t^1."""
    pows = {0: TruncSeries(np.ones(1), 0)}
    if exps[-1] > 0:
        pows[1] = inner
        for e in range(2, exps[-1] + 1):
            pows[e] = pows[e - 1] * inner
    if exps[0] < 0:
        pows[-1] = inner.invert()
        for e in range(-2, exps[0] - 1, -1):
            pows[e] = pows[e + 1] * pows[-1]
    out = np.zeros((len(exps), hi - lo + 1), dtype=complex)
    for i, e in enumerate(exps):
        p = pows[e]
        n = min(p.trunc_order, hi) - p.k_min + 1
        out[i, p.k_min - lo:p.k_min - lo + n] = p.coeffs[:n]
    return out


def _compose_rational(R: RationalFunction, inner: TruncSeries,
                      order: int) -> TruncSeries:
    """R(inner) where inner may be a Laurent series (wp at its pole).

    Denominators like wp'^2 have structural zeros at half periods, so
    roundoff-level leading coefficients are trimmed before division.
    """
    def poly_of(c):
        out = None
        for ck in np.asarray(c, dtype=complex)[::-1]:
            if out is None:
                out = ck * (inner ** 0)
            else:
                out = out * inner + ck
        return out

    num = _trim_leading_noise(poly_of(R.num))
    den = _trim_leading_noise(poly_of(R.den))
    return num / den


def _trim_leading_noise(f: TruncSeries, rel=3e-12) -> TruncSeries:
    """Zero leading coefficients that are roundoff relative to the head."""
    coeffs = f.coeffs.copy()
    scale = np.max(np.abs(coeffs[:8])) if len(coeffs) else 0.0
    i = 0
    while i < len(coeffs) - 1 and abs(coeffs[i]) < rel * scale:
        coeffs[i] = 0.0
        i += 1
    return TruncSeries(coeffs, f.k_min, f.ram_index, f.var_tag)


# -- sheet continuation ----------------------------------------------------------

def continue_sheets(curve, x_path, preimages):
    """Track preimages along a discrete x-path by nearest Newton basin."""
    current = list(preimages)
    for x in x_path:
        if curve.genus == 0:
            current = [
                _newton(lambda z: curve.x_value(z) - x, curve.dx_value, z)
                for z in current]
        else:
            current = [
                curve.ell.to_cell(_newton(
                    lambda z: curve.x_value(z) - x, curve.dx_value, z))
                for z in current]
    return current


# -- JSON schema --------------------------------------------------------------------

def _cnum(obj):
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    return complex(obj)


def _rat(obj) -> RationalFunction:
    num = [_cnum(c) for c in obj.get("num", [0.0])]
    den = [_cnum(c) for c in obj.get("den", [1.0])]
    return RationalFunction(num, den)


def build_curve(spec: dict, order=DEFAULT_TRUNC) -> SpectralCurve:
    """Construct a curve from its JSON description.

    Schemas:
      {"backend": "rational", "X": {"num": [...], "den": [...]},
       "Y": {"num": [...], "den": [...]}}
      {"backend": "weierstrass", "tau": {"re": .., "im": ..},
       "Y": {"R1": {...}, "R2": {...}}}
    Complex numbers are written {"re": .., "im": ..}; bare reals are
    accepted as well.
    """
    backend = spec.get("backend")
    if backend == "rational":
        return Genus0Curve(_rat(spec["X"]), _rat(spec["Y"]), order)
    if backend == "weierstrass":
        tau = _cnum(spec["tau"])
        y = spec.get("Y", {})
        return Genus1Curve(tau, _rat(y.get("R1", {"num": [0.0]})),
                           _rat(y.get("R2", {"num": [0.0]})),
                           _cnum(spec.get("xscale", 1.0)), order)
    raise NotRepresentable(f"unknown backend {backend!r}")
