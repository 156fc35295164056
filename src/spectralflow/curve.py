"""Spectral-curve backends: genus-0 rational and genus-1 Weierstrass.

A curve carries two meromorphic functions X, Y in a global chart (z on
the sphere, u on the torus), a Frame (a local coordinate and its chart)
at each ramification point and each pole of X, and a sheet solver.
Everything is validated at build time, and all queries are pure.  Three
things are kept as they are first computed: each frame's deepest chart,
the regular frame at a point (``forms.pole_frame``), and the sheet data
of a base value, so every ClassicalSystem on the curve solves it once.
"""

from __future__ import annotations

import cmath
from functools import cached_property, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import BoundedCache
from .elliptic import EllipticTools
from .errors import (
    CoincidentPoints,
    NearBranchPoint,
    NonSimpleRamification,
    NotRepresentable,
    ResidueSumNonzero,
    RootFindingFailed,
    SingularCurve,
    ThetaZeroDivision,
    TruncationTooShort,
)
from .series import (
    DEFAULT_TRUNC,
    TruncSeries,
    _horner,
    _series_exp,
    inverse_at,
    log_jet,
    truncate,
)

# kernel arguments this close to 0 (or to a lattice point) are taken to
# sit on the pole, and their series carry the Laurent head
_ON_POLE = 1e-9


def _log_linear(o, n) -> np.ndarray:
    """Rows k = 0..n of [t^k] log(o + t): log o, then -(-1/o)^k/k."""
    o = np.asarray(o, dtype=complex)
    out = np.empty((n + 1,) + o.shape, dtype=complex)
    out[0] = np.log(o)
    out[1:] = -1.0 / o
    np.cumprod(out[1:], axis=0, out=out[1:])
    out[1:] /= -np.arange(1.0, n + 1).reshape((-1,) + (1,) * o.ndim)
    return out


def _binomials(n, count) -> np.ndarray:
    """[..., k] = C(n + k, k) = prod_(j<=k) (n + j)/j, k < count."""
    k = np.arange(1.0, count)
    steps = np.concatenate([np.ones(np.shape(n) + (1,)),
                            (np.expand_dims(n, -1) + k) / k], axis=-1)
    return np.cumprod(steps, axis=-1)


def _log1m_rise(ya, yb):
    """log(1 - e^(2 i pi y)) continued along the straight segments
    [ya, yb]: the principal log above the real axis, 2 i pi y + log(1 -
    e^(-2 i pi y)) below it.  Where a segment crosses the real axis at x,
    the first exceeds the second by -i pi (2 floor(x) + 1)."""
    y = np.stack([ya, yb])
    below = y.imag < 0
    w = np.exp(2j * np.pi * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        side = np.log1p(-np.where(below, 1.0 / w, w)) + 2j * np.pi * y * below
        cross = below[0].astype(float) - below[1]
        x = ya.real + (yb - ya).real * ya.imag / (ya.imag - yb.imag)
        turn = np.where(cross != 0, cross * (2 * np.floor(x) + 1), 0.0)
    return side[1] - side[0] + 1j * np.pi * turn


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
    """P(z)/Q(z) with ascending complex coefficient arrays.

    Every expansion of a rational function is one composition, ``R.of``:
    R of a TruncSeries (c + s at a point, w^-1 at inf, wp's Laurent series
    at a lattice point) or of another RationalFunction.  ``+``, ``-``, ``*``
    and ``/`` take a RationalFunction or a number, ``**`` an integer.  ``+``
    and ``-`` over equal denominators keep one copy of it, and ``of`` a
    rational inner builds no common factor; otherwise none is cancelled,
    and ``of`` a series divides out the zeros it would leave.
    Point values take each multiple pole's factor (z - p)^m apart from
    the rest of Q: its monomial coefficients would lose a deep pole.
    """

    def __init__(self, num, den=(1.0,)):
        self.num = np.trim_zeros(np.asarray(num, dtype=complex), "b")
        self.den = np.trim_zeros(np.asarray(den, dtype=complex), "b")
        if self.num.size == 0:
            self.num = np.zeros(1, dtype=complex)
        if self.den.size == 0:
            raise NotRepresentable("zero denominator polynomial")

    def __call__(self, z):
        deep, rest = self._split
        den = np.polynomial.polynomial.polyval(z, rest)
        for p, m in deep:
            den = den * (z - p) ** m
        return np.polynomial.polynomial.polyval(z, self.num) / den

    def of(self, inner):
        """R(inner).  Of a rational inner P/Q, in homogeneous form: with
        R = sum n_i z^i / sum d_i z^i and D its degree as a map, R(P/Q) =
        sum n_i P^i Q^(D - i) / sum d_i P^i Q^(D - i).  Of a series, with c
        its t^0 coefficient, the numerator and the denominator are shifted
        to c, their zeros of order m at c divided out (``_at``), and both
        evaluated by Horner on t = inner - c: R(inner) = P(t)/Q(t) t^(m_P -
        m_Q); a constant Q is a scalar division, a constant R skips _at."""
        if isinstance(inner, RationalFunction):
            top = self.degree_as_map()
            return RationalFunction(_homogeneous(self.num, inner, top),
                                    _homogeneous(self.den, inner, top))
        c = inner.coeff(0)
        t = inner - c if c else inner
        if self.degree_as_map() == 0:
            return _horner(self.num, t) / self.den[0]
        (m, num), (k, den) = _at(self.num, c), _at(self.den, c)
        out = _horner(num, t) / (den[0] if len(den) == 1 else _horner(den, t))
        return out * t ** (m - k) if m != k else out

    def deriv(self) -> "RationalFunction":
        der = np.polynomial.polynomial.polyder
        mul = np.polynomial.polynomial.polymul
        num = np.polynomial.polynomial.polysub(
            mul(der(self.num), self.den), mul(self.num, der(self.den)))
        return RationalFunction(num, mul(self.den, self.den))

    @cached_property
    def _split(self):
        """The denominator's multiple roots (p, m) that the numerator does
        not share, and Q with each (z - p)^m divided out; only where that
        leaves roundoff (1e-12 of Q)."""
        pol, deep, rest = np.polynomial.polynomial, [], self.den
        for p, m in [(p, m) for p, m in self.finite_poles() if m > 1]:
            quo, rem = pol.polydiv(rest, pol.polyfromroots([p] * m))
            if not _at(self.num, p)[0] \
                    and np.max(abs(rem)) <= 1e-12 * np.max(abs(rest)):
                deep, rest = deep + [(p, m)], quo
        return deep, rest

    def finite_poles(self):
        """[(location, multiplicity)] for the roots of the denominator Q:
        the root clusters of polyroots (``_cluster``), each centre polished
        by Newton on Q^(m-1), where the root is simple.  polyroots
        misplaces the roots of a Q with a tiny leading term."""
        if len(self.den) == 1:
            return []
        pol, out = np.polynomial.polynomial, []
        for p, m in _cluster(pol.polyroots(self.den)):
            d = pol.polyder(self.den, m - 1)
            dd = pol.polyder(d)
            out.append((_newton(lambda z: pol.polyval(z, d),
                                lambda z: pol.polyval(z, dd), p), m))
        return out

    def degree_as_map(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __add__(self, other):
        o, pol = _rational(other), np.polynomial.polynomial
        if np.array_equal(self.den, o.den):
            return RationalFunction(pol.polyadd(self.num, o.num), self.den)
        return RationalFunction(pol.polyadd(pol.polymul(self.num, o.den),
                                            pol.polymul(o.num, self.den)),
                                pol.polymul(self.den, o.den))

    def __sub__(self, other):
        return self + _rational(other) * -1.0

    def __mul__(self, other):
        o, mul = _rational(other), np.polynomial.polynomial.polymul
        return RationalFunction(mul(self.num, o.num), mul(self.den, o.den))

    def __truediv__(self, other):
        o = _rational(other)
        return self * RationalFunction(o.den, o.num)

    def __pow__(self, k: int):
        pw = np.polynomial.polynomial.polypow
        return RationalFunction(pw(self.num, k), pw(self.den, k)) if k >= 0 \
            else RationalFunction([1.0]) / self ** -k


def _rational(c) -> RationalFunction:
    return c if isinstance(c, RationalFunction) else RationalFunction([c])


def _at(p, c):
    """(m, q): the order m of the zero of the polynomial p at c, counted as
    the lowest coefficients of p(c + t) below 1e-12 of their terms or of
    the largest (g3 computed on the square lattice is roundoff of the
    others), and q = p(c + t)/t^m, (z - c)^m divided out of p first."""
    pol = np.polynomial.polynomial
    q = _poly_shift(p, c)
    terms = np.maximum(_poly_shift(abs(p), abs(c)), np.max(abs(q)))
    m = int(np.argmax(abs(q) > 1e-12 * terms))
    if m:
        q = _poly_shift(pol.polydiv(p, pol.polyfromroots([c] * m))[0], c)
    return m, q


def _homogeneous(c, inner, top):
    """sum_i c_i P^i Q^(top - i) for inner = P/Q, by Horner on P."""
    pol = np.polynomial.polynomial
    acc = np.zeros(1, dtype=complex)
    for i in range(len(c) - 1, -1, -1):
        acc = pol.polyadd(pol.polymul(acc, inner.num),
                          c[i] * pol.polypow(inner.den, top - i))
    return acc


def _about(R: RationalFunction, center, order) -> TruncSeries:
    """R at ``center`` in t = z - center (tagged s@center) or at "inf" in
    w = 1/z (tagged "w@inf"), known through t^order at least: R.of the
    chart variable, known deep enough for any pole."""
    n = order + R.degree_as_map() + 1
    if center == "inf":
        return R.of(TruncSeries(np.eye(1, n + 2)[0], -1, "w@inf"))
    z = np.zeros(n + 1, dtype=complex)
    z[:2] = center, 1.0
    return R.of(TruncSeries(z, 0, f"s@{center:.6g}"))


def _cluster(roots, tol=1e-10):
    """Group the roots of a polynomial into (centre, multiplicity) pairs.
    polyroots spreads an m-fold root by about roundoff^(1/m) (2.5e-3 at m =
    5), so a group is a root's m nearest, for the largest m that keep
    within tol^(1/m) max(1, |centre|) of their mean, the centre."""
    left, out = [complex(r) for r in roots], []
    while left:
        near = np.array(sorted(left, key=lambda q: abs(q - left[0])))
        m = max(m for m in range(1, len(near) + 1) if np.max(np.abs(
            near[:m] - near[:m].mean())) < tol ** (1 / m) * max(
                1.0, abs(near[:m].mean())))
        out.append((complex(near[:m].mean()), m))
        left = list(near[m:])
    return sorted(out, key=lambda p: (round(p[0].real, 7),
                                      round(p[0].imag, 7)))


# -- data records ---------------------------------------------------------------

def flip_parity(f: TruncSeries) -> TruncSeries:
    """f(-zeta) for a series in zeta."""
    ks = np.arange(f.k_min, f.trunc_order + 1)
    return TruncSeries(f.coeffs * (-1.0 + 0j) ** (ks % 2), f.k_min,
                       f.var_tag)


class Frame:
    """The local coordinate xi at a point p = location + s of ``curve``
    (at "inf" on the sphere the offset s is w = 1/z).  At a pole of X of
    order d, ``order`` = d and xi^d = 1/X.  Elsewhere ``order`` = -e and
    xi^e = X - X(p), ``value`` = X(p), where X - X(p) vanishes to order e:
    -1 at a regular point, -2 at a ramification point.  xi'(0)
    (``xi_prime``) is the principal root in every case.

    ``value``, X's series ``x_local`` (which xi(s), xi'(0) and the curve's
    chart check read), ``xi_of_s`` and ``xi_prime`` are computed on first
    read where the curve does not give them.  ``chart(n)`` gives (s(xi),
    Y(p + s(xi))) known through xi^n, Y only at a ramification point (None
    elsewhere), from the curve's one chart routine ``_frame_chart``.  The
    frame keeps the deepest chart read so far: a shallower read truncates
    it, a deeper one continues from it (solves afresh on the torus, which
    solves once, as deep as an engine reads)."""

    def __init__(self, curve, location, order, value=None):
        self.curve = curve
        self.location = location          # chart value or "inf"
        self.order = int(order)
        self.tag = "xi@" + (location if isinstance(location, str)
                            else f"{complex(location):.6g}")
        if value is not None:
            self.value = value
        self._chart = None

    @cached_property
    def value(self):
        return self.curve.x_value(self.location)

    @cached_property
    def x_local(self):
        """X's series at p, known through s^(curve order + 6), and d orders
        further at a pole of order d at "inf"."""
        cv = self.curve
        return cv.x_series(self.location, cv.order + 6 + (
            abs(self.order) if self.location == "inf" else 0))

    @cached_property
    def xi_of_s(self):
        """xi(s) from X's series at p (``x_local``)."""
        xs, m = self.x_local, abs(self.order)
        # off the poles, X(p) and the roundoff below s^e are dropped
        lo = max(m - xs.k_min, 0)
        f = xs.invert() if self.order > 0 else \
            TruncSeries(xs.coeffs[lo:], xs.k_min + lo)
        return _root_coordinate(f, m, self.tag)

    @cached_property
    def xi_prime(self):
        return self.xi_of_s.coeff(1)

    def chart(self, n):
        """(s(xi), Y(p + s(xi)) or None), known through xi^n."""
        if self._chart is None or self._chart[0].trunc_order < n:
            s = None if self._chart is None else self._chart[0]
            self._chart = self.curve._frame_chart(self, n, s)
        s, y = self._chart
        if s.trunc_order == n:
            return s, y
        return truncate(s, n, absolute=True), \
            None if y is None else truncate(y, n, absolute=True)

    @property
    def s_of_xi(self):
        """s(xi), as far as xi(s) is known."""
        return self.chart(self.xi_of_s.trunc_order)[0]


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

    def __init__(self, cycles, order=DEFAULT_TRUNC):
        if order < 2:
            raise TruncationTooShort(f"curve order {order} < 2 cannot hold "
                                     "zeta^2 = X - X(a)")
        self.cycles = cycles
        self.order = order
        self.ramification_points: list[Frame] = []
        self.x_poles: list[Frame] = []
        # x -> (sheets above x, sqrt(dX) per sheet), filled by
        # ClassicalSystem.sheet_data
        self.sheet_cache = BoundedCache()
        # point -> its regular Frame, filled by forms.pole_frame
        self.frame_cache = BoundedCache()

    @property
    def genus(self):
        return len(self.cycles)

    # a backend provides its cycles, for each handle the periods (A, B) of
    # the global chart's du ([] on the sphere, [(1, tau)] on the torus),
    # x_value, y_value, dx_value, ydx_value (Y dX/dz from one evaluation),
    # to_cell (the representative of a point in the chart's cell, where
    # KernelForm places its poles and the sheets are reported),
    # x_series(center, order), y_series(center, order), sheets_above,
    # d (degree of X as a map); one chart routine for every
    # Frame, from the curve's equation (by Newton on the sphere, in closed
    # form on the torus):
    #   _frame_chart(frame, n, s)     (s(xi), Y(p + s(xi)) at a ramification
    #                                 point, else None) through xi^n at
    #                                 least, continued from the shallower
    #                                 chart s where the routine iterates
    # and, for the kernels below, its prime form E and theta function
    # (E(v) = v and theta = 1 on the sphere, theta1(v)/theta1'(0) and
    # theta1 on the torus) as Taylor jets, k = 0..n on axis 0, at an
    # ndarray of points, and its lattice reduction:
    #   _log_prime_jet(c, n)          [t^k] log E(c + t)
    #   _log_prime_jet(c, n, o)       [t^k] log(E(c + t)/(o + t)), o = c - l
    #                                 the offset from a pole l (o = 0: c = l)
    #   theta_jet(v, n)               [t^k] theta(v + t)
    #   _lattice_point(c)             the pole l of F nearest c, where E
    #                                 vanishes (0 on the sphere): behind
    #                                 _on_lattice, the one lattice test
    #   _log_prime_rise(a, b)         the change of log E continued along
    #                                 the straight segments [a, b] (a and b
    #                                 broadcast)
    #   szego_grid(v, zeta)           theta(v + zeta)/(theta(zeta) E(v))
    #                                 over an ndarray v, in one theta sum
    # The kernels below and forms.KernelForm read the curve only through
    # these; the sphere adds their series in w = 1/z (kernel_at_infinity).
    # prime_form, bergman and szego_grid take v = z1 - z2 and refuse a v
    # on the lattice (CoincidentPoints).  The torus backend reads the
    # series of wp = -(log E)'' + c0 behind x_series and y_series
    # (wp_series) off the same log E jet; EllipticTools
    # gives the theta1 sums, c0, point values of wp and to_cell.

    def branch_values(self):
        return [r.value for r in self.ramification_points]

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
            s, y = r.chart(self.order + 5)
            if abs((y - flip_parity(y)).coeff(1)) < 1e-10:
                raise SingularCurve(
                    f"dY vanishes at ramification point {r.location}")
            # the chart must satisfy X(a + s(zeta)) = X(a) + zeta^2: X's
            # series at a (the frame's x_local) summed against the power
            # table of s, x @ P, as far as both are known, each coefficient
            # within 1e-8 of the terms summed into it, |x| @ |P| (or of 1).
            # A chart whose coefficients grow sums large terms to 0.
            n = min(s.trunc_order, r.x_local.trunc_order)
            x, P = _taylor(r.x_local, n), _power_rows(_taylor(s, n), n)
            fwd, size = x @ P, abs(x) @ abs(P)
            fwd[0] -= r.value
            fwd[2] -= 1.0
            res = np.max((abs(fwd) / np.maximum(size, 1.0))[:self.order + 1])
            if res > 1e-8:
                raise SingularCurve(
                    f"local coordinate at {r.location} inconsistent: {res}")

    def _ramification_point(self, a):
        """The Frame at a simple zero a of dX, zeta^2 = X - X(a), with
        zeta'(0) read off the frame's series of X."""
        frame = Frame(self, a, -2, self.x_value(a))
        xs = frame.x_local
        if abs(xs.coeff(1)) > 1e-9 * max(1.0, abs(xs.coeff(2))):
            raise NonSimpleRamification(
                f"inconsistent vanishing of dX at {a}")
        frame.xi_prime = complex(np.sqrt(xs.coeff(2)))
        return frame

    # -- kernels, from the prime form -------------------------------------------
    # B(z1, z2) = F(z1 - z2) dz1 dz2 with F = -(log E)'', the primitive
    # P = (log E)' (P' = -F) and the Szego factor theta(v + zeta)/(theta(zeta)
    # E(v)).  Point values are read off the jet of log E and broadcast over
    # an ndarray.  Series split log E(c + t) = log(o + t) + rho(t) at the
    # pole l nearest c, o = c - l (``_regular_jet``, which the recursion's
    # row tables read too): the pole's part is in closed form and only the
    # regular part rho comes from the jet; on the pole the series carry
    # the exact Laurent head.

    def _regular_jet(self, c, n):
        """(o, rho): rows k = 0..n of rho = [t^k] log(E(c + t)/(o + t)); o is
        0 for a scalar c on the pole."""
        pole = self._lattice_point(c)
        o = c - pole
        if np.ndim(o) == 0 and abs(o) < _ON_POLE:
            return 0.0, self._log_prime_jet(pole, n, 0.0)
        return o, self._log_prime_jet(c, n, o)

    def _on_lattice(self, v, tol):
        """Whether any of v lies within tol of the lattice (of 0 on the
        sphere): the one lattice test of either backend."""
        return np.any(np.abs(v - self._lattice_point(v)) < tol)

    def _apart(self, v):
        """v = z1 - z2, refused where the prime form vanishes: on the
        diagonal, modulo the lattice."""
        if self._on_lattice(v, 1e-14):
            raise CoincidentPoints("prime form vanishes on the diagonal")
        return v

    def bergman(self, v):
        """F(v) = B(z1, z2)/(dchart dchart) at v = z1 - z2."""
        return -2.0 * self._log_prime_jet(self._apart(v), 2)[2]

    def kernel_series(self, cs, heads, order):
        """[[t^i] sum_k head[k] K_k(c + t), i <= order, for each c of cs and
        head of heads], K_k = (-1)^k d/dt (1/k!) d^k/dt^k log E: the c off
        the pole from one batched jet, sliced to each depth; on the pole the
        exact head sum_k head[k] t^-(k+1) leads, and rho alone follows."""
        cs = np.asarray(cs, dtype=complex)
        off = np.abs(cs - self._lattice_point(cs)) >= _ON_POLE
        if off.any():
            depth = order + max(len(h) for h, away in zip(heads, off) if away)
            o, jet = self._regular_jet(cs[off], depth)
            jets = iter((jet + _log_linear(o, depth)).T)
        i, out = np.arange(1, order + 2), []
        for c, head, away in zip(cs, heads, off):
            count = len(head)
            jet = next(jets) if away else self._log_prime_jet(
                self._lattice_point(c), order + count, 0.0)
            # [t^(i-1)] K_k = i C(i + k, k) [t^(i+k)] log E, i = 1..order + 1
            signed = np.asarray(head) * (-1.0) ** np.arange(count)
            taylor = i * ((_binomials(i, count)
                           * jet[np.add.outer(i, np.arange(count))]) @ signed)
            out.append(TruncSeries(taylor) if away else TruncSeries(
                np.concatenate([head[::-1], taylor]), -count))
        return out

    def prime_form(self, v):
        """E(z1, z2), reduced by the square roots of the chart legs, at v =
        z1 - z2."""
        return np.exp(self._log_prime_jet(self._apart(v), 0)[0])

    def theta_off_divisor(self, v):
        """theta(v), refused on the theta divisor."""
        den = self.theta_jet(v, 0)[0]
        if abs(den) < 1e-12:
            raise ThetaZeroDivision(f"theta({v}) on the divisor")
        return den

    def bergman_leg(self, c, s, gamma):
        """[zeta^t] F(c[i, p] + s[i](zeta)) s[i]'(zeta), t < n on axis 1,
        for charts i with Taylor coefficients s[i] and (n, n) tables
        gamma[i], at c off the pole, from one kernel jet: the pole's
        -d/dzeta (o + s)^-1 by one batched inversion, plus gamma contracted
        with the regular part's Taylor coefficients.  Summing gamma against
        the pole's o^-(q+2) as well is equal, but those terms cancel and
        lose digits."""
        n = gamma.shape[-1]
        o, rho = self._regular_jet(c, n + 1)
        t = np.arange(1.0, n + 1)[:, None]
        regular = -(t + 1) * t * rho[2:].swapaxes(0, 1)
        return gamma @ regular - t * inverse_at(o, s, n)[:, 1:]

    def kernel_at_infinity(self, p, head, order):
        """Refused off the sphere: no point at inf takes the residues."""
        raise ResidueSumNonzero("a kernel form's residues must sum to 0 "
                                "on a curve without a point at inf")

    def szego_series(self, c, inner, zeta):
        """theta(c + zeta + inner)/(theta(zeta) E(c + inner)) from Taylor
        series cut at 40 terms, with 1/E(c + inner) = exp(-rho(inner))/
        (o + inner)."""
        den = self.theta_off_divisor(zeta)
        depth = min(len(inner.coeffs), 40)
        o, rho = self._regular_jet(c, depth)
        num = TruncSeries(self.theta_jet(c + zeta, depth)).compose(inner)
        regular = _series_exp(-TruncSeries(rho[1:], 1).compose(inner))
        return num * (inner + o).invert() * regular * (np.exp(-rho[0]) / den)


class Genus0Curve(SpectralCurve):
    def __init__(self, X: RationalFunction, Y: RationalFunction,
                 order=DEFAULT_TRUNC):
        super().__init__([], order)
        self.X, self.Y = X, Y
        self.dX = X.deriv()
        scale = np.max(np.abs(X.num)) * np.max(np.abs(X.den))
        if np.all(np.abs(self.dX.num) <= 1e-12 * scale):
            raise SingularCurve("X is constant: dX vanishes identically")
        self.d = X.degree_as_map()
        self._find_x_poles()
        self._find_ramification()
        self._validate_ramification()

    # chart helpers (z-chart; "inf" handled through w = 1/z)
    def x_value(self, z):
        return self.X(z)

    def y_value(self, z):
        return self.Y(z)

    def dx_value(self, z):
        return self.dX(z)

    def ydx_value(self, z):
        return self.Y(z) * self.dX(z)

    def to_cell(self, z):
        return z

    def x_series(self, center, order):
        return _about(self.X, center, order)

    def y_series(self, center, order):
        return _about(self.Y, center, order)

    # prime form E(v) = v, theta = 1, and the pole of F at 0
    def _log_prime_jet(self, c, n, o=None):
        return _log_linear(c, n) if o is None \
            else np.zeros((n + 1,) + np.shape(c), dtype=complex)

    def theta_jet(self, v, n):
        out = np.zeros((n + 1,) + np.shape(v), dtype=complex)
        out[0] = 1.0
        return out

    def _log_prime_rise(self, a, b):
        return np.log(b / a)

    def szego_grid(self, v, zeta):
        return 1.0 / self._apart(v)

    def _lattice_point(self, c):
        return 0.0

    def kernel_at_infinity(self, p, head, order):
        """sum_k head[k] (z - p)^-(k+1) dz = h(w) dw in the chart w = 1/z:
        h = -sum_k head[k] w^(k-1) (1 - p w)^-(k+1), known through
        w^order, from the closed-form coefficients C(k + n, n) p^n."""
        n = np.arange(order + 2)
        rows = _binomials(n, len(head)) * (complex(p) ** n)[:, None]
        out = np.zeros(order + 2, dtype=complex)
        for k, c in enumerate(head):
            out[k:] -= c * rows[:order + 2 - k, k]
        return TruncSeries(out, -1, "w@inf")

    def _find_ramification(self):
        pol, num = np.polynomial.polynomial, self.dX.num
        roots = _cluster(pol.polyroots(num))
        den_roots = [f.location for f in self.x_poles if f.location != "inf"]
        for a, mult in roots:
            if any(abs(a - q) < 1e-7 for q in den_roots):
                continue                      # cancelled by a pole of X
            if mult > 1:
                raise NonSimpleRamification(
                    f"dX has a zero of order {mult} at {a}")
            # one Newton step polishes the root to working precision
            a -= pol.polyval(a, num) / pol.polyval(a, pol.polyder(num))
            self.ramification_points.append(self._ramification_point(a))
        self.ramification_points.sort(
            key=lambda r: (round(r.location.real, 9),
                           round(r.location.imag, 9)))

    def _frame_chart(self, frame, n, s=None):
        """xi^d = 1/X = V/U at a pole of X, xi^e = X - X(p) = U/V elsewhere,
        from X's numerator and denominator shifted to p (reversed at "inf",
        in w = 1/z), by Newton from the chart s if one is given; Y(p + s)
        by Horner at a ramification point."""
        p = frame.location
        if p == "inf":
            lift = len(self.X.num) - len(self.X.den)
            num = np.concatenate([np.zeros(max(-lift, 0)), self.X.num[::-1]])
            den = np.concatenate([np.zeros(max(lift, 0)), self.X.den[::-1]])
        else:
            num, den = _poly_shift(self.X.num, p), _poly_shift(self.X.den, p)
        U, V = (den, num) if frame.order > 0 else \
            (np.polynomial.polynomial.polysub(num, frame.value * den), den)
        s = _solve_chart(U, V, abs(frame.order), frame.xi_prime, n,
                         frame.tag, s)
        return s, self.Y.of(s + p) if frame.order == -2 else None

    def _find_x_poles(self):
        self.x_poles = [Frame(self, p, m) for p, m in self.X.finite_poles()]
        for fr in self.x_poles:
            if _at(self.X.num, fr.location)[0]:
                raise NotRepresentable(f"X's num and den share the root "
                                       f"{fr.location}: cancel the factor")
        dp = len(self.X.num) - len(self.X.den)
        if dp >= 1:
            self.x_poles.append(Frame(self, "inf", dp))

    def sheets_above(self, x, allow_near_branch=False) -> SheetStructure:
        near = self.check_near_branch(x, raise_on_hit=not allow_near_branch)
        coeffs = (self.X - x).num
        if len(coeffs) - 1 != self.d:
            raise RootFindingFailed(
                f"degree drop at x = {x}: preimages escape to infinity")
        roots = np.polynomial.polynomial.polyroots(coeffs)
        if len(roots) != self.d:
            raise RootFindingFailed(f"expected {self.d} preimages at x = {x}")
        roots = [_solve_x(self.X, self.dX, x, r) for r in roots]
        return SheetStructure(x, _sort_points(roots), near)


def _root_coordinate(f: TruncSeries, m: int, tag: str) -> TruncSeries:
    """f^(1/m) on the principal branch, for a series f with a zero of order
    m at 0: f itself at m = 1."""
    if m == 1:
        return f.retag(tag)
    lead = f.coeffs[0]
    unit = f.shift(-m) * (1.0 / lead)
    if m == 2:
        frac = unit.sqrt()
    else:
        # unit^(1/m) via exp(log/m)
        lg = (unit.differentiate() * unit.invert()).antiderivative()
        frac = _series_exp(lg * (1.0 / m))
    return (frac * np.exp(np.log(lead) / m)).shift(1).retag(tag)


def _solve_chart(U, V, m, slope, n, tag, s=None):
    """s(t) = t sigma(t), known through t^n, with t^m = U(s)/V(s) and
    t'(0) = ``slope``, for polynomials U (vanishing to order m at s = 0,
    its lower coefficients being roundoff) and V with V(0) != 0.

    sigma solves sigma^m A(t sigma) = V(t sigma), A = U/s^m, by Newton
    with order doubling (Brent and Kung, J. ACM 1978) from 1/slope or a
    shallower solution s, on arrays of the k known coefficients: A, A', V,
    V' by Horner on t sigma (finite degree: no radius of convergence is
    passed), each product one np.convolve cut to k terms.  Reversion
    through a power table (``_power_rows``) sums entries up to 2e8 into
    the Joukowski chart's coefficients, which fall like 2^-k; at depth 61
    its error times 2^k reads 4e7, Newton's 0."""
    polys = [np.asarray(p, dtype=complex) for p in (U[m:], V)]
    polys += [np.polynomial.polynomial.polyder(p) for p in polys]
    sigma = np.array([1 / slope], dtype=complex) if s is None else s.coeffs

    def mul(f, g):
        return np.convolve(f, g)[:k]

    def horner(p):
        acc = np.concatenate([p[-1:], np.zeros(k - 1)])
        for ck in p[-2::-1]:
            acc = np.concatenate([[ck], mul(acc, sigma)[:k - 1]])
        return acc

    while len(sigma) < n:
        k = min(2 * len(sigma), n)
        sigma = np.concatenate([sigma, np.zeros(k - len(sigma))])
        a, v, da, dv = map(horner, polys)
        head = (TruncSeries(sigma) ** (m - 1)).coeffs[:k]
        dF = m * a
        dF[1:] += mul(da, sigma)[:k - 1]
        dF = mul(dF, head)
        dF[1:] -= dv[:k - 1]
        F = mul(a, mul(head, sigma)) - v
        sigma -= mul(F, TruncSeries(dF).invert().coeffs)
    return TruncSeries(sigma, 1, tag)


def _newton(f, df, z0, steps=40, tol=1e-14):
    """Newton from z0; it stops at the last finite iterate on a zero or
    non-finite step."""
    z = complex(z0)
    for _ in range(steps):
        d = df(z)
        step = f(z) / d if d != 0 else 0.0
        if step == 0 or not cmath.isfinite(step):
            break
        z -= step
        if abs(step) < tol * max(1.0, abs(z)):
            break
    return z


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt/sqrt((t+x)(t+y)(t+z)): the
    duplication DLMF 19.26.18 until x, y, z agree to 1e-3 of their mean,
    then the series 19.36.1 (error O(1e-18)); principal square roots."""
    for _ in range(40):
        a = (x + y + z) / 3
        if max(abs(a - x), abs(a - y), abs(a - z)) <= 1e-3 * abs(a):
            break
        rx, ry, rz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    dx, dy = 1 - x / a, 1 - y / a
    e2, e3 = dx * dy - (dx + dy) ** 2, -dx * dy * (dx + dy)
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) \
        / cmath.sqrt(a)


def _solve_x(f, df, target, z0, steps=40):
    """Newton on f(z) = target from z0; RootFindingFailed unless the
    residual is within 1e-9 max(1, |target|)."""
    z = _newton(lambda z: f(z) - target, df, z0, steps)
    res = abs(f(z) - target)
    if not res <= 1e-9 * max(1.0, abs(target)):
        raise RootFindingFailed(
            f"Newton from {z0} toward {target} stalled at residual {res:.3g}")
    return z


class Genus1Curve(SpectralCurve):
    """X = x_scale * wp(u), Y = R1(wp) + R2(wp) wp'(u) on C/(Z + tau Z)."""

    def __init__(self, tau, R1: RationalFunction, R2: RationalFunction,
                 x_scale=1.0, order=DEFAULT_TRUNC):
        self.ell = EllipticTools(tau)           # refuses Im tau <= 0
        self.tau = complex(tau)
        # the A-cycle is the segment [0, 1], the B-cycle [0, tau]
        super().__init__([(1.0, self.tau)], order)
        self.R1, self.R2 = R1, R2
        self.x_scale = complex(x_scale)
        if self.x_scale == 0:
            raise SingularCurve("X is constant: x_scale = 0")
        # wp at the half periods, the roots of wp'^2/4
        self._e = [self.ell.wp(h) for h in self._halves()]
        self._theta1_prime = self.ell.theta.theta1(0.0, 1)
        self._log_theta1_prime = np.log(self._theta1_prime)
        # the jet of log(E(t)/t) at 0, grown on demand
        self._lattice_jet = np.zeros(0, dtype=complex)
        self.d = 2
        self._find_ramification()
        self._find_x_poles()
        self._validate_ramification()

    def x_value(self, u):
        return self.x_scale * self.ell.wp(u)

    def y_value(self, u):
        w, wp = self.ell.wp_pair(u)
        return self.R1(w) + self.R2(w) * wp

    def dx_value(self, u):
        return self.x_scale * self.ell.wp_prime(u)

    def ydx_value(self, u):
        w, wp = self.ell.wp_pair(u)
        return (self.R1(w) + self.R2(w) * wp) * (self.x_scale * wp)

    def to_cell(self, u):
        if isinstance(u, str):
            raise NotRepresentable(f"the torus chart has no point {u!r}")
        return self.ell.to_cell(u)

    def x_series(self, center, order):
        return self.wp_series(center, order).retag(
            f"s@{center:.6g}") * self.x_scale

    def y_series(self, center, order):
        wp = self.wp_series(center, order + 4)
        out = self.R1.of(wp) + self.R2.of(wp) * wp.differentiate()
        return out.retag(f"s@{center:.6g}")

    # prime form E(v) = theta1(v)/theta1'(0), theta = theta1, and the poles
    # of F on the lattice
    def _log_prime_jet(self, c, n, o=None):
        """From one theta1 jet, less ln theta1'(0) and log(o + t); on the
        pole (o = 0) the jet is divided by t, dropping its first row, and
        its odd rows are zeroed: log(E(l + t)/t) is even in t up to the
        exact -2 pi i n t at l = m + n tau, 0 on the real axis.  The jet at
        0 on the pole (wp's, the diagonal row tables') is kept read-only."""
        on = o is not None and np.ndim(o) == 0 and o == 0
        if on and c == 0 and len(self._lattice_jet) > n:
            return self._lattice_jet[:n + 1]
        out = log_jet(self.theta_jet(c, n + on)[int(on):])
        out[0] -= self._log_theta1_prime
        if on:
            out[(3 if np.imag(c) else 1)::2] = 0.0
            if c == 0:
                out.flags.writeable = False
                self._lattice_jet = out
        return out if o is None or on else out - _log_linear(o, n)

    def theta_jet(self, v, n):
        return self.ell.theta.theta1_taylor(v, n)

    def szego_grid(self, v, zeta):
        """theta1(v + zeta) theta1'(0)/(theta1(zeta) theta1(v)), from one
        lattice sum over the stacked v + zeta and v."""
        num, den = self.theta_jet(np.stack([v + zeta, self._apart(v)]),
                                  0)[0]
        return num * self._theta1_prime / (self.theta_off_divisor(zeta) * den)

    def _log_prime_rise(self, a, b):
        """From the Jacobi triple product theta1(v) = C e^(i pi v)
        prod_(n>=1) (1 - e^(2 i pi (v + n tau))) prod_(n>=0) (1 - e^(2 i pi
        (n tau - v))), whose factors are continued one by one: those with
        Im(n tau) - |Im v| < 6.3, past which each is within 1e-17 of 1."""
        a, b = np.broadcast_arrays(a, b)
        top = int((max(np.abs(a.imag).max(), np.abs(b.imag).max())
                   + 6.3) / self.tau.imag) + 1
        n = (np.arange(top + 1) * self.tau).reshape((-1,) + (1,) * a.ndim)
        rise = _log1m_rise(np.concatenate([a + n[1:], n - a]),
                           np.concatenate([b + n[1:], n - b]))
        return 1j * np.pi * (b - a) + rise.sum(0)

    def wp_series(self, center, order):
        """wp(center + t) = -(log E)''(center + t) + c0, known through
        t^(order + 2); at a lattice point 1/t^2 + c0 - (log(E(t)/t))'',
        known through t^order, from the jet at 0 (a jet taken at another
        lattice point loses digits).  Odd slots about a half period are 0."""
        on = self._on_lattice(center, 1e-9)
        b = self._log_prime_jet(0.0, order + 2, 0.0) if on \
            else self._log_prime_jet(center, order + 4)
        k = np.arange(len(b) - 2)
        wp = -(k + 2) * (k + 1) * b[2:]
        wp[0] += self.ell.c0
        if self._on_lattice(2 * center, 1e-9):
            wp[1::2] = 0.0
        return TruncSeries(np.concatenate([[1.0, 0.0], wp]), -2) if on \
            else TruncSeries(wp)

    def _lattice_point(self, c):
        """m + n tau: n rounds Im c / Im tau, m the real part left over."""
        n = np.rint(c.imag / self.tau.imag)
        return np.rint(c.real - n * self.tau.real) + n * self.tau

    def _halves(self):
        return [0.5, 0.5 * self.tau, 0.5 * (1 + self.tau)]

    def _find_ramification(self):
        self.ramification_points = [self._ramification_point(a)
                                    for a in self._halves()]

    def _frame_chart(self, frame, n, s=None):
        """ds/dxi = (dwp/dxi)/wp' = C prod_i (1 + a_i t)^(-1/2) from wp'^2 =
        4 prod_i (wp - e_i) (DLMF 23.3.9), C on the branch s'(0) xi'(0) = 1:
        wp = 1/(x_scale t), a_i = -x_scale e_i at the pole u = 0, elsewhere
        wp(p) + t/x_scale, a_i = 1/(x_scale (wp(p) - e_i)) over the factors
        that do not vanish; t = xi at a regular point, else xi^2.  At e_a,
        Y = R1(wp) + R2(wp) wp' with wp' = (2 xi/(x_scale C)) prod_b
        (1 + a_b t)^(1/2).  No coefficient depends on the depth: the chart
        is solved once, through xi^(2 order - 1) at least."""
        n, x, e = max(n, 2 * self.order - 1), self.x_scale, np.array(self._e)
        ram, m = frame.order == -2, 1 + (frame.order != -1)
        if frame.order == 2:
            a, c2 = -x * e, x
        else:
            w0 = self.ell.wp(frame.location)
            gone = [self.ramification_points.index(frame)] if ram else []
            a = 1.0 / (x * (w0 - np.delete(e, gone)))
            c2 = x * np.prod(a) * m * m / 4
        # [t^k] (1 + a t)^alpha = C(k - 1 - alpha, k) (-a)^k for alpha = -1/2
        # and, at e_a, 1/2, spread to xi; room for a pole of R1 or R2 there
        top = n // m + ram * (2 + max(self.R1.degree_as_map(),
                                      self.R2.degree_as_map()))
        powers = np.ones((len(a), top + 1), dtype=complex)
        powers[:, 1:] = -a[:, None]
        rows = np.zeros((1 + ram, len(a), m * top + 1), dtype=complex)
        rows[..., ::m] = _binomials(np.array([[-0.5], [-1.5]])[:1 + ram],
                                    top + 1) * np.cumprod(powers, axis=1)
        P, *Q = [reduce(lambda f, g: np.convolve(f, g)[:m * top + 1], r)
                 for r in rows]
        C = np.sqrt(c2)
        C = -C if (C * frame.xi_prime).real < 0 else C
        s = TruncSeries(C * P, 0, frame.tag).antiderivative()
        if not ram:
            return s, None
        wp = TruncSeries(np.eye(1, len(P), 2)[0] / x, 0, frame.tag) + w0
        return s, self.R1.of(wp) + self.R2.of(wp) * TruncSeries(
            Q[0] * (2.0 / (x * C)), 1, frame.tag)

    def _find_x_poles(self):
        self.x_poles = [Frame(self, 0.0, 2)]

    def sheets_above(self, x, allow_near_branch=False) -> SheetStructure:
        """The preimages u and -u of x: wp is even, so one solve gives
        both.  u = R_F(x/x_scale - e_i) inverts wp in closed form (DLMF
        19.25.35) and seeds Newton on wp from theta, which sets the last
        digits.  A non-finite x is NotRepresentable; an x whose u lies
        within 1e-6 of the lattice (the pole of X) or of a half period (a
        branch value, where u and -u coincide) is RootFindingFailed."""
        if not cmath.isfinite(x):
            raise NotRepresentable(f"x = {x} is not a finite point")
        near = self.check_near_branch(x, raise_on_hit=not allow_near_branch)
        target = x / self.x_scale
        u = _carlson_rf(*[target - e for e in self._e])
        if not cmath.isfinite(u) or self._on_lattice(u, 1e-6):
            raise RootFindingFailed(
                f"x = {x} is too close to the pole of X at u = 0: its "
                f"preimages lie within 1e-6 of the lattice")
        u = _solve_x(self.ell.wp, self.ell.wp_prime, target, u)
        if self._on_lattice(2 * u, 1e-6):
            raise RootFindingFailed(
                f"x = {x} is a branch value: its preimages coincide")
        pair = [self.ell.to_cell(u), self.ell.to_cell(-u)]
        return SheetStructure(x, _sort_points(pair), near)


def _toeplitz(f):
    """T[..., j, l] = f[..., l - j] for l >= j, else 0, as a view: the
    matrix of the truncated product by each series of f."""
    n = f.shape[-1]
    pad = np.concatenate([np.zeros(f.shape[:-1] + (n - 1,)), f], axis=-1)
    return sliding_window_view(pad, n, axis=-1)[..., ::-1, :]


def _taylor(s: TruncSeries, n) -> np.ndarray:
    """The coefficients of zeta^0..zeta^n of a series without a pole."""
    return np.append(np.zeros(s.k_min), truncate(s, n, absolute=True).coeffs)


def _power_rows(f, top) -> np.ndarray:
    """Rows p = 0..top on axis -2: the coefficients of f^p for arrays f of
    Taylor coefficients on the last axis, as far as f is known; each row
    is the one before times one Toeplitz matrix of f, for every f at once."""
    M = np.ascontiguousarray(_toeplitz(f))
    rows = np.zeros(f.shape[:-1] + (top + 1, 1, f.shape[-1]), dtype=complex)
    rows[..., 0, 0, 0] = 1.0
    for p in range(1, top + 1):
        np.matmul(rows[..., p - 1, :, :], M, out=rows[..., p, :, :])
    return rows[..., 0, :]


# -- JSON schema --------------------------------------------------------------------

def _cnum(obj):
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    return complex(obj)


def _rat(obj) -> RationalFunction:
    return RationalFunction([_cnum(c) for c in obj.get("num", [0.0])],
                            [_cnum(c) for c in obj.get("den", [1.0])])


def _field(obj, key, parse, default=None):
    """parse(obj[key]), or of ``default`` (if given) for a missing key."""
    try:
        return parse(obj[key] if default is None else obj.get(key, default))
    except (AttributeError, KeyError, TypeError, ValueError,
            NotRepresentable) as exc:
        raise NotRepresentable(f"curve spec field {key!r}: {exc!r}") from exc


def build_curve(spec: dict, order=DEFAULT_TRUNC) -> SpectralCurve:
    """Construct a curve from its JSON description.

    Schemas:
      {"backend": "rational", "X": {"num": [...], "den": [...]},
       "Y": {"num": [...], "den": [...]}}
      {"backend": "weierstrass", "tau": {"re": .., "im": ..},
       "Y": {"R1": {...}, "R2": {...}}}
    Complex numbers are written {"re": .., "im": ..}; bare reals are
    accepted as well.  A missing or unreadable field is NotRepresentable.
    """
    backend = _field(spec, "backend", str)
    if backend == "rational":
        return Genus0Curve(_field(spec, "X", _rat), _field(spec, "Y", _rat),
                           order)
    if backend == "weierstrass":
        y = spec.get("Y", {})
        return Genus1Curve(_field(spec, "tau", _cnum),
                           _field(y, "R1", _rat, {}),
                           _field(y, "R2", _rat, {}),
                           _field(spec, "xscale", _cnum, 1.0), order)
    raise NotRepresentable(f"unknown backend {backend!r}")
