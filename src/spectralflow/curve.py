"""Spectral-curve backends: genus-0 rational and genus-1 Weierstrass.

A curve carries two meromorphic functions X, Y in a global chart (z on
the sphere, u on the torus), classified ramification points with their
sheet involutions as truncated series, pole frames of X, and a sheet
solver.  Everything is validated at build time; instances are immutable
and all queries are pure.  The sheet data of a base value is kept on the
curve, so every ClassicalSystem on it solves it once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import BoundedCache
from .elliptic import EllipticTools
from .errors import (
    BadModulus,
    CoincidentPoints,
    NearBranchPoint,
    NonSimpleRamification,
    NotRepresentable,
    RootFindingFailed,
    SingularCurve,
    ThetaZeroDivision,
    TruncationTooShort,
)
from .series import (
    DEFAULT_TRUNC,
    TruncSeries,
    _horner,
    _monomial,
    _series_exp,
    inverse_at,
    log_jet,
    pad,
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
        m_Q).  A constant denominator is a scalar division."""
        if isinstance(inner, RationalFunction):
            top = self.degree_as_map()
            return RationalFunction(_homogeneous(self.num, inner, top),
                                    _homogeneous(self.den, inner, top))
        c = inner.coeff(0)
        t = inner - c if c else inner
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


def _about(R: RationalFunction, center, order, tag=None) -> TruncSeries:
    """R at ``center`` in t = z - center (tagged ``tag``, by default
    s@center) or at "inf" in w = 1/z (tagged "w@inf"), known through t^order
    at least: R.of the chart variable, known deep enough for any pole."""
    n = order + R.degree_as_map() + 1
    if center == "inf":
        return R.of(TruncSeries(np.eye(1, n + 2)[0], -1, "w@inf"))
    z = np.zeros(n + 1, dtype=complex)
    z[:2] = center, 1.0
    return R.of(TruncSeries(z, 0, f"s@{center:.6g}" if tag is None else tag))


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

class RamificationPoint:
    """Simple zero a of dX with its local double-sheet structure.

    The local coordinate is zeta = sqrt(X - X(a)) on the branch
    ``zeta_prime`` = zeta'(0), the principal root of the s^2 coefficient
    of X(a + s) - X(a).  ``s_of_zeta`` (the chart offset s = z - a) and
    ``y_series`` (Y(a + s(zeta))) are series in zeta known through
    zeta^(curve order + 5); the involution is s(-zeta).  They validate
    the curve: an engine solves its charts (``local_chart``) to the depth
    that its reach rule gives its row tables.
    """

    def __init__(self, location, branch_value, zeta_prime, s_of_zeta,
                 y_series):
        self.location = complex(location)
        self.branch_value = complex(branch_value)
        self.zeta_prime = complex(zeta_prime)
        self.s_of_zeta = s_of_zeta
        self.y_series = y_series          # Y(z(zeta)) as series in zeta

    @property
    def involution(self) -> TruncSeries:
        return flip_parity(self.s_of_zeta)


def flip_parity(f: TruncSeries) -> TruncSeries:
    """f(-zeta) for a series in zeta."""
    ks = np.arange(f.k_min, f.trunc_order + 1)
    return TruncSeries(f.coeffs * (-1.0 + 0j) ** (ks % 2), f.k_min,
                       f.var_tag)


class PoleFrame:
    """Local coordinate xi(s) at a point p = location + s of ``curve``:
    X^(-1/d) at a pole of X of order d >= 1, X - X(p) (order -1) at a
    pole of a form where X is regular; without xi, solved on first read."""

    def __init__(self, curve, location, order, xi_of_s=None):
        self.curve = curve
        self.location = location          # chart value or "inf"
        self.order = int(order)
        if xi_of_s is not None:
            self.xi_of_s = xi_of_s

    @cached_property
    def xi_of_s(self):
        return self.curve.x_pole_coordinate(self)

    @cached_property
    def s_of_xi(self):
        """The chart offset s as a series in xi, known as far as xi(s)
        and solved from the curve's equation."""
        return self.curve.pole_chart(self)


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
        self.ramification_points: list[RamificationPoint] = []
        self.x_poles: list[PoleFrame] = []
        # x -> (sheets above x, sqrt(dX) per sheet), filled by
        # ClassicalSystem.sheet_data
        self.sheet_cache = BoundedCache()

    @property
    def genus(self):
        return len(self.cycles)

    # a backend provides its cycles, for each handle the periods (A, B) of
    # the global chart's du ([] on the sphere, [(1, tau)] on the torus),
    # x_value, y_value, dx_value, ydx_value (Y dX/dz from one evaluation),
    # to_cell (the representative of a point in the chart's cell, where
    # KernelForm places its poles and the sheets are reported),
    # x_series(center, order), y_series(center, order), sheets_above,
    # deformed(...), d (degree of X as a map); the local charts, solved
    # from the curve's equation:
    #   _chart(a, X(a), zeta'(0), n, tag)   (s(zeta), Y(a + s(zeta)))
    #                                       through zeta^n
    #   pole_chart(frame)             s(xi), as far as frame.xi_of_s
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
    # (wp_series), and g2, g3, off the same log E jet; EllipticTools
    # gives the theta1 sums, c0, point values of wp and to_cell.

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

    def local_chart(self, ram: RamificationPoint, n: int):
        """(s_of_zeta, y_in_zeta) at ``ram``, known through zeta^n on the
        branch ``ram.zeta_prime``: an engine's charts, as deep as the row
        tables of its reach rule read them (``RecursionEngine.deep``)."""
        return self._chart(ram.location, ram.branch_value, ram.zeta_prime,
                           n, ram.s_of_zeta.var_tag)

    def _ramification_point(self, a, index):
        """The RamificationPoint at a simple zero a of dX."""
        xa = self.x_value(a)
        xs = self.x_series(a, self.order + 4) - xa
        if abs(xs.coeff(1)) > 1e-9 * max(1.0, abs(xs.coeff(2))):
            raise NonSimpleRamification(
                f"inconsistent vanishing of dX at {a}")
        zp = np.sqrt(xs.coeff(2))
        s_of_zeta, ys = self._chart(a, xa, zp, self.order + 5,
                                    f"zeta@{index}")
        return RamificationPoint(a, xa, zp, s_of_zeta, ys)

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

    def kernel_series(self, c, head, order):
        """[t^i] sum_k head[k] K_k(c + t), i <= order, for the kernels K_k =
        (-1)^k d/dt (1/k!) d^k/dt^k log E of forms.KernelForm; on the pole
        the exact head sum_k head[k] t^-(k+1) leads, and rho alone follows."""
        count = len(head)
        o, jet = self._regular_jet(c, order + count)
        if o != 0:
            jet = jet + _log_linear(o, order + count)
        # [t^(i-1)] K_k = i C(i + k, k) [t^(i+k)] log E, i = 1..order + 1
        i = np.arange(1, order + 2)
        signed = np.asarray(head) * (-1.0) ** np.arange(count)
        taylor = i * ((_binomials(i, count)
                       * jet[np.add.outer(i, np.arange(count))]) @ signed)
        if o != 0:
            return TruncSeries(taylor)
        return TruncSeries(np.concatenate([head[::-1], taylor]), -count)

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

    def ydx_value(self, z):
        return self.Y(z) * self.dX(z)

    def to_cell(self, z):
        return z

    def x_series(self, center, order, tag=None):
        return _about(self.X, center, order, tag)

    def y_series(self, center, order, tag=None):
        return _about(self.Y, center, order, tag)

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
            # one Newton step polishes the root to working precision
            a -= pol.polyval(a, num) / pol.polyval(a, pol.polyder(num))
            self.ramification_points.append(self._ramification_point(a, idx))
            idx += 1
        self.ramification_points.sort(
            key=lambda r: (round(r.location.real, 9),
                           round(r.location.imag, 9)))

    def _chart(self, a, xa, zp, n, tag):
        """zeta^2 = X(a + s) - xa = U(s)/den(s) from X's shifted numerator
        and denominator; Y(a + s(zeta)) from Y's, both on series in zeta
        by Horner."""
        num, den = _poly_shift(self.X.num, a), _poly_shift(self.X.den, a)
        s = _solve_chart(np.polynomial.polynomial.polysub(num, xa * den),
                         den, 2, zp, n, tag)
        return s, self.Y.of(s + a)

    def pole_chart(self, frame):
        """s(xi) from xi^m = 1/X at a pole of X of order m (in w = 1/z at
        "inf"), or from xi = X - X(p) at a regular point p."""
        xi = frame.xi_of_s
        if frame.location == "inf":
            lift = len(self.X.num) - len(self.X.den)
            num = np.concatenate([np.zeros(max(-lift, 0)), self.X.num[::-1]])
            den = np.concatenate([np.zeros(max(lift, 0)), self.X.den[::-1]])
        else:
            num = _poly_shift(self.X.num, frame.location)
            den = _poly_shift(self.X.den, frame.location)
        if frame.order > 0:
            U, V, m = den, num, frame.order
        else:
            U, V, m = np.polynomial.polynomial.polysub(
                num, self.X(frame.location) * den), den, 1
        return _solve_chart(U, V, m, xi.coeffs[0], xi.trunc_order,
                            xi.var_tag)

    def _find_x_poles(self):
        for p, m in self.X.finite_poles():
            xi = _root_coordinate(self.x_series(p, self.order + 4), m,
                                  f"xi@{p:.6g}")
            self.x_poles.append(PoleFrame(self, p, m, xi))
        dp = len(self.X.num) - len(self.X.den)
        if dp >= 1:
            xi = _root_coordinate(self.x_series("inf", self.order + 4 + dp),
                                  dp, "xi@inf")
            self.x_poles.append(PoleFrame(self, "inf", dp, xi))

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

    def deformed(self, dY: RationalFunction) -> "Genus0Curve":
        """New curve with Y -> Y + dY."""
        return Genus0Curve(self.X, self.Y + dY, self.order)

    def scaled(self, lam: complex) -> "Genus0Curve":
        """(X, Y) -> (lam X, Y / lam)."""
        return Genus0Curve(self.X * lam, self.Y / lam, self.order)


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


def _solve_chart(U, V, m, slope, n, tag):
    """s(t) = t sigma(t), known through t^n, with t^m = U(s)/V(s) and
    t'(0) = ``slope``, for polynomials U (vanishing to order m at s = 0,
    its lower coefficients being roundoff) and V with V(0) != 0.

    sigma solves sigma^m A(t sigma) = V(t sigma), A = U/s^m, by Newton
    iteration on series with order doubling (Brent and Kung, J. ACM
    1978): each step doubles the number of known coefficients.  The
    polynomials have finite degree, so evaluating them on a series by
    Horner passes no radius of convergence."""
    der = np.polynomial.polynomial.polyder
    A, V = np.asarray(U[m:], dtype=complex), np.asarray(V, dtype=complex)
    # a trailing zero keeps the derivative of a constant non-empty
    A, dA = TruncSeries(A), TruncSeries(der(np.append(A, 0.0)))
    V, dV = TruncSeries(V), TruncSeries(der(np.append(V, 0.0)))
    sigma = TruncSeries([1.0 / slope], var_tag=tag)
    k = 1
    while k < n:
        k = min(2 * k, n)
        sigma = pad(sigma, k)
        s = sigma.shift(1)
        head = sigma ** (m - 1)
        a = A.compose(s)
        F = head * sigma * a - V.compose(s)
        dF = head * (a * m + s * dA.compose(s)) - dV.compose(s).shift(1)
        sigma = sigma - F / dF
    return sigma.shift(1)


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
        if not (np.imag(tau) > 0):
            raise BadModulus(f"Im tau = {np.imag(tau)} must be positive")
        self.tau = complex(tau)
        # the A-cycle is the segment [0, 1], the B-cycle [0, tau]
        super().__init__([(1.0, self.tau)], order)
        self.R1, self.R2 = R1, R2
        self.x_scale = complex(x_scale)
        self.ell = EllipticTools(tau)
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
        return self.ell.to_cell(u)

    def x_series(self, center, order, tag=None):
        return self.wp_series(center, order).retag(
            tag or f"s@{center:.6g}") * self.x_scale

    def y_series(self, center, order, tag=None):
        wp = self.wp_series(center, order + 4)
        out = self.R1.of(wp) + self.R2.of(wp) * wp.differentiate()
        return out.retag(tag or f"s@{center:.6g}")

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

    def invariants_g2_g3(self):
        """Coefficients in wp'^2 = 4 wp^3 - g2 wp - g3: 20 and 28 times
        the t^2 and t^4 coefficients of wp(t)."""
        wp = self.wp_series(0.0, 4)
        return 20.0 * wp.coeff(2), 28.0 * wp.coeff(4)

    def _lattice_point(self, c):
        """m + n tau: n rounds Im c / Im tau, m the real part left over."""
        n = np.rint(c.imag / self.tau.imag)
        return np.rint(c.real - n * self.tau.real) + n * self.tau

    def _halves(self):
        return [0.5, 0.5 * self.tau, 0.5 * (1 + self.tau)]

    def _find_ramification(self):
        for idx, a in enumerate(self._halves()):
            self.ramification_points.append(self._ramification_point(a, idx))

    def _chart(self, a, xa, zp, n, tag):
        """With zeta^2 = X - X_a and wp'^2 = 4 prod_i (wp - e_i),
        s'(zeta) = 1/(zeta'(0) sqrt((1 + zeta^2/(X_a - X_b))
        (1 + zeta^2/(X_a - X_c)))) over the other half periods b, c; then
        wp = e_a + zeta^2/x_scale, wp' = 2 zeta/(x_scale s'(zeta)) and
        Y = R1(wp) + R2(wp) wp' in closed form."""
        alpha, beta = [1.0 / (xa - self.x_value(h)) for h in self._halves()
                       if abs(h - a) > 1e-9]
        quartic = np.zeros(n, dtype=complex)
        quartic[[0, 2, 4]] = [1.0, alpha + beta, alpha * beta]
        root = TruncSeries(quartic, 0, var_tag=tag).sqrt()
        s = (root.invert() * (1.0 / zp)).antiderivative()
        wp_prime = (root * (2.0 * zp / self.x_scale)).shift(1)
        wp = _monomial(2, 1.0 / self.x_scale, s) + self.ell.wp(a)
        return s, self.R1.of(wp) + self.R2.of(wp) * wp_prime

    def pole_chart(self, frame):
        """ds/dxi = (dwp/dxi)/wp' with wp' = sqrt(4 wp^3 - g2 wp - g3) on
        the branch s'(0) = 1/xi'(0), where wp = xi^-2/x_scale at the pole
        u = 0 and wp = wp(p) + xi/x_scale at a regular point p."""
        xi = frame.xi_of_s
        n = xi.trunc_order
        g2, g3 = self.invariants_g2_g3()
        if frame.order > 0:
            wp = _monomial(-2, 1.0 / self.x_scale, xi)
        else:
            head = np.zeros(n + 1, dtype=complex)
            head[:2] = [self.ell.wp(frame.location), 1.0 / self.x_scale]
            wp = TruncSeries(head, 0, var_tag=xi.var_tag)
        ds = wp.differentiate() \
            * (wp * wp * wp * 4.0 - wp * g2 - g3).sqrt().invert()
        if (ds.coeff(0) * xi.coeffs[0]).real < 0:
            ds = -ds
        return truncate(ds.antiderivative(), n, absolute=True)

    def _find_x_poles(self):
        self.x_poles.append(PoleFrame(self, 0.0, 2))

    def x_pole_coordinate(self, frame):
        """xi = X^(-1/2) at u = 0, from the lattice jet of log E that an
        engine's diagonal row tables compute first."""
        return _root_coordinate(self.x_series(0.0, self.order + 6), 2, "xi@0")

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
                try:
                    u = _solve_x(self.ell.wp, self.ell.wp_prime, target, u0,
                                 steps=60)
                except RootFindingFailed:
                    continue
                u = self.ell.to_cell(u)
                if self._on_lattice(u, 1e-6):
                    continue
                if self._on_lattice(2 * u, 1e-6):
                    raise RootFindingFailed(
                        f"x = {x} is a branch value: its preimages coincide")
                pair = [u, self.ell.to_cell(-u)]
                return SheetStructure(x, _sort_points(pair), near)
        raise RootFindingFailed(f"wp inversion did not converge at x = {x}")

    def deformed(self, dR1: RationalFunction, dR2: RationalFunction):
        return Genus1Curve(self.tau, self.R1 + dR1, self.R2 + dR2,
                           self.x_scale, self.order)

    def scaled(self, lam: complex) -> "Genus1Curve":
        return Genus1Curve(self.tau, self.R1 / lam, self.R2 / lam,
                           self.x_scale * lam, self.order)


def _toeplitz(f):
    """T[..., j, l] = f[..., l - j] for l >= j, else 0, as a view: the
    matrix of the truncated product by each series of f."""
    n = f.shape[-1]
    pad = np.concatenate([np.zeros(f.shape[:-1] + (n - 1,)), f], axis=-1)
    return sliding_window_view(pad, n, axis=-1)[..., ::-1, :]


def _power_rows(f, top) -> np.ndarray:
    """Rows p = 0..top: the coefficients of f^p for an array f of Taylor
    coefficients, as far as f is known; each row is the one before times
    one Toeplitz matrix of f."""
    M = np.ascontiguousarray(_toeplitz(f))
    rows = np.zeros((top + 1, len(f)), dtype=complex)
    rows[0, 0] = 1.0
    for p in range(1, top + 1):
        rows[p] = rows[p - 1] @ M
    return rows


# -- sheet continuation ----------------------------------------------------------

def continue_sheets(curve, x_path, preimages):
    """Track preimages along a discrete x-path by nearest Newton basin;
    RootFindingFailed where a step's Newton misses its x."""
    current = list(preimages)
    for x in x_path:
        current = [curve.to_cell(_solve_x(curve.x_value, curve.dx_value, x, z))
                   for z in current]
    return current


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
