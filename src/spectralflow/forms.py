"""Meromorphic 1-forms on a spectral curve.

Forms are represented against the global chart (z on the sphere, u on
the torus): ``value(z)`` returns g with omega = g dz, elementwise over
an ndarray of points (a constant form may return its scalar, which
broadcasts), and
``local_series(center, order)`` the series of g in the chart offset;
``center`` may be the string "inf" on the sphere, where the series is
taken in w = 1/z and omega = h(w) dw.  The atoms of the canonical basis,
and their sums, also give ``primitive(o, zs)``: [int_o^z for z in zs]
along the straight segments, in closed form from the curve's log E.

The atoms here close under everything the library needs: Y dX, the
canonical basis (holomorphic, second kind, third kind), Bergman legs
for insertion-operator deformations, and linear combinations.
"""

from __future__ import annotations

import numpy as np

from .curve import (
    PoleFrame,
    RationalFunction,
    _compose_rational,
    _drop_low_noise,
    _poly_shift,
    flip_parity,
)
from .errors import (
    BadIndex,
    PoleAtRamificationPoint,
    ResidueSumNonzero,
    TruncationTooShort,
    UnsupportedCycle,
)
from .series import TruncSeries, _combine, constant


class Form1:
    """Base class; subclasses provide value / local_series / poles."""

    def value(self, z):  # pragma: no cover
        """g(z) with omega = g dz, for a point or elementwise over an
        ndarray of points; a constant may come back as a scalar."""
        raise NotImplementedError

    def local_series(self, center, order):  # pragma: no cover
        raise NotImplementedError

    def poles(self):
        """[(center, hint)] where hint is an order bound or None."""
        return []

    def cycle_period(self, which):
        """Closed-form A/B-period coherent with in-cell paths, or None.

        Only ``canonical_period`` calls it, on a curve with cycles and on
        one atom at a time: it expands a SumForm into its terms itself."""
        return None

    def __add__(self, other):
        return SumForm([(1.0, self), (1.0, other)])

    def __mul__(self, c):
        return SumForm([(complex(c), self)])

    __rmul__ = __mul__

    def __sub__(self, other):
        return SumForm([(1.0, self), (-1.0, other)])


class SumForm(Form1):
    def __init__(self, terms):
        flat = []
        for c, f in terms:
            if isinstance(f, SumForm):
                flat.extend((c * c2, f2) for c2, f2 in f.terms)
            else:
                flat.append((complex(c), f))
        self.terms = flat

    def value(self, z):
        return sum(c * f.value(z) for c, f in self.terms)

    def local_series(self, center, order):
        out = None
        for c, f in self.terms:
            s = f.local_series(center, order) * c
            out = s if out is None else out + s
        return out

    def primitive(self, o, zs):
        return sum((c * f.primitive(o, zs) for c, f in self.terms),
                   np.zeros(len(zs), dtype=complex))

    def poles(self):
        seen = []
        for _, f in self.terms:
            for p in f.poles():
                if not any(_same_center(p[0], q[0]) for q in seen):
                    seen.append(p)
        return seen

    def __mul__(self, c):
        return SumForm([(complex(c) * c0, f) for c0, f in self.terms])

    __rmul__ = __mul__


def _same_center(a, b, tol=1e-9):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(complex(a) - complex(b)) < tol


class RationalDz(Form1):
    """R(z) dz on the sphere."""

    def __init__(self, R):
        self.R = R

    def value(self, z):
        return self.R(z)

    def local_series(self, center, order):
        if center == "inf":
            # omega = R(1/w) d(1/w) = -R(1/w) w^-2 dw
            return -self.R.series_at_infinity(order + 4).shift(-2)
        return self.R.series(center, order)

    def poles(self):
        out = [(p, m + 1) for p, m in self.R.finite_poles()]
        dnum, dden = len(self.R.num) - 1, len(self.R.den) - 1
        if dnum - dden >= -1:
            out.append(("inf", dnum - dden + 2))
        return out


class YdX(Form1):
    """The distinguished form Y dX of the curve."""

    def __init__(self, curve):
        self.curve = curve

    def value(self, z):
        return self.curve.ydx_value(z)

    def local_series(self, center, order):
        cv = self.curve
        depth = 2 * max(p.order for p in cv.x_poles) + 4
        y = cv.y_series(center, order + depth)
        dx = cv.x_series(center, order + depth).differentiate()
        return y * dx

    def poles(self):
        cv = self.curve
        out = [(p.location, None) for p in cv.x_poles]
        if cv.genus == 0:
            out.extend((p, m + 1) for p, m in cv.Y.finite_poles()
                       if not any(_same_center(p, q[0]) for q in out))
        else:
            for R in (cv.R1, cv.R2):
                for root, _ in R.finite_poles():
                    for u in cv.sheets_above(cv.x_scale * root,
                                             allow_near_branch=True).preimages:
                        if not any(_same_center(u, q[0]) for q in out):
                            out.append((u, None))
        return out


class DuForm(Form1):
    """c du, the holomorphic form on the torus."""

    def __init__(self, curve, c=1.0):
        if curve.genus != 1:
            raise UnsupportedCycle("holomorphic forms need genus 1")
        self.curve = curve
        self.c = complex(c)

    def value(self, z):
        return self.c

    def local_series(self, center, order):
        return constant(self.c, order=order)

    def primitive(self, o, zs):
        return self.c * (zs - o)

    def poles(self):
        return []

    def cycle_period(self, which):
        (a, b), = self.curve.cycles
        return self.c * (a if which == "a" else b)


class ThirdKind(Form1):
    """dS_{z1,z2}: simple poles +1 at z1 and -1 at z2."""

    def __init__(self, curve, z1, z2):
        self.curve = curve
        self.z1, self.z2 = complex(z1), complex(z2)

    def value(self, z):
        P = self.curve.bergman_primitive
        return P(z - self.z1) - P(z - self.z2)

    def local_series(self, center, order):
        if center == "inf":
            # 1/(1/w - zi) * (-1/w^2) dw = -1/(w (1 - zi w)) dw
            out = None
            for sgn, zi in ((1.0, self.z1), (-1.0, self.z2)):
                den = TruncSeries(
                    np.concatenate([[1.0, -zi], np.zeros(order + 4)]), 0)
                t = den.invert().shift(-1) * (-sgn)
                out = t if out is None else out + t
            return out
        P = self.curve.bergman_primitive_series
        return P(center - self.z1, order + 3) - P(center - self.z2, order + 3)

    def primitive(self, o, zs):
        """log E(. - z1) - log E(. - z2), continued from o to each z."""
        p = np.array([[self.z1], [self.z2]])
        return np.subtract(*self.curve._log_prime_rise(o - p, zs - p))

    def poles(self):
        return [(self.z1, 1), (self.z2, 1)]

    def cycle_period(self, which):
        if which == "a":
            return 0.0
        cell = self.curve.to_cell
        return 2j * np.pi * (cell(self.z1) - cell(self.z2))


class BergmanLeg(Form1):
    """scale * B(z0, .) with one leg frozen at z0."""

    def __init__(self, curve, z0, scale=1.0):
        self.curve = curve
        self.z0 = complex(z0)
        self.scale = complex(scale)

    def value(self, z):
        return self.scale * self.curve.bergman(z - self.z0)

    def local_series(self, center, order):
        if center == "inf":
            F = self.curve.bergman_taylor_at_infinity(self.z0, 1, order + 4)[0]
        else:
            F = -self.curve.bergman_primitive_series(
                center - self.z0, order + 6).differentiate()
        return F * self.scale

    def poles(self):
        return [(self.z0, 2)]

    def cycle_period(self, which):
        return 0.0 if which == "a" else 2j * np.pi * self.scale


class SecondKindBasis(Form1):
    """omega_{p,j} normalized so that d(omega)/d t_{p,j} pairing holds:
    principal part xi^-(j+1) d(xi) at p, no residue, no other pole.

    With z' = p + s near the pole, B(z', z) = sum_m F^(m)(p - z)/m! s^m
    dz, so omega_{p,j}(z) = (1/j) sum_m c_m F^(m)(p - z)/m!, where c_m is
    the coefficient of s^(-1-m) in xi(s)^-j."""

    def __init__(self, curve, pole, j):
        if j < 1:
            raise BadIndex(f"second-kind index j = {j} must be >= 1")
        self.curve = curve
        self.pole = pole            # PoleFrame
        self.j = int(j)
        xi = pole.xi_of_s
        invj = xi.invert() ** j
        # c[m] = coefficient of s^(-1-m) in xi(s)^-j, m = 0..j-1
        self.cm = np.array([invj.coeff(-1 - m) for m in range(j)],
                           dtype=complex)
        self.center = pole.location

    def value(self, z):
        j, cm = self.j, self.cm
        if self.center == "inf":
            # B(z', z) = -sum_m (m+1) z^m w'^m dw' dz near w' = 0
            return -sum(cm[m] * (m + 1) * z ** m for m in range(j)) / j
        F = self.curve.bergman_derivs(self.center - z, j)
        return sum(cm[m] * F[m] for m in range(j)) / j

    def local_series(self, center, order):
        j, cm = self.j, self.cm
        if self.center == "inf":
            poly = np.zeros(j + 1, dtype=complex)
            for m in range(j):
                poly[m] = -cm[m] * (m + 1) / j
            if center == "inf":
                # q(z) dz = -q(1/w) w^-2 dw
                n = len(poly)
                rev = np.zeros(order + n + 4, dtype=complex)
                rev[:n] = -poly[::-1]
                return TruncSeries(rev, -(n + 1))
            shifted = _poly_shift(poly, center)
            pad = np.zeros(max(order + 1, len(shifted)), dtype=complex)
            pad[:len(shifted)] = shifted
            return TruncSeries(pad[:order + 1], 0)
        if center == "inf":
            F = self.curve.bergman_taylor_at_infinity(self.center, j,
                                                      order + 4)
            return _combine(cm / j, F)
        # F^(q)(p - center - t)/q!: derivatives of F(p - center + t) = -P',
        # then t -> -t
        F = [-self.curve.bergman_primitive_series(
            self.center - center, order + j + 6).differentiate()]
        for q in range(1, j):
            F.append(F[-1].differentiate() * (1.0 / q))
        return flip_parity(_combine(cm / j, F))

    def primitive(self, o, zs):
        """(1/j) sum_m c_m (m+1) L_(m+1)(p - .) from o to each z, L_k = [t^k]
        log E(. + t): F^(m)(p - z)/m! dz = d((m+1) L_(m+1)(p - z)); at
        "inf" the polynomial -(1/j) sum_m c_m z^(m+1)."""
        j, z = self.j, np.append(zs, o)
        if self.center == "inf":
            vals = -np.polynomial.polynomial.polyval(
                z, np.concatenate([[0.0], self.cm])) / j
        else:
            L = self.curve._log_prime_jet(self.center - z, j)[1:]
            vals = (self.cm * np.arange(1, j + 1) / j) @ L
        return vals[:-1] - vals[-1]

    def poles(self):
        return [(self.center, self.j + 1)]

    def cycle_period(self, which):
        return 0.0 if which == "a" else 2j * np.pi * self.cm[0] / self.j


# -- times and filling fractions -----------------------------------------------

class PoleTimes:
    """Laurent data of a form at one pole, in the local coordinate of
    ``frame`` (its order d_p)."""

    def __init__(self, center, frame, kind, times):
        self.center = center
        self.frame = frame
        self.kind = kind            # 'x_pole' or 'omega_pole'
        self.times = times          # t_j = Res omega xi^j, j = 0..len-1

    def __repr__(self):
        return f"PoleTimes({self.center}, kind={self.kind}, t={self.times})"


def pole_frame(curve, center):
    """The local coordinate at ``center``: the curve's frame at a pole
    of X, else xi = X - X(center) (order -1)."""
    xp = next((p for p in curve.x_poles
               if _same_center(p.location, center)), None)
    if xp is not None:
        return xp
    xi = _drop_low_noise(curve.x_series(center, curve.order + 6)
                         - curve.x_value(center), upto=1)
    if abs(xi.coeff(1)) < 1e-12:
        raise PoleAtRamificationPoint(
            f"coordinate X - X(p) degenerate at {center}")
    return PoleFrame(curve, center, -1, xi)


def times_and_fillings(curve, form: Form1, j_max=None, tol=1e-10):
    """All times t_{p,j} of the form plus its filling fractions.

    Poles of the form sitting at ramification points are rejected; the
    residue-theorem sum over t_{p,0} is enforced as a check.  The filling
    fractions are read off a point value of the form less its expansion
    in the canonical basis, which refuses times cut short at j_cap.
    """
    j_cap = j_max if j_max is not None else curve.order - 4
    records = []
    centers = [p[0] for p in form.poles()]
    # poles of X always get a record, even if all times vanish
    for xp in curve.x_poles:
        if not any(_same_center(xp.location, c) for c in centers):
            centers.append(xp.location)

    for center in centers:
        for r in curve.ramification_points:
            if _same_center(center, r.location):
                raise PoleAtRamificationPoint(
                    f"form has a pole at ramification point {r.location}")
        h = form.local_series(center, curve.order + 6)
        frame = pole_frame(curve, center)
        xi = frame.xi_of_s.retag(h.var_tag)
        kind = "x_pole" if frame.order > 0 else "omega_pole"
        times, prod = [], h
        for j in range(j_cap):
            try:
                times.append(prod.residue())
            except TruncationTooShort:
                break
            prod = prod * xi
        # trim trailing zeros but keep t_0
        while len(times) > 1 and abs(times[-1]) < tol:
            times.pop()
        if kind == "omega_pole" and all(abs(t) < tol for t in times):
            continue                    # pole cancelled inside a SumForm
        records.append(PoleTimes(center, frame, kind,
                                 np.array(times)))

    total = sum(r.times[0] for r in records)
    if abs(total) > 1e-8:
        raise ResidueSumNonzero(f"sum of residues = {total}")

    from .geometry import _filling_fractions
    return records, _filling_fractions(curve, form, records, j_cap)


class WpPolyDu(Form1):
    """P(wp(u)) du for a polynomial P: correction atom used to build
    deformation directions vanishing at ramification points."""

    def __init__(self, curve, coeffs):
        if curve.genus != 1:
            raise UnsupportedCycle("wp-polynomial forms need genus 1")
        self.curve = curve
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def value(self, z):
        return np.polynomial.polynomial.polyval(self.curve.ell.wp(z),
                                                self.coeffs)

    def local_series(self, center, order):
        wp = self.curve.wp_series(center, order + 2 * len(self.coeffs) + 4)
        return _compose_rational(RationalFunction(self.coeffs), wp)

    def poles(self):
        return [(0.0, 2 * (len(self.coeffs) - 1))] \
            if len(self.coeffs) > 1 else []
