"""Curve deformations Y dX -> Y dX + lam * omega_k at fixed X, kept on
the test side as the finite-difference oracles for the moduli
derivatives.

The basis directions stay inside the parametric backend families
(rational on the sphere; R1(wp) + R2(wp) wp' on the torus, where even wp
derivatives are polynomials in wp and 1/wp' is wp' over the sextic).
The curves are built directly: ``deformed`` adds to Y (to R1, R2 on the
torus), ``rescaled`` is the symplectic rescaling (X, Y) -> (lam X, Y/lam)
and ``shift_y_by_rational_of_x`` the shift (X, Y) -> (X, Y + R(X)).
``WpPolyDu`` is P(wp) du, the correction atom of the regularized
directions.
"""

from math import factorial

import numpy as np

from spectralflow.curve import Genus0Curve, Genus1Curve, RationalFunction
from spectralflow.errors import NotRepresentable, UnsupportedCycle
from spectralflow.forms import (
    DuForm,
    Form1,
    SecondKindBasis,
    SumForm,
    _same_center,
    expansion,
)

_pol = np.polynomial.polynomial


def deformed(curve, *d):
    """The curve with Y -> Y + dY on the sphere (d = (dY,)), and with
    (R1, R2) -> (R1 + dR1, R2 + dR2) on the torus (d = (dR1, dR2))."""
    if curve.genus == 0:
        dY, = d
        return Genus0Curve(curve.X, curve.Y + dY, curve.order)
    dR1, dR2 = d
    return Genus1Curve(curve.tau, curve.R1 + dR1, curve.R2 + dR2,
                       curve.x_scale, curve.order)


def rescaled(curve, lam):
    """(X, Y) -> (lam X, Y / lam): a symplectic transformation."""
    if curve.genus == 0:
        return Genus0Curve(curve.X * lam, curve.Y / lam, curve.order)
    return Genus1Curve(curve.tau, curve.R1 / lam, curve.R2 / lam,
                       curve.x_scale * lam, curve.order)


def invariants_g2_g3(curve):
    """Coefficients in wp'^2 = 4 wp^3 - g2 wp - g3 on the torus: 20 and
    28 times the t^2 and t^4 coefficients of wp(t)."""
    wp = curve.wp_series(0.0, 4)
    return 20.0 * wp.coeff(2), 28.0 * wp.coeff(4)


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
        return RationalFunction(self.coeffs).of(wp)

    def poles(self):
        return [0.0] if len(self.coeffs) > 1 else []


def _wp_pairs(mmax, g2, g3):
    """(A_m, B_m) with wp^(m) = A_m(wp) + B_m(wp) wp' as polynomials."""
    sext = np.array([-g3, -g2, 0.0, 4.0], dtype=complex)     # wp'^2
    half = np.array([-g2 / 2.0, 0.0, 6.0], dtype=complex)    # wp''
    pairs = [(np.array([0.0, 1.0], dtype=complex),
              np.array([0.0], dtype=complex))]
    for _ in range(mmax):
        A, B = pairs[-1]
        newA = _pol.polyadd(_pol.polymul(_pol.polyder(B), sext),
                            _pol.polymul(B, half))
        newB = _pol.polyder(A)
        pairs.append((np.atleast_1d(newA), np.atleast_1d(newB)))
    return pairs


def deform_second_kind(curve, center, j, lam):
    """New curve with Y dX -> Y dX + lam * omega_{center, j}."""
    if lam == 0:
        return curve
    xp = next((p for p in curve.x_poles
               if _same_center(p.location, center)), None)
    if xp is None:
        raise NotRepresentable(
            f"deformations are supported at poles of X only, not {center}")
    bf = SecondKindBasis(curve, xp, j)
    if curve.genus == 0:
        if center == "inf":
            omega = bf.R
        else:
            # sum_k head[k] (z - p)^-(k+1) = H(v) v, v = 1/(z - p)
            (p, head), = bf.parts
            v = RationalFunction([1.0], [-p, 1.0])
            omega = RationalFunction(head).of(v) * v
        return deformed(curve, omega * lam / curve.dX)

    # genus 1, head[m+1] = (m+1) a_m: omega_{0,j} = sum_m a_m (-1)^m
    # F^(m)(u)/m! du with F = wp - c0
    ell = curve.ell
    g2, g3 = invariants_g2_g3(curve)
    pairs = _wp_pairs(j + 1, g2, g3)
    A = np.array([0.0], dtype=complex)
    B = np.array([0.0], dtype=complex)
    (_, head), = bf.parts
    for m, hm in enumerate(head[1:]):
        c = hm * (-1.0) ** m / factorial(m + 1)
        if c == 0:
            continue
        Am, Bm = pairs[m]
        if m == 0:
            Am = _pol.polyadd(Am, [-ell.c0])
        A = _pol.polyadd(A, np.atleast_1d(Am) * c)
        B = _pol.polyadd(B, np.atleast_1d(Bm) * c)
    return _genus1_add_over_dx(curve, A, B, lam)


def deform_holomorphic(curve, lam):
    """Y dX -> Y dX + lam * 2 i pi du (filling-fraction direction)."""
    if curve.genus != 1:
        raise NotRepresentable("holomorphic deformations need genus 1")
    A = np.array([2j * np.pi], dtype=complex)
    B = np.array([0.0], dtype=complex)
    return _genus1_add_over_dx(curve, A, B, lam)


def _genus1_add_over_dx(curve, A, B, lam):
    """Add lam [A(wp) + B(wp) wp'] du / dX to Y dX on the torus.

    dX = x_scale wp' du, and [A + B wp']/wp' = B + A wp'/(4wp^3-g2wp-g3).
    """
    g2, g3 = invariants_g2_g3(curve)
    sext = np.array([-g3, -g2, 0.0, 4.0], dtype=complex)
    # R1 and R2 are functions of wp itself, not of X = x_scale * wp, so
    # only the 1/dX = 1/(x_scale wp' du) weight carries x_scale
    w = lam / curve.x_scale
    return deformed(curve, RationalFunction(B) * w,
                    RationalFunction(A, sext) * w)


def shift_y_by_rational_of_x(curve, R: RationalFunction):
    """(X, Y) -> (X, Y + R(X)): a symplectic transformation."""
    if curve.genus == 0:
        return deformed(curve, R.of(curve.X))
    # X = x_scale wp: R(X) = R(x_scale wp) as a rational function of wp
    return deformed(curve, R.of(RationalFunction([0.0, curve.x_scale])),
                    RationalFunction([0.0]))


def regularized_direction(curve, base):
    """A deformation direction with the same leading content as ``base``
    but vanishing at every ramification point, plus its decomposition.

    base: "eps" for the filling-fraction direction 2 i pi du, or
    ("t", j) for the second-kind direction at a pole of X (the last
    pole on the sphere, the origin on the torus).

    Returns (factory, times, eps): factory(lam) deforms the curve;
    ``times`` maps (location, j), the pole's complex location or "inf",
    to the direction's time components; ``eps`` is its filling-fraction
    component.
    """
    rams = curve.ramification_points
    if curve.genus == 0:
        if base == "eps":
            raise NotRepresentable("no filling fractions at genus 0")
        _, j = base
        xp = curve.x_poles[-1]
        bf = SecondKindBasis(curve, xp, j)
        base_vals = np.array([bf.value(r.location) for r in rams])
        # correction atoms at the other pole, orders offset from the
        # base so the pairing content does not cancel between poles
        corr_pole = curve.x_poles[0]
        orders = list(range(j + 1, j + 1 + len(rams)))
        atoms = [SecondKindBasis(curve, corr_pole, jj) for jj in orders]
        M = np.array([[at.value(r.location) for at in atoms] for r in rams])
        cs = np.linalg.solve(M, -base_vals) if len(rams) else np.zeros(0)
        if max(abs(c) for c in cs) < 1e-12:
            cs = np.zeros(len(atoms))
        pieces = [(xp.location, j, 1.0)] + [
            (corr_pole.location, jj, c)
            for jj, c in zip(orders, cs) if abs(c) > 1e-13]

        def factory(lam):
            out = curve
            for center, jj, c in pieces:
                out = deform_second_kind(out, center, jj, lam * c)
            return out

        times = {(center, jj): c for center, jj, c in pieces}
        return factory, times, 0.0

    ell = curve.ell
    if base == "eps":
        base_form = DuForm(curve, 2j * np.pi)
        base_vals = [2j * np.pi for _ in rams]
    else:
        _, j = base
        xp = curve.x_poles[0]
        base_form = SecondKindBasis(curve, xp, j)
        base_vals = [base_form.value(r.location) for r in rams]
    # correction atoms wp, wp^2, wp^3 (no constant: it would overlap
    # the holomorphic direction itself)
    es = [ell.wp(r.location) for r in rams]
    V = np.array([[e ** k for k in range(1, 4)] for e in es])
    sol = np.linalg.solve(V, -np.array(base_vals))
    cs = np.concatenate([[0.0], sol])
    corr = WpPolyDu(curve, cs)
    direction = SumForm([(1.0, base_form), (1.0, corr)])
    exp = expansion(curve, direction)
    times = {}
    for rec in exp.records:
        if rec.kind == "x_pole":
            for jj, t in enumerate(rec.times):
                if abs(t) > 1e-11:
                    times[(complex(rec.center), jj)] = t

    def factory(lam):
        out = curve
        if base == "eps":
            out = deform_holomorphic(out, lam)
        else:
            out = deform_second_kind(out, curve.x_poles[0].location,
                                     base[1], lam)
        A = np.asarray(cs, dtype=complex)
        return _genus1_add_over_dx(out, A, np.array([0.0]), lam)

    return factory, times, exp.eps[0]
