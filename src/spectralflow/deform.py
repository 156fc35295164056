"""Curve deformations Y dX -> Y dX + lam * omega_k at fixed X.

Used by the finite-difference oracles for the moduli derivatives: the
basis directions stay inside the parametric backend families (rational
on the sphere; R1(wp) + R2(wp) wp' on the torus, where even wp
derivatives are polynomials in wp and 1/wp' is wp' over the sextic).
"""

from __future__ import annotations

import numpy as np

from .curve import RationalFunction
from .errors import NotRepresentable
from .forms import SecondKindBasis, _same_center

_pol = np.polynomial.polynomial


def _rat_div(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return RationalFunction(_pol.polymul(a.num, b.den),
                            _pol.polymul(a.den, b.num))


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
            omega_rat = bf.R
        else:
            # sum_k head[k] (z - p)^-(k+1) over (z - p)^(len(head)), by Horner
            (p, head), = bf.parts
            shift = np.array([-p, 1.0], dtype=complex)
            num = np.zeros(1, dtype=complex)
            for c in head:
                num = _pol.polyadd(_pol.polymul(num, shift), [c])
            omega_rat = RationalFunction(num, _pol.polypow(shift, len(head)))
        dY = _rat_div(omega_rat.scale(lam), curve.dX)
        return curve.deformed(dY)

    # genus 1, head[m+1] = (m+1) a_m: omega_{0,j} = sum_m a_m (-1)^m
    # F^(m)(u)/m! du with F = wp - c0
    from math import factorial
    ell = curve.ell
    g2, g3 = curve.invariants_g2_g3()
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
    g2, g3 = curve.invariants_g2_g3()
    sext = np.array([-g3, -g2, 0.0, 4.0], dtype=complex)
    alpha = curve.x_scale
    # R1 and R2 are functions of wp itself, not of X = x_scale * wp, so
    # only the 1/dX = 1/(x_scale wp' du) weight carries x_scale
    dR1 = RationalFunction(np.atleast_1d(B) * (lam / alpha))
    dR2 = RationalFunction(np.atleast_1d(A) * (lam / alpha), sext)
    return curve.deformed(dR1, dR2)


def shift_y_by_rational_of_x(curve, R: RationalFunction):
    """(X, Y) -> (X, Y + R(X)): a symplectic transformation."""
    if curve.genus == 0:
        comp_num = _compose_rat(R, curve.X)
        return curve.deformed(comp_num)
    # X = x_scale wp: R(X) = R(x_scale wp) as a rational function of wp
    scaled = _scale_argument(R, curve.x_scale)
    return curve.deformed(scaled, RationalFunction([0.0]))


def _compose_rat(R: RationalFunction, X: RationalFunction):
    """R(X(z)) as a rational function of z.

    With X = N/D and R = P/Q: lift both P and Q through
    sum c_k N^k D^(deg - k), then balance the leftover D powers.
    """
    cn = np.asarray(R.num, dtype=complex)
    cd = np.asarray(R.den, dtype=complex)

    def lift(c):
        m = len(c) - 1
        out = np.array([0.0], dtype=complex)
        for k, ck in enumerate(c):
            if ck == 0:
                continue
            term = np.array([ck], dtype=complex)
            for _ in range(k):
                term = _pol.polymul(term, X.num)
            for _ in range(m - k):
                term = _pol.polymul(term, X.den)
            out = _pol.polyadd(out, term)
        return out, m

    num_l, mn = lift(cn)
    den_l, md = lift(cd)
    # R(X) = num_l D^(md) / (den_l D^(mn))  -- powers balance via lift
    extra_n = md
    extra_d = mn
    num = num_l
    den = den_l
    for _ in range(extra_n):
        num = _pol.polymul(num, X.den)
    for _ in range(extra_d):
        den = _pol.polymul(den, X.den)
    return RationalFunction(num, den)


def _scale_argument(R: RationalFunction, alpha):
    """R(alpha x) as a rational function of x."""
    def scale(c):
        c = np.asarray(c, dtype=complex).copy()
        for k in range(len(c)):
            c[k] *= alpha ** k
        return c
    return RationalFunction(scale(R.num), scale(R.den))


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
    from .forms import DuForm, SecondKindBasis, SumForm, WpPolyDu
    from .forms import times_and_fillings

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
    records, eps = times_and_fillings(curve, direction)
    times = {}
    for rec in records:
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

    return factory, times, eps[0] if len(eps) else 0.0
