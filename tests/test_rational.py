"""Rational functions and their expansions: RationalFunction.of against
40-digit mpmath series, its operators against point values, the window
and tag of every rational expansion of both backends, and the curve
deformations built from this algebra against the curves' point values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralflow.curve import Genus0Curve, Genus1Curve, RationalFunction
from spectralflow.forms import RationalDz, SecondKindBasis
from spectralflow.series import TruncSeries

from deformations import (
    WpPolyDu,
    deform_holomorphic,
    deform_second_kind,
    rescaled,
    shift_y_by_rational_of_x,
)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

N = 16                                  # coefficients compared per series

# coefficients on a 1e-3 grid: an m-fold root at 1e-163 underflows in the
# coefficients, and the float function is then not the one expanded here
finite = st.integers(-1000, 1000).map(lambda k: k / 1000)
cnum = st.builds(complex, finite, finite)
polys = st.lists(cnum, min_size=1, max_size=5).filter(
    lambda c: abs(c[-1]) > 0.1)


def _far_roots(center, count):
    """Strategy: ``count`` roots at least 0.4 from ``center``."""
    return st.lists(cnum.map(lambda r: 2 * r), min_size=count,
                    max_size=count).filter(
        lambda rs: all(abs(r - center) > 0.4 for r in rs))


# -- a small Laurent algebra in mpmath: (lo, [coefficients from t^lo]) -------

def _mul(a, b):
    (la, ca), (lb, cb) = a, b
    n = min(len(ca), len(cb))
    return la + lb, [mp.fsum(ca[i] * cb[k - i] for i in range(k + 1))
                     for k in range(n)]


def _add(a, c):
    """a + c for a number c."""
    lo, ca = a
    if lo > 0:
        lo, ca = 0, [mp.mpc(0)] * lo + ca[:len(ca) - lo]
    ca = list(ca)
    ca[-lo] += c
    return lo, ca


def _inv(a):
    lo, ca = a
    out = [1 / ca[0]]
    for k in range(1, len(ca)):
        out.append(-mp.fsum(ca[i] * out[k - i] for i in range(1, k + 1))
                   / ca[0])
    return -lo, out


def _horner(p, t):
    acc = (0, [mp.mpc(p[-1])] + [mp.mpc(0)] * (len(t[1]) - 1))
    for c in p[-2::-1]:
        acc = _add(_mul(acc, t), mp.mpc(c))
    return acc


def _series(lo, coeffs, n=N + 12):
    return lo, [mp.mpc(c) for c in coeffs] + [mp.mpc(0)] * (n - len(coeffs))


def _close(got: TruncSeries, ref, r, tol):
    """|got_k - ref_k| r^k <= tol max_k |ref_k| r^k over the first N
    coefficients of ref, which got must all know; r is inside the disc
    of convergence, where a_k r^k stays bounded."""
    lo, cs = ref
    scaled = [complex(c) * r ** (lo + k) for k, c in enumerate(cs[:N])]
    scale = max(abs(c) for c in scaled)
    assert got.trunc_order >= lo + N - 1
    for k, want in enumerate(scaled):
        err = abs(got.coeff(lo + k) * r ** (lo + k) - want)
        assert err <= tol * scale, (lo + k, err / scale)


def _at_point(c):
    return TruncSeries(np.r_[c, 1.0, np.zeros(N + 10)], 0, "s")


# -- R.of against mpmath ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(polys, cnum, st.integers(0, 3).flatmap(
    lambda k: _far_roots(0j, k)))
def test_of_at_a_regular_point(num, c, roots):
    # R = P/Q, Q = prod (z - r) + 0.5 with c clear of the roots of Q
    den = np.polynomial.polynomial.polyfromroots(roots) + 0.5 if roots \
        else np.array([0.5 + 0.2j])
    R = RationalFunction(num, den)
    qr = np.polynomial.polynomial.polyroots(den) if len(den) > 1 else []
    dist = min([abs(q - c) for q in qr], default=1.0)
    if dist < 0.2:
        return
    t = _series(1, [1.0])
    ref = _mul(_horner(num, _add(t, c)), _inv(_horner(den, _add(t, c))))
    _close(R.of(_at_point(c)), ref, min(dist / 2, 1.0), 1e-13)


@settings(max_examples=40, deadline=None)
@given(polys, cnum, st.integers(1, 5),
       st.integers(0, 2).flatmap(lambda k: _far_roots(0j, k)))
def test_of_at_a_pole_of_order_m(num, c, m, roots):
    # Q = (z - c)^m S(z): R(c + s) = P(c + s) s^-m / S(c + s)
    roots = [r for r in roots if abs(r - c) > 0.4]
    R = RationalFunction(num, np.polynomial.polynomial.polyfromroots(
        [c] * m + roots))
    if abs(np.polynomial.polynomial.polyval(c, num)) < 0.05:
        return                          # a zero of P near c: not a pole
    t = _series(1, [1.0])
    S = (0, [mp.mpc(1)] + [mp.mpc(0)] * (len(t[1]) - 1))
    for r in roots:
        S = _mul(S, _add(t, c - r))
    ref = _mul(_mul(_horner(num, _add(t, c)), _inv(S)),
               _series(-m, [1.0]))
    dist = min([abs(r - c) for r in roots], default=1.0)
    _close(R.of(_at_point(c)), ref, min(dist / 2, 1.0), 1e-11)


@settings(max_examples=40, deadline=None)
@given(polys, polys, cnum, cnum, st.integers(1, 2))
def test_of_cancels_a_removable_factor(u, v, c, res, m):
    # F = res/(z - c)^m + U and G = -res/(z - c)^m + V summed by +, as a
    # deformation sum is: (z - c)^m divides the numerator only up to
    # roundoff, and R(c + s) is U + V
    pole = RationalFunction([res], np.polynomial.polynomial.polyfromroots(
        [c] * m))
    R = (pole + RationalFunction(u)) + (pole * -1.0 + RationalFunction(v))
    uv = np.polynomial.polynomial.polyadd(u, v)
    if np.max(np.abs(uv)) < 0.1:
        return
    t = _series(1, [1.0])
    _close(R.of(_at_point(c)), _horner(uv, _add(t, c)), 1.0, 1e-12)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_of_at_infinity(num, den):
    # R(1/w) = w^(dq - dp) P~(w)/Q~(w), P~ and Q~ the reversed polynomials
    R = RationalFunction(num, den)
    rev = [np.asarray(p[::-1]) for p in (num, den)]
    w = _series(1, [1.0])
    ref = _mul(_mul(_horner(rev[0], w), _inv(_horner(rev[1], w))),
               _series(len(den) - len(num), [1.0]))
    roots = np.polynomial.polynomial.polyroots(rev[1]) \
        if len(rev[1]) > 1 else []
    r = min([abs(q) / 2 for q in roots] + [1.0])
    inner = TruncSeries(np.eye(1, N + 12)[0], -1, "w")
    _close(R.of(inner), ref, r, 1e-12)


@settings(max_examples=30, deadline=None)
@given(polys, polys.filter(lambda c: len(c) > 1), st.lists(
    cnum, min_size=4, max_size=4))
def test_of_wp_like_laurent_inner(num, den, head):
    # inner = t^-2 + h0 + h1 t^2 + h2 t^4 + h3 t^6, even like wp at a
    # lattice point; the reference is Horner on the unshifted inner
    coeffs = np.zeros(N + 14, dtype=complex)
    coeffs[0], coeffs[2:10:2] = 1.0, head
    inner = TruncSeries(coeffs, -2)
    R = RationalFunction(num, den)
    ref_inner = _series(-2, coeffs)
    ref = _mul(_horner(num, ref_inner), _inv(_horner(den, ref_inner)))
    _close(R.of(inner), ref, 0.3, 1e-11)


def _cond(p, z):
    """Condition number of the value of the polynomial p at z."""
    pol = np.polynomial.polynomial
    return pol.polyval(abs(z), abs(np.asarray(p))) / abs(pol.polyval(z, p))


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys, polys.filter(lambda c: len(c) > 1))
def test_of_rational_inner_pointwise(pn, pd, xn, xd):
    # R(X) is not reduced: its coefficients and both point values carry
    # the conditioning of the polynomials evaluated.  Measured over 4,000
    # random draws: at most 5.4e-13 of the condition sum below
    R, X = RationalFunction(pn, pd), RationalFunction(xn, xd)
    RX = R.of(X)
    for z in (0.3 + 0.8j, -1.1 + 0.4j, 1.7 - 0.6j):
        x = X(z)
        want = R(x)
        cond = _cond(RX.num, z) + _cond(RX.den, z) + (
            _cond(pn, x) + _cond(pd, x)) * (1 + _cond(xn, z) + _cond(xd, z))
        assert abs(RX(z) - want) <= 1e-11 * cond * abs(want)


def test_operators_pointwise():
    a = RationalFunction([1.0, 2j, 0.5], [0.3, 1.0])
    b = RationalFunction([0.2, -1.0], [1.0, 0.0, 0.7j])
    for z in (0.4 + 0.9j, -1.3 + 0.2j):
        av, bv = a(z), b(z)
        for got, want in (((a + b)(z), av + bv), ((a - b)(z), av - bv),
                          ((a * b)(z), av * bv), ((a / b)(z), av / bv),
                          ((a * 2.5j)(z), av * 2.5j), ((a / 4.0)(z), av / 4),
                          ((a - 1.5)(z), av - 1.5), ((a ** 3)(z), av ** 3),
                          ((a ** -2)(z), av ** -2)):
            assert abs(got - want) <= 1e-14 * abs(want)



def test_sum_over_one_denominator_keeps_it():
    # equal denominators are not multiplied together: the sum keeps
    # 1 + z^2, whose roots +-i stay simple poles
    total = RationalFunction([2, 1], [1, 0, 1]) \
        + RationalFunction([1], [1, 0, 1])
    assert np.array_equal(total.num, [3, 1])
    assert np.array_equal(total.den, [1, 0, 1])
    poles = total.finite_poles()
    assert [m for _, m in poles] == [1, 1]
    assert max(abs(p - q) for (p, _), q in zip(poles, (-1j, 1j))) < 1e-15


def test_of_rational_inner_builds_no_common_factor():
    # R(X) in homogeneous form for R of degree 4 and the Joukowski X:
    # numerator and denominator of degree 8, eight simple poles, and none
    # at X's pole 0, where R(X) tends to R(inf) = 1
    R = RationalFunction([1, 2, 0, 0, 1], [2, 0, 1, 0, 1])
    X = RationalFunction([1, 0, 1], [0, 1])
    RX = R.of(X)
    assert (len(RX.num) - 1, len(RX.den) - 1) == (8, 8)
    poles = RX.finite_poles()
    assert [m for _, m in poles] == [1] * 8
    assert min(abs(p) for p, _ in poles) > 0.1
    assert abs(RX(0.0) - 1.0) < 1e-15
    for z in (0.3 + 0.8j, -1.1 + 0.4j, 1.7 - 0.6j):
        assert abs(RX(z) - R(X(z))) < 1e-14 * abs(R(X(z)))


def test_poles_of_a_tiny_leading_term_are_polished():
    # Q = -i (1 + z) - 4.5e-92 i z^2 has roots -1 and about -2.2e91, but
    # polyroots returns 0 and -2.2e91: Newton on Q moves 0 to -1
    poles = RationalFunction([1], [-1j, -1j, -4.5e-92j]).finite_poles()
    assert [m for _, m in poles] == [1, 1]
    assert min(abs(p + 1) for p, _ in poles) < 1e-15
    assert max(abs(p) for p, _ in poles) > 1e91

# -- the window contract ----------------------------------------------------------

def _sphere():
    """X = (1 + z^3)/z^2, poles of order 2 at 0 and 1 at inf; Y with a
    pole at -10."""
    return Genus0Curve(RationalFunction([1, 0, 0, 1], [0, 0, 1]),
                       RationalFunction([0.3, 1, 0.2], [1, 0.1]))


def _torus():
    """R2 has a pole at wp = -5, x_scale != 1."""
    return Genus1Curve(0.25 + 1.07j, RationalFunction([0.3, -0.2, 0.05]),
                       RationalFunction([0.5, 0.1j], [1.0, 0.2]),
                       x_scale=1.7 - 0.4j)


def _tag(center):
    return "w@inf" if center == "inf" else f"s@{center:.6g}"


@pytest.mark.parametrize("order", [6, 24])
def test_sphere_window_contract(order):
    cv = _sphere()
    ram = cv.ramification_points[0].location
    for center in (0.37 + 0.21j, 0.0, -10.0, ram, "inf"):
        for s in (cv.x_series(center, order), cv.y_series(center, order)):
            assert s.trunc_order >= order and s.var_tag == _tag(center)
    forms = [RationalDz(RationalFunction([1.0, 0.5], np.polynomial.polynomial
                                         .polyfromroots([0.5] * 3))),
             RationalDz(RationalFunction([0.2, 1.0, 0.3, 0.1j]))]
    for f in forms:
        for center in (0.37 + 0.21j, 0.5, ram, "inf"):
            s = f.local_series(center, order)
            assert s.trunc_order >= order
            assert s.var_tag == ("w@inf" if center == "inf" else "")


@pytest.mark.parametrize("order", [6, 24])
def test_torus_window_contract(order):
    cv = _torus()
    pole = cv.sheets_above(-5.0 * cv.x_scale).preimages[0]
    ram = cv.ramification_points[1].location
    for center in (0.31 + 0.22j, 0.0, pole, ram):
        for s in (cv.x_series(center, order), cv.y_series(center, order)):
            assert s.trunc_order >= order and s.var_tag == _tag(center)
        s = WpPolyDu(cv, [0.1, 0.2, 0.3, 0.4]).local_series(center, order)
        assert s.trunc_order >= order and s.var_tag == ""


# -- deformations, pointwise ----------------------------------------------------------

POINTS = [0.31 + 0.42j, 0.77 + 0.13j, 1.4 - 0.6j]


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def curves():
    return {"joukowski": Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                                     RationalFunction([0, 1])),
            "torus": Genus1Curve(1j, RationalFunction([0.0]),
                                 RationalFunction([0.5]))}


@pytest.mark.parametrize("which", ["joukowski", "torus"])
def test_shift_y_by_rational_of_x_pointwise(curves, which):
    cv = curves[which]
    R = RationalFunction([0.3, 0.2, -0.1j], [1.0, 0.25])
    new = shift_y_by_rational_of_x(cv, R)
    for z in POINTS:
        assert _rel(new.x_value(z), cv.x_value(z)) < 1e-15
        want = cv.y_value(z) + R(cv.x_value(z))
        assert _rel(new.y_value(z), want) < 1e-13


@pytest.mark.parametrize("which", ["joukowski", "torus"])
def test_scaled_pointwise(curves, which):
    cv, lam = curves[which], 2.0 - 0.5j
    new = rescaled(cv, lam)
    for z in POINTS:
        assert _rel(new.x_value(z), lam * cv.x_value(z)) < 1e-13
        assert _rel(new.y_value(z), cv.y_value(z) / lam) < 1e-13


@pytest.mark.parametrize("j", [1, 2, 3])
def test_deform_second_kind_at_a_finite_pole_pointwise(curves, j):
    # Y -> Y + lam omega_(0,j)/dX, omega's point values from the log E jet
    cv, lam = curves["joukowski"], 0.3 + 0.1j
    xp = next(p for p in cv.x_poles if p.location == 0.0)
    omega = SecondKindBasis(cv, xp, j)
    new = deform_second_kind(cv, 0.0, j, lam)
    for z in POINTS:
        want = cv.y_value(z) + lam * omega.value(z) / cv.dx_value(z)
        assert _rel(new.y_value(z), want) < 1e-13


def test_deform_holomorphic_on_the_square_torus_pointwise(curves):
    # Y -> Y + lam 2 i pi du/dX: R2 gains a pole at each e_a, one of which
    # is wp((1 + i)/2) = 0, where the sextic's constant -g3 is roundoff
    cv, lam = curves["torus"], 0.1 - 0.2j
    new = deform_holomorphic(cv, lam)
    for u in POINTS:
        want = cv.y_value(u) + lam * 2j * np.pi / cv.dx_value(u)
        assert _rel(new.y_value(u), want) < 1e-13


def test_deformed_torus_y_series_at_a_half_period(curves):
    # wp is even about each half period, so its odd slots there are exactly
    # 0; Y + lam 2 i pi du/dX then has a simple pole at 1/2, where wp' = 0,
    # with no roundoff in the leading slot of wp - wp(1/2)
    cv = curves["torus"]
    for h in (0.5, 0.5j, 0.5 + 0.5j, 1.5 + 1j):
        assert np.all(cv.wp_series(h, 10).coeffs[1::2] == 0.0), h
    new = deform_holomorphic(cv, 0.1)
    ys = new.y_series(0.5, 10)
    assert ys.k_min == -1
    t = 0.05 * np.exp(1j * np.array([0.4, 2.5, 4.1]))
    got = np.array([ys.evaluate(x) for x in t])
    assert np.max(np.abs(got - new.y_value(0.5 + t))) \
        < 1e-9 * np.max(np.abs(got))
