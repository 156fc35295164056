"""Local charts: the ramification charts s(zeta), y(zeta) against a closed
form and against the curve's own point values, an engine's charts
continued from the curve's on the sphere and read off the curve's one
deep solve on the torus, the torus's closed-form charts against series
arithmetic (``oracles.torus_chart_by_series``) at every kind of frame, a
constant R composed without the shift to c, the Lagrange-inversion gamma
tables against zeta(s)^-m, and the pole and regular-point charts s(xi)
against the frame's defining relation."""

from math import comb

import numpy as np
import pytest

from spectralflow import curve as curve_module
from spectralflow.curve import (
    Genus0Curve,
    Genus1Curve,
    RationalFunction,
    flip_parity,
)
from spectralflow.forms import pole_frame
from spectralflow.recursion import RecursionEngine
from spectralflow.series import TruncSeries, _horner, truncate

from deformations import deform_holomorphic
from oracles import torus_chart_by_series

TAUS = [1j, 0.25 + 1.07j]


def _joukowski40():
    return Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                       RationalFunction([0, 1]), order=40)


def _torus(tau):
    """Non-constant R1, R2 and x_scale != 1."""
    return Genus1Curve(tau, RationalFunction([0.3, -0.2, 0.05]),
                       RationalFunction([0.5, 0.1j], [1.0, 0.2]),
                       x_scale=1.7 - 0.4j)


# X with poles of order m >= 2, where the chart solve reads sigma^(m-1)
SPHERES = {
    "airy": ([0, 0, 1], [1], [0, 1]),                  # order 2 at inf
    "cubic": ([0, -3, 0, 1], [1], [0, 1]),             # order 3 at inf
    # order 2 at 0, order 3 at inf
    "fivept": ([0.2, 1, 0, 0, 0.3, 0.1], [0, 0, 1], [0, 1, 0.3]),
}


def _curve(which):
    if which == "joukowski":
        return _joukowski40()
    if which in SPHERES:
        num, den, y = SPHERES[which]
        return Genus0Curve(RationalFunction(num, den), RationalFunction(y),
                           order=40)
    return _torus(which)


def test_joukowski_engine_chart_closed_form():
    # at z = 1, zeta^2 = s^2/(1 + s): s = zeta^2/2 + zeta sqrt(1 + zeta^2/4),
    # whose coefficients fall like 2^-k; every deep coefficient is checked
    eng = RecursionEngine(_joukowski40())
    a = next(i for i, r in enumerate(eng.rams) if abs(r.location - 1) < 1e-9)
    s = eng.s_of[a]
    ks = np.arange(1, s.trunc_order + 1)
    ref = np.zeros(len(ks) + 1)
    ref[2] = 0.5
    for j in range((len(ks) - 1) // 2 + 1):
        # binomial(1/2, j) / 4^j
        ref[2 * j + 1] = (-1) ** (j + 1) * comb(2 * j, j) \
            / ((2 * j - 1) * 16.0 ** j)
    err = np.abs(np.array([s.coeff(k) for k in ks]) - ref[ks])
    assert np.max(err * 2.0 ** ks) < 1e-13


@pytest.mark.parametrize("tau", TAUS)
def test_torus_chart_solves_the_curve(tau):
    # X(a + s(zeta)) - X(a) = zeta^2 and Y(a + s(zeta)) = y(zeta), pointwise
    cv = _torus(tau)
    for r in cv.ramification_points:
        s, y = r.chart(60)
        for th in np.linspace(0.0, 2 * np.pi, 7)[:-1]:
            zeta = 0.1 * np.exp(1j * th)
            u = r.location + s.evaluate(zeta)
            assert abs(cv.x_value(u) - r.value - zeta ** 2) < 1e-12
            yu = cv.y_value(u)
            assert abs(yu - y.evaluate(zeta)) < 1e-11 * abs(yu)


def test_engine_continues_the_curves_charts(monkeypatch):
    # the curve solves each ramification chart once, to validate it; the
    # engine deepens those by Newton, bit for bit a fresh solve
    fresh = []
    solve = curve_module._solve_chart

    def counted(*args):
        # (U, V, m, slope, n, tag) and the chart to continue, if any
        fresh.append(len(args) < 7 or args[6] is None)
        return solve(*args)

    monkeypatch.setattr(curve_module, "_solve_chart", counted)
    cv = _joukowski40()
    assert fresh == [True, True]
    eng = RecursionEngine(cv)
    assert fresh == [True, True, False, False]
    for a, r in enumerate(eng.rams):
        s, y = cv._frame_chart(r, eng.deep)
        for got, want in ((eng.s_of[a], s), (eng.y_of[a], y)):
            assert got.k_min == want.k_min
            assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("tau", [*TAUS, -0.45 + 0.6j])
@pytest.mark.parametrize("pole", [False, True], ids=["torus", "pole-at-e"])
def test_torus_chart_matches_the_series_route(tau, pole):
    # the closed form against series arithmetic at the ramification
    # points, the pole of X and a regular point, over the coefficients
    # above 1e-12 of the largest, on R1, R2 regular at the e_a and on R2
    # with a pole at each (Y + lam 2 i pi du/dX): measured within 6.7e-15
    # relative
    cv = _torus(tau)
    if pole:
        cv = deform_holomorphic(cv, 0.1 - 0.2j)
    n = 2 * cv.order - 1
    for fr in [*cv.ramification_points, *cv.x_poles,
               pole_frame(cv, 0.31 + 0.22j)]:
        got, want = cv._frame_chart(fr, n), torus_chart_by_series(cv, fr, n)
        assert (got[1] is None) == (want[1] is None) == (fr.order != -2)
        for f, ref in zip(got, want):
            if ref is None:
                continue
            assert f.k_min == ref.k_min and f.trunc_order >= n
            ref = ref.coeffs
            err = abs(f.coeffs[:len(ref)] - ref)
            big = abs(ref) > 1e-12 * np.max(abs(ref))
            assert np.max(err[big] / abs(ref[big])) < 2e-14, fr.tag


def _of_by_shift(R, inner):
    """``RationalFunction.of`` a series by the general route for every R:
    numerator and denominator shifted to c by ``curve._at``."""
    c = inner.coeff(0)
    t = inner - c if c else inner
    (m, num), (k, den) = curve_module._at(R.num, c), curve_module._at(R.den, c)
    out = _horner(num, t) / (den[0] if len(den) == 1 else _horner(den, t))
    return out * t ** (m - k) if m != k else out


def test_constant_rational_skips_the_shift(monkeypatch):
    # a constant R composes without _at, to the same window and bits as
    # the general route: the tau = i charts (R1 = 0, R2 = 1/2) read the
    # same Y series at every ramification point
    for R in (RationalFunction([0.0]), RationalFunction([0.5]),
              RationalFunction([2.0 - 1.0j], [0.5j])):
        for inner in (TruncSeries([0.3, 1.0, 0.2], 0, "s"),
                      TruncSeries([1.0, 0.5], 2, "s")):
            got, want = R.of(inner), _of_by_shift(R, inner)
            assert (got.k_min, got.var_tag) == (want.k_min, want.var_tag)
            assert np.array_equal(got.coeffs, want.coeffs)
    fast = Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))
    monkeypatch.setattr(RationalFunction, "of", _of_by_shift)
    slow = Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))
    for r, q in zip(fast.ramification_points, slow.ramification_points):
        got, want = r.chart(fast.order + 5)[1], q.chart(slow.order + 5)[1]
        assert (got.k_min, got.trunc_order) == (want.k_min, want.trunc_order)
        assert np.array_equal(got.coeffs, want.coeffs), r.location


def test_torus_engine_reads_the_curves_charts(monkeypatch):
    # each torus chart is solved once, through xi^(2 order - 1), which is
    # as deep as an engine reads: the curve's 3 solves serve the engine
    # too.  Its charts are bit for bit a fresh solve, and a deeper one:
    # no coefficient of the closed form depends on the depth
    solves = []
    solve = Genus1Curve._frame_chart

    def counted(self, frame, n, s=None):
        solves.append(n)
        return solve(self, frame, n, s)

    monkeypatch.setattr(Genus1Curve, "_frame_chart", counted)
    cv = Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))
    eng = RecursionEngine(cv)
    assert len(solves) == 3
    for a, r in enumerate(eng.rams):
        for n in (eng.deep, 2 * cv.order + 20):
            for got, want in zip((eng.s_of[a], eng.y_of[a]),
                                 solve(cv, r, n)):
                want = truncate(want, eng.deep, absolute=True)
                assert got.k_min == want.k_min
                assert got.trunc_order == eng.deep
                assert np.array_equal(got.coeffs, want.coeffs)
    # a read past the solved depth solves again
    assert eng.rams[0].chart(2 * cv.order + 5)[0].trunc_order \
        == 2 * cv.order + 5
    assert len(solves) == 4


@pytest.mark.parametrize("curve", ["joukowski", 1j, 0.25 + 1.07j])
def test_lagrange_gamma_matches_zeta_powers(curve):
    # gamma^{a,m}_{-1-q}, the s^(-1-q) coefficient of zeta(s)^-m, with
    # zeta(s) = sqrt(X(a + s) - X(a)) on the chart's branch
    cv = _curve(curve)
    eng = RecursionEngine(cv)
    for a, r in enumerate(eng.rams):
        # a fresh engine fills its tables on first read: fill them here
        eng._gamma(eng.deep)
        assert eng.gamma[a].shape == (eng.deep, eng.deep)
        # X - X(a) has a double zero at a: its slots below s^2 are roundoff
        xs = cv.x_series(r.location, eng.deep + 4)
        xs = TruncSeries([xs.coeff(k) for k in range(2, xs.trunc_order + 1)],
                         2, xs.var_tag)
        if cv.genus == 1:
            # wp(a + s) is even at a half period: its odd slots are noise
            # that zeta(s)^-m would carry into gamma's zero entries
            xs = (xs + flip_parity(xs)) * 0.5
        # the chart's branch zeta'(0) is the principal root
        zeta = xs.sqrt()
        assert abs(zeta.coeff(1) - r.xi_prime) < 1e-13 * abs(r.xi_prime)
        zeta_inv = zeta.invert()
        acc = zeta_inv
        # row m is built from the entries of the rows before it, so it is
        # known to 1e-13 of the largest of them, not of its own maximum
        scale = 0.0
        for m in range(1, len(eng.gamma[a]) + 1):
            if m > 1:
                acc = acc * zeta_inv
            ref = np.array([acc.coeff(-1 - q) for q in range(m)])
            scale = max(scale, np.max(np.abs(ref)))
            err = np.max(np.abs(eng.gamma[a][m - 1, :m] - ref))
            assert err < 1e-13 * scale, (a, m)


def test_cubic_ramification_charts_solve_the_curve():
    # X(a + s(zeta)) = X(a) + zeta^2 at a = 1 and -1, pointwise
    cv = _curve("cubic")
    assert len(cv.ramification_points) == 2
    for r in cv.ramification_points:
        s, _ = r.chart(cv.order + 5)
        for th in np.linspace(0.0, 2 * np.pi, 7)[:-1]:
            zeta = 0.1 * np.exp(1j * th)
            u = r.location + s.evaluate(zeta)
            assert abs(cv.x_value(u) - r.value - zeta ** 2) < 1e-12


@pytest.mark.parametrize("curve", ["joukowski", 1j, 0.25 + 1.07j,
                                   *SPHERES])
def test_pole_charts_solve_the_frame(curve):
    # X(p + s(xi)) = xi^-d at a pole of X of order d, X(p) + xi at a
    # regular point; at "inf" the chart offset is w = 1/z
    cv = _curve(curve)
    for c in [p.location for p in cv.x_poles] + [0.31 + 0.22j]:
        fr = pole_frame(cv, c)
        s, y = fr.chart(fr.xi_of_s.trunc_order)
        assert y is None
        for th in np.linspace(0.0, 2 * np.pi, 5)[:-1]:
            xi = 0.02 * np.exp(1j * th)
            u = 1.0 / s.evaluate(xi) if c == "inf" else c + s.evaluate(xi)
            want = xi ** -fr.order if fr.order > 0 else fr.value + xi
            assert abs(cv.x_value(u) - want) < 1e-12 * abs(want), (c, xi)
