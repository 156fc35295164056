import re
import warnings

import numpy as np
import pytest

from spectralflow.curve import (
    Genus0Curve,
    Genus1Curve,
    RationalFunction,
    _newton,
    _solve_x,
    _sort_points,
    build_curve,
    continue_sheets,
    flip_parity,
)
from spectralflow.errors import (
    BadModulus,
    NearBranchPoint,
    NonSimpleRamification,
    NotRepresentable,
    PoleAtRamificationPoint,
    ResidueSumNonzero,
    RootFindingFailed,
    SingularCurve,
    ThetaNotConverged,
    TruncationTooShort,
)
from spectralflow.forms import KernelForm, RationalDz, YdX, expansion
from spectralflow.recursion import RecursionEngine
from spectralflow.series import TruncSeries


def test_airy_ramification(airy):
    assert len(airy.ramification_points) == 1
    r = airy.ramification_points[0]
    assert abs(r.location) < 1e-12 and abs(r.value) < 1e-12
    # global involution z -> -z
    s, _ = r.chart(airy.order + 5)
    assert abs(flip_parity(s).coeff(1) + s.coeff(1)) < 1e-14


def test_joukowski_ramification(joukowski):
    locs = sorted(r.location.real for r in joukowski.ramification_points)
    assert np.allclose(locs, [-1.0, 1.0], atol=1e-9)
    # involution at z = 1 is z -> 1/z
    r1 = [r for r in joukowski.ramification_points
          if abs(r.location - 1) < 1e-9][0]
    s, _ = r1.chart(joukowski.order + 5)
    comp = flip_parity(s) - (s + 1.0).invert() + 1.0
    assert max(abs(c) for c in comp.coeffs) < 1e-10


def test_weierstrass_ramification(torus):
    locs = [r.location for r in torus.ramification_points]
    assert any(abs(u - 0.5) < 1e-12 for u in locs)
    assert any(abs(u - 0.5j) < 1e-12 for u in locs)
    assert any(abs(u - 0.5 - 0.5j) < 1e-12 for u in locs)


def test_involution_squares_to_identity(torus):
    for r in torus.ramification_points:
        s, _ = r.chart(torus.order + 5)
        ev = s + flip_parity(s)
        assert max(abs(c) for c in ev.coeffs) < 1e-12


def test_local_coordinate_consistency(joukowski, torus):
    for curve in (joukowski, torus):
        for r in curve.ramification_points:
            xz = (curve.x_series(r.location, curve.order + 2)
                  - r.value).compose(r.chart(curve.order + 5)[0])
            res = max(abs(xz.coeff(k) - (1.0 if k == 2 else 0.0))
                      for k in range(xz.k_min, 20))
            assert res < 1e-10


def test_chart_check_holds_next_to_a_pole_of_x():
    # a = -0.389 is a ramification point 0.389 from X's pole at 0: X's
    # Taylor series there grows like 0.389^-k (to 1.7e20), and composed
    # with the chart it reads 1.2e-7 at order 40, 4.4e-16 of the terms
    # summed
    cv = Genus0Curve(RationalFunction([0.2, 1, 0, 0, 0.3, 0.1], [0, 0, 1]),
                     RationalFunction([0, 1, 0.3]), order=40)
    assert len(cv.ramification_points) == 5


# X and Y of sphere curves whose ramification charts grow: the first's
# coefficients reach 2.3e9 at xi^35, the second's 4e14 at xi^41
GROWING_CHARTS = {
    "quintic": (RationalFunction([0.1, 0.5, -0.3, 0.2, 0.7, 1.0]),
                RationalFunction([0, 1])),
    "rational": (RationalFunction([0.3 + 0.1j, 1.1, -0.7, 0.25j, 0.4],
                                  [3, 0.2 - 0.1j]),
                 RationalFunction([0.1, 1, 0.2j])),
}


@pytest.mark.parametrize("which, order", [("quintic", 30), ("rational", 36)])
def test_sphere_builds_where_its_charts_grow(which, order):
    # X(a + s) - X(a) - xi^2 sums terms up to 2e10 and 1e15 into each
    # coefficient, and read against an absolute 1e-8 refused these regular
    # curves with SingularCurve (1.9e-8 and 4.9e-4); scaled by the size of
    # the terms it reads 2e-16 and 6e-14, and each chart meets X on a
    # circle pointwise, to the roundoff of X(a)
    cv = Genus0Curve(*GROWING_CHARTS[which], order=order)
    zeta = 0.05 * np.exp(2j * np.pi * np.arange(8) / 8)
    for r in cv.ramification_points:
        s, _ = r.chart(order + 5)
        res = cv.x_value(r.location + s.evaluate(zeta)) - r.value - zeta ** 2
        assert np.max(abs(res)) < 1e-14 * max(1.0, abs(r.value))


@pytest.mark.parametrize("make", [
    lambda: Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                        RationalFunction([0, 1])),
    lambda: Genus0Curve(*GROWING_CHARTS["quintic"], order=30),
    lambda: Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5])),
], ids=["joukowski", "quintic", "torus"])
def test_perturbed_ramification_chart_refused(monkeypatch, make):
    # 1e-6 added at xi^5 of each ramification chart leaves X(a + s) - X(a)
    # off xi^2 by 2.0e-6 on Joukowski and at least 1.4e-5 at each half
    # period of tau = i (scaled by the size of the terms), past the check's
    # 1e-8
    cls = type(make())
    solve = cls._frame_chart

    def perturbed(self, frame, n, s=None):
        s, y = solve(self, frame, n, s)
        if frame.order == -2:
            bump = np.zeros(len(s.coeffs), dtype=complex)
            bump[5 - s.k_min] = 1e-6
            s = TruncSeries(s.coeffs + bump, s.k_min, s.var_tag)
        return s, y

    monkeypatch.setattr(cls, "_frame_chart", perturbed)
    with pytest.raises(SingularCurve, match="inconsistent"):
        make()


@pytest.mark.parametrize("tau", [2j, 0.5 + 2j])
def test_regular_torus_builds_at_high_order(tau):
    # the chart's coefficients grow like 1.78^k at tau = 0.5 + 2i, and an
    # absolute 1e-8 bound on X(a + s) - X(a) - xi^2 refused the curve at
    # orders 40 and 48 on roundoff (up to 1.8e-4); scaled by the size of
    # the terms summed into each coefficient the residual reads 1.3e-14,
    # and F_2, which reads the charts only to a depth set by g, is the
    # order-24 value
    def build(order):
        return Genus1Curve(tau, RationalFunction([0.0]),
                           RationalFunction([0.5]), order=order)
    f2 = RecursionEngine(build(24)).invariant(2)
    for order in (40, 48):
        cv = build(order)
        assert len(cv.ramification_points) == 3
        assert abs(RecursionEngine(cv).invariant(2) - f2) <= 1e-14 * abs(f2)


def test_torus_build_reads_x_series_once_per_half_period(monkeypatch):
    # each half period's frame reads X's series once, for its slope and
    # its chart check alike, and the check composes no series
    calls = {"x_series": [], "compose": 0}
    x_series, compose = Genus1Curve.x_series, TruncSeries.compose

    def counted_x_series(self, center, order, tag=None):
        calls["x_series"].append(center)
        return x_series(self, center, order, tag)

    def counted_compose(self, inner):
        calls["compose"] += 1
        return compose(self, inner)
    monkeypatch.setattr(Genus1Curve, "x_series", counted_x_series)
    monkeypatch.setattr(TruncSeries, "compose", counted_compose)
    cv = Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))
    assert len(calls["x_series"]) == 3
    assert set(calls["x_series"]) == set(cv._halves())
    assert calls["compose"] == 0


def _wp_at_half_periods(tau, n):
    """[t^k] wp(h + t), k <= n, at the half periods 1/2, tau/2 and (1 +
    tau)/2 in 40 digits: e_i from the theta constants, then wp'' = 6 wp^2 -
    g2/2, g2 = 2 sum e_i^2, term by term."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        t2, t3, t4 = (mpmath.jtheta(k, 0, q) ** 4 for k in (2, 3, 4))
        c = mpmath.pi ** 2 / 3
        es = [c * (t3 + t4), -c * (t2 + t3), c * (t2 - t4)]
        g2 = 2 * sum(e ** 2 for e in es)
        out = []
        for e in es:
            cs = [e, mpmath.mpf(0)] + [mpmath.mpf(0)] * (n - 1)
            for k in range(n - 1):
                rhs = 6 * sum(cs[i] * cs[k - i] for i in range(k + 1))
                cs[k + 2] = (rhs - (g2 / 2 if k == 0 else 0)) \
                    / ((k + 2) * (k + 1))
            out.append(np.array([complex(x) for x in cs]))
        return out


@pytest.mark.parametrize("tau", [1j, 0.5 + 2j, 0.25 + 1.07j])
def test_wp_series_at_half_periods_match_reference(tau):
    # the torus chart check's path: X's series at each half period, off
    # the log E jet, through t^40; measured within 1.3e-13 of the largest
    # coefficient
    cv = Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))
    for h, ref in zip(cv._halves(), _wp_at_half_periods(tau, 40)):
        xs = cv.x_series(h, 40)
        got = np.array([xs.coeff(k) for k in range(41)])
        assert np.max(abs(got - ref)) <= 1e-12 * np.max(abs(ref))


def test_regularity_rejects_cubic():
    with pytest.raises(NonSimpleRamification):
        Genus0Curve(RationalFunction([0, 0, 0, 1]), RationalFunction([0, 1]))


def test_vanishing_dy_at_ramification_refused():
    # Y = z^2 on X = z^2: Y is even in the chart zeta = z, so its odd part
    # has no zeta^1 term and the recursion kernel would divide by 0
    with pytest.raises(SingularCurve, match="dY vanishes"):
        Genus0Curve(RationalFunction([0, 0, 1]), RationalFunction([0, 0, 1]))


@pytest.mark.parametrize("num, den", [
    ([0, 0, 0, 1], [0, 0, 1]),                  # z^3 / z^2
    ([-0.5, 1, -0.5, 1], [0, -0.5, 1]),         # Joukowski, z - 1/2 in both
], ids=["at-0", "at-half"])
def test_shared_root_of_x_refused(num, den):
    # a root shared by X's numerator and denominator is no pole of X; taken
    # for one, it gets a frame of the wrong order and a series fails later
    with pytest.raises(NotRepresentable, match="share the root"):
        Genus0Curve(RationalFunction(num, den), RationalFunction([0, 1, 0.3]))


def test_bad_modulus():
    with pytest.raises(BadModulus):
        Genus1Curve(-0.2j, RationalFunction([0.0]), RationalFunction([0.5]))


def test_sheets_above(airy, joukowski, torus):
    sh = airy.sheets_above(4.0)
    assert np.allclose(sorted(z.real for z in sh.preimages), [-2, 2])
    sh = joukowski.sheets_above(2.5)
    assert np.allclose(sorted(z.real for z in sh.preimages), [0.5, 2.0])
    x = torus.ell.wp(0.3)
    sh = torus.sheets_above(x)
    assert len(sh.preimages) == 2
    got = sorted(round(u.real, 6) for u in sh.preimages)
    assert np.allclose(got, [0.3, 0.7], atol=1e-7)


def _grid_preimages(curve, x):
    """Reference wp inversion: Newton from all 8 x 8 grid seeds, every
    distinct converged off-lattice solution kept; a seed whose iterates
    run off to where theta overflows (refused) is dropped."""
    ell, target, sols = curve.ell, x / curve.x_scale, []
    for i in range(1, 9):
        for j in range(1, 9):
            try:
                with np.errstate(all="ignore"):
                    u = _newton(lambda u: ell.wp(u) - target, ell.wp_prime,
                                i / 9 + j / 9 * curve.tau, steps=60)
                    res = abs(ell.wp(u) - target)
            except ThetaNotConverged:
                continue
            if not res <= 1e-9 * max(1.0, abs(target)):
                continue
            u = ell.to_cell(u)
            if curve._on_lattice(u, 1e-6):
                continue
            if not any(abs(u - s) < 1e-6 or curve._on_lattice(u - s, 1e-6)
                       for s in sols):
                sols.append(u)
    return _sort_points(sols)


@pytest.mark.parametrize("tau", [1j, 0.25 + 1.07j, -0.45 + 0.6j, 3j])
def test_torus_sheets_match_grid_search(tau):
    cv = Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))
    rng = np.random.default_rng(7)

    def check(x, allow_near_branch=False):
        got = cv.sheets_above(x, allow_near_branch).preimages
        ref = _grid_preimages(cv, x)
        assert len(ref) == 2
        # wp from theta is known to about 1e-14 absolute, so a root where
        # |wp'| < 1e-2 is only known to 1e-14/|wp'|: next to e2 and e3 at
        # tau = 3i, |wp'| = 2.7e-3, and both solves lie 1e-12 to 2.2e-12
        # from the 40-digit mpmath root
        tol = max(1e-12, 1e-14 / abs(cv.ell.wp_prime(ref[0])))
        assert max(abs(a - b) for a, b in zip(got, ref)) < tol

    checked = 0
    while checked < 8:
        u = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
        x = cv.x_value(u)
        if cv.check_near_branch(x):
            continue
        check(x)
        checked += 1
    # next to each branch value, where wp' nearly vanishes at the root
    for e in cv._e:
        check(e + 1e-5 * (1 + 1j), allow_near_branch=True)


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
@pytest.mark.parametrize("x, tol", [(1e6, 1e-12), (-1e6, 1e-12),
                                    (1e6j, 1e-12), (1e3 + 1e3j, 1e-12),
                                    (1e9, 1e-10)])
def test_torus_sheets_at_large_x(tau, x, tol):
    # the preimages come within 1/sqrt|x| of the lattice; at 1e9 wp from
    # theta keeps about 11 digits there (theta1 cancels to O(u)), measured
    # within 1.1e-11 relative
    cv = Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, v = cv.sheets_above(x).preimages
        assert max(abs(cv.x_value(w) - x) for w in (u, v)) <= tol * abs(x)
    assert cv._on_lattice(u + v, 1e-9) and not cv._on_lattice(u, 1e-6)


@pytest.mark.parametrize("x", [np.nan, np.inf, complex(1.0, np.nan)])
def test_torus_non_finite_x_refused(torus, x):
    with pytest.raises(NotRepresentable):
        torus.sheets_above(x)


@pytest.mark.parametrize("x", [1e14, -1e14j, 1e300])
def test_torus_x_at_the_pole_refused(torus, x):
    with pytest.raises(RootFindingFailed, match="pole of X"):
        torus.sheets_above(x)


def test_newton_stops_on_a_non_finite_step():
    calls = []

    def f(z):
        calls.append(z)
        return z - 1.0 if len(calls) == 1 else complex(np.nan, np.nan)

    with pytest.raises(RootFindingFailed):
        _solve_x(f, lambda z: 1.0 + 0.5j, 0.0, 3.0, steps=60)
    # one finite step, the NaN that stops it, the residual gate's call
    assert len(calls) == 3
    assert _newton(lambda z: 0.0, lambda z: 1.0, 2.0) == 2.0


def test_near_branch_warning(airy):
    with pytest.raises(NearBranchPoint):
        airy.sheets_above(1e-9)
    sh = airy.sheets_above(1e-9, allow_near_branch=True)
    assert sh.near_branch


def test_torus_branch_value_refused_even_when_allowed(torus):
    # at a branch value u and -u coincide at a half period: no two sheets
    for r in torus.ramification_points:
        with pytest.raises(RootFindingFailed, match="coincide"):
            torus.sheets_above(r.value, allow_near_branch=True)


def test_sheet_monodromy_is_transposition(airy):
    # loop around the branch value x = 0 swaps the two sheets
    start = airy.sheets_above(1.0).preimages
    path = [np.exp(2j * np.pi * t) for t in np.linspace(0, 1, 60)[1:]]
    final = continue_sheets(airy, path, start)
    assert abs(final[0] - start[1]) < 1e-8
    assert abs(final[1] - start[0]) < 1e-8


def test_continue_sheets_refuses_a_missed_root(joukowski):
    # X = z + 1/z = 0 at z = +-i: real Newton from z = 2 never gets there
    with pytest.raises(RootFindingFailed):
        continue_sheets(joukowski, [0.0], [2.0 + 0j])


def test_residue_theorem_for_ydx(airy, joukowski, torus):
    for curve in (airy, joukowski, torus):
        recs = expansion(curve, YdX(curve)).records
        assert abs(sum(r.times[0] for r in recs)) < 1e-10


def test_airy_times(airy):
    recs = expansion(airy, YdX(airy)).records
    (rec,) = recs
    assert rec.center == "inf"
    assert np.allclose(rec.times, [0, 0, 0, -2])


def test_dz_over_z_times(joukowski):
    recs = expansion(joukowski,
                     RationalDz(RationalFunction([1], [0, 1]))).records
    by_center = {r.center if isinstance(r.center, str) else "0": r.times[0]
                 for r in recs}
    assert abs(by_center["0"] - 1) < 1e-12
    assert abs(by_center["inf"] + 1) < 1e-12


def test_du_filling_fraction(torus):
    from spectralflow.forms import DuForm
    eps = expansion(torus, DuForm(torus, 2j * np.pi)).eps
    assert abs(eps[0] - 1.0) < 1e-10


@pytest.mark.parametrize("pole", [0.5, 0.3 + 0.7j])
def test_multiple_pole_is_one_record(airy, pole):
    # polyroots spreads an m-fold root by up to 2.5e-3 (m = 5): the roots
    # are grouped by a tolerance that fits m, around their mean
    for m in range(2, 6):
        den = np.polynomial.polynomial.polyfromroots([pole] * m)
        assert len(RationalFunction([1.0], den).finite_poles()) == 1
        recs = expansion(airy,
                         RationalDz(RationalFunction([1.0], den))).records
        (rec,) = [r for r in recs if r.center != "inf"]
        assert abs(rec.center - pole) < 1e-9
        assert len(rec.head) == m


@pytest.mark.parametrize("pole", [0.5, 0.3 + 0.7j])
def test_deep_multiple_pole_kept_or_refused_by_name(airy, pole):
    # the pole's factor is divided out of the denominator before the
    # Taylor shift, so its series is exact at every m, and the form's
    # point values divide by (z - p)^m over the root cluster, not by the
    # monomial coefficients.  Measured: one record for every m up to
    # j_cap = 20 at both poles; past it the pole is refused before any
    # time is read, and the refusal names it.  Past m = 20 at 0.3 + 0.7i the
    # roots split into clusters
    kept, top = {0.5: (20, 24), 0.3 + 0.7j: (20, 20)}[pole]
    for m in range(6, top + 1):
        den = np.polynomial.polynomial.polyfromroots([pole] * m)
        try:
            recs = expansion(
                airy, RationalDz(RationalFunction([1.0], den))).records
        except TruncationTooShort as exc:
            assert m > kept, (m, str(exc))
            named = re.findall(r"[-+]?\d[\d.e+-]*j", str(exc))
            assert any(abs(complex(c) - pole) < 1e-6 for c in named), \
                (m, str(exc))
        else:
            (rec,) = [r for r in recs if r.center != "inf"]
            assert abs(rec.center - pole) < 1e-9 and len(rec.head) == m


def test_pole_at_ramification_rejected(airy):
    with pytest.raises(PoleAtRamificationPoint):
        expansion(airy, RationalDz(RationalFunction([1], [0, 1])))


def test_residue_theorem_enforced(airy):
    # a form that hides its pole at -0.7 leaves the residue 1 at 0.5
    # unbalanced: refused by the residue theorem, not read on
    class HiddenPole(RationalDz):
        def poles(self):
            return [p for p in super().poles() if abs(p + 0.7) > 1e-9]

    form = HiddenPole(RationalFunction([1.2], [-0.35, 0.2, 1.0]))
    with pytest.raises(ResidueSumNonzero, match="sum of residues = 1"):
        expansion(airy, form)


def test_unbalanced_kernel_form_refused_on_torus(torus):
    # residues that do not sum to 0 leave a pole at inf on the sphere; the
    # torus has no such point
    with pytest.raises(ResidueSumNonzero):
        expansion(torus, KernelForm(torus, [(0.3 + 0.2j, [1.0])]))


def test_rational_dz_refused_on_torus(torus):
    # R(z) dz is a form on the sphere: its pole at inf is no torus point,
    # and without one (1/(z + 0.3)^2) it is not periodic over the cycles
    for den in ([0.3, 1.0], [0.09, 0.6, 1.0]):
        with pytest.raises(NotRepresentable):
            expansion(torus, RationalDz(RationalFunction([1.0], den)))


def test_build_curve_json(airy):
    spec = {"backend": "rational",
            "X": {"num": [0, 0, 1], "den": [1]},
            "Y": {"num": [0, 1], "den": [1]}}
    cv = build_curve(spec)
    assert cv.genus == 0 and cv.d == 2
    spec = {"backend": "weierstrass", "tau": {"re": 0.0, "im": 1.0},
            "Y": {"R1": {"num": [0]}, "R2": {"num": [0.5]}}}
    cv = build_curve(spec)
    assert cv.genus == 1 and len(cv.ramification_points) == 3


_Y = {"num": [0, 1]}


@pytest.mark.parametrize("spec", [
    {"backend": "rational", "Y": _Y},
    {"backend": "weierstrass", "Y": {"R2": {"num": [0.5]}}},
    {"backend": "rational", "X": {"num": [1, 0, 1], "den": [0]}, "Y": _Y},
    {"backend": "rational", "X": {"num": [0, 0, 1]},
     "Y": {"num": [0, 1], "den": [0, 0]}},
    {"backend": "rational", "X": {"num": ["one", 0, 1]}, "Y": _Y},
    [("backend", "rational")],
], ids=["no-X", "no-tau", "zero-den-X", "zero-den-Y", "non-numeric",
        "not-a-dict"])
def test_build_curve_refuses_malformed_spec(spec):
    with pytest.raises(NotRepresentable):
        build_curve(spec)


@pytest.mark.parametrize("make, spec", [
    (lambda: Genus0Curve(RationalFunction([2.0]), RationalFunction([0, 1])),
     {"backend": "rational", "X": {"num": [2.0]}, "Y": _Y}),
    (lambda: Genus0Curve(RationalFunction([2, 2], [1, 1]),
                         RationalFunction([0, 1])),
     {"backend": "rational", "X": {"num": [2, 2], "den": [1, 1]}, "Y": _Y}),
    (lambda: Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]),
                         x_scale=0),
     {"backend": "weierstrass", "tau": {"im": 1.0}, "xscale": 0,
      "Y": {"R2": {"num": [0.5]}}}),
], ids=["constant", "constant-ratio", "zero-x-scale"])
def test_constant_x_refused_when_built(make, spec):
    # dX = 0: no chart, no pole of X, no degree of X as a map
    with pytest.raises(SingularCurve):
        make()
    with pytest.raises(SingularCurve):
        build_curve(spec)
