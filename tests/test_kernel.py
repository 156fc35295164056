"""The reduced Bergman kernel B(z1, z2) = F(z1 - z2) dz1 dz2 of each curve
backend: the Taylor series of F and of its derivatives, read off the
kernel series of SpectralCurve.kernel_series, against closed forms on the
sphere and against central differences of F on the torus, at the points
of a chart; and the Szego factor's series against its point values."""

import numpy as np
import pytest

from spectralflow.curve import Genus1Curve, RationalFunction, SpectralCurve
from spectralflow.errors import ThetaZeroDivision
from spectralflow.forms import (
    BergmanLeg,
    KernelForm,
    SecondKindBasis,
    SumForm,
    ThirdKind,
    expansion,
    pole_frame,
)
from spectralflow.geometry import basis_form

TAUS = [1j, 0.25 + 1.07j]


def _torus(tau):
    return Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))


def _chart(curve):
    """A chart series vanishing at 0 that is not just t."""
    return curve.ramification_points[0].chart(24)[0]


def _taylor(curve, c, count, order):
    """[F^(q)(c + t)/q! for q < count], series in t: F^(q)/q! is (-1)^q
    (q + 1) times the kernel with principal part v^-(q+2)."""
    return curve.kernel_series(
        [c] * count, [[0.0] * (q + 1) + [(-1.0) ** q * (q + 1)]
                      for q in range(count)], order)


def _jet_derivs(curve, v, count):
    """[F^(q)(v)/q! = -(q+2)(q+1) [t^(q+2)] log E(v + t) for q < count],
    q on a new first axis: the jet of log E at v, without the pole
    split."""
    q = np.arange(count).reshape((-1,) + (1,) * np.ndim(v))
    return -(q + 2) * (q + 1) * curve._log_prime_jet(v, count + 1)[2:]


def _sphere_taylor(q, v):
    return (-1.0) ** q * (q + 1) / v ** (q + 2)


@pytest.mark.parametrize("which", ["airy", "joukowski"])
@pytest.mark.parametrize("c", [0.0, 0.83 - 0.41j])
def test_sphere_taylor_closed_form(request, which, c):
    cv = request.getfixturevalue(which)
    inner = _chart(cv)
    T = _taylor(cv, c, 6, 30)
    for x in (0.05 + 0.02j, -0.03 + 0.06j):
        t = inner.evaluate(x)
        for q, f in enumerate(T):
            ref = _sphere_taylor(q, c + t)
            assert abs(f.evaluate(t) - ref) < 1e-12 * abs(ref)
    if c == 0.0:
        assert [f.k_min for f in T] == [-(q + 2) for q in range(6)]


def _fd_taylor(curve, v, q, h):
    """F^(q)(v)/q! for q <= 2 by central differences of F; h should be
    about 1e-3 of the distance from v to the lattice."""
    F = curve.bergman
    if q == 0:
        return F(v)
    if q == 1:
        return (F(v + h) - F(v - h)) / (2 * h)
    return (F(v + h) - 2 * F(v) + F(v - h)) / (2 * h * h)


@pytest.mark.parametrize("tau", TAUS)
def test_torus_taylor_generic_point(tau):
    cv = _torus(tau)
    c = 0.31 + 0.27 * tau
    T = _taylor(cv, c, 3, 12)
    D = _jet_derivs(cv, c, 3)
    for q in range(3):
        ref = _fd_taylor(cv, c, q, 2e-4)
        assert abs(T[q].coeff(0) - ref) < 1e-5 * abs(ref)
        # the same numbers as the jet of log E at c, without the pole split
        assert abs(T[q].coeff(0) - D[q]) < 1e-12 * abs(ref)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("lattice", [0.0, "1+tau"])
def test_torus_taylor_through_chart(tau, lattice):
    cv = _torus(tau)
    c = 0.0 if lattice == 0.0 else 1.0 + tau
    inner = -_chart(cv)
    T = _taylor(cv, c, 3, 24)
    assert T[0].k_min == -2
    for x in (0.4 + 0.3j, -0.2 + 0.5j):
        t = inner.evaluate(x)
        for q in range(3):
            ref = _fd_taylor(cv, c + t, q, 1e-3 * abs(t))
            assert abs(T[q].evaluate(t) - ref) < 1e-5 * abs(ref)


@pytest.mark.parametrize("tau", TAUS)
def test_torus_taylor_generic_chart(tau):
    cv = _torus(tau)
    c = 0.58 + 0.19 * tau
    T = _taylor(cv, c, 3, 24)
    t = _chart(cv).evaluate(0.7 - 0.4j)
    for q in range(3):
        ref = _fd_taylor(cv, c + t, q, 2e-4)
        assert abs(T[q].evaluate(t) - ref) < 1e-5 * abs(ref)


@pytest.mark.parametrize("curve", ["joukowski", 1j, 0.25 + 1.07j])
@pytest.mark.parametrize("on_pole", [False, True])
def test_primitive_series(request, curve, on_pole):
    cv = request.getfixturevalue(curve) if isinstance(curve, str) \
        else _torus(curve)
    if on_pole:
        c = 0.0 if cv.genus == 0 else 1.0 + cv.tau
    else:
        c = 0.44 + 0.17j
    P, = cv.kernel_series([c], [[1.0]], 24)
    F = -P.differentiate()
    if on_pole:
        assert F.k_min == -2 and F.coeff(-2) == 1.0
    else:
        # P' = -F term by term, F's Taylor coefficients read off the jet
        # of log E at c
        D = _jet_derivs(cv, c, 12)
        for k in range(12):
            assert abs(F.coeff(k) - D[k]) < 1e-10 * max(1.0, abs(D[k]))
    # and the values: P and -P' against P and F themselves
    for t in (0.05 + 0.03j, -0.04 + 0.02j):
        ref = KernelForm(cv, [(0.0, [1.0])]).value(c + t)
        assert abs(P.evaluate(t) - ref) < 1e-12 * abs(ref)
        ref = cv.bergman(c + t)
        assert abs(F.evaluate(t) - ref) < 1e-12 * abs(ref)


def _constructed(curve):
    """Each constructor of the kernel form, with a pole it was built at:
    dS, a Bergman leg, and omega_{p,j} at the pole 0 of X and at a regular
    point."""
    p, q = 0.31 + 0.22j, -0.17 + 0.41j
    if curve.genus:
        p, q = p + 0.3, q + 0.4 + 0.2 * curve.tau
    xp = next(f for f in curve.x_poles if f.location == 0.0)
    out = [(ThirdKind(curve, p, q), p), (BergmanLeg(curve, p, 2.0), p)]
    out += [(SecondKindBasis(curve, xp, j), 0.0) for j in (1, 2, 3)]
    out.append((SecondKindBasis(curve, pole_frame(curve, q), 2), q))
    return out


@pytest.mark.parametrize("curve", ["joukowski", 1j, 0.25 + 1.07j])
def test_kernel_forms_match_point_values(request, curve):
    # the local series of each constructor on its pole (with the Laurent
    # head), on a translate of the pole by the lattice, and off the pole
    cv = request.getfixturevalue(curve) if isinstance(curve, str) \
        else _torus(curve)
    shift = 1.0 + cv.tau if cv.genus else 0.0
    for form, pole in _constructed(cv):
        assert isinstance(form, KernelForm)
        for center in (pole, pole + shift, pole + 0.23 - 0.14j):
            ser = form.local_series(center, 30)
            assert (ser.k_min < 0) == (center != pole + 0.23 - 0.14j)
            for t in (0.05 + 0.02j, -0.03 + 0.04j):
                ref = form.value(center + t)
                assert abs(ser.evaluate(t) - ref) < 1e-12 * abs(ref)


def test_forms_in_the_chart_at_infinity(joukowski):
    # omega = g(z) dz = h(w) dw with z = 1/w, so h(w) = -g(1/w) / w^2
    forms = [f for f, _ in _constructed(joukowski)]
    # dS_{inf,o}: a kernel form whose residues leave one at inf
    forms += [basis_form(joukowski, "inf", 0, 0.3 + 0.2j),
              basis_form(joukowski, "inf", 2)]
    assert "inf" in forms[-2].poles()
    w = 0.05 + 0.02j
    for f in forms:
        ref = -f.value(1 / w) / w ** 2
        assert abs(f.local_series("inf", 10).evaluate(w) - ref) \
            < 1e-12 * abs(ref)


def _tame(curve):
    """A third-kind form plus a second-kind form at a regular point: three
    kernel poles, with the pole of X a fourth center."""
    return SumForm([(0.7, ThirdKind(curve, 0.21 + 0.33j, 0.68 + 0.52j)),
                    (0.4, basis_form(curve, 0.41 + 0.13j, 1))])


def _batch_forms(curve):
    out = [ThirdKind(curve, 0.21 + 0.33j, 0.68 + 0.52j),
           SecondKindBasis(curve, pole_frame(curve, 0.3 + 0.2j), 2),
           _tame(curve)]
    if curve.genus:
        # a pole at a lattice translate of the pole of X: that center's read
        # is on the pole, beside the other poles' reads off it
        out.append(ThirdKind(curve, 1.0 + curve.tau, 0.4 + 0.3j))
    return out


@pytest.mark.parametrize("curve", ["airy", "joukowski", 1j, 0.25 + 1.07j])
def test_batched_reads_equal_single_reads(request, curve):
    # an expansion reads every center of a form in one batch ("inf" too,
    # at the pole of X on the sphere): each record's series has the bits
    # of the form's series read at that center alone
    cv = request.getfixturevalue(curve) if isinstance(curve, str) \
        else _torus(curve)
    for form in _batch_forms(cv):
        records = expansion(cv, form).records
        assert len(records) >= 2
        for rec in records:
            single = form.local_series(rec.center, cv.order + 6)
            assert rec.series.k_min == single.k_min
            assert rec.series.coeffs.tobytes() == single.coeffs.tobytes()


def test_expansion_reads_its_kernel_series_in_one_jet(monkeypatch):
    # the tame form's 9 off-pole (center, pole) offsets are one
    # _regular_jet read; the 3 on-pole reads take the lattice jet
    cv = _torus(1j)
    form = _tame(cv)
    calls = []
    original = SpectralCurve._regular_jet

    def counted(self, c, n):
        calls.append(np.shape(c))
        return original(self, c, n)

    monkeypatch.setattr(SpectralCurve, "_regular_jet", counted)
    expansion(cv, form)
    assert calls == [(9,)]


def _szego_reference(curve, v, zeta):
    """theta(v + zeta)/(theta(zeta) E(v)) from point values: 1/v on the
    sphere, theta1(v + zeta) theta1'(0)/(theta1(zeta) theta1(v)) on the
    torus."""
    if curve.genus == 0:
        return 1.0 / v
    th = curve.ell.theta
    return th.theta1(v + zeta) * th.theta1(0.0, 1) \
        / (th.theta1(zeta) * th.theta1(v))


@pytest.mark.parametrize("curve", ["joukowski", 1j])
@pytest.mark.parametrize("on_pole", [False, True])
def test_szego_series_matches_point_values(request, curve, on_pole):
    cv = request.getfixturevalue(curve) if isinstance(curve, str) \
        else _torus(curve)
    if on_pole:
        # on the torus a lattice point other than 0, where theta1 is not odd
        c = 0.0 if cv.genus == 0 else 1.0 + cv.tau
    else:
        c = 0.83 - 0.41j if cv.genus == 0 else 0.31 + 0.27 * cv.tau
    zeta = 0.23 + 0.17j
    inner = _chart(cv)
    G = cv.szego_series(c, inner, zeta)
    assert G.k_min == (-1 if on_pole else 0)
    for x in (0.05 + 0.02j, -0.03 + 0.06j):
        ref = _szego_reference(cv, c + inner.evaluate(x), zeta)
        assert abs(G.evaluate(x) - ref) < 1e-12 * abs(ref)


def test_szego_series_refuses_theta_divisor():
    cv = _torus(1j)
    with pytest.raises(ThetaZeroDivision):
        cv.szego_series(0.31 + 0.27j, _chart(cv), 0.0)
