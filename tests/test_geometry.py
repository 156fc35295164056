import numpy as np
import pytest

from spectralflow.classical import ClassicalSystem
from spectralflow.curve import Genus0Curve, Genus1Curve, RationalFunction
from spectralflow.errors import (
    CoincidentPoints,
    QuadratureNotConverged,
    ResidueFreePreconditionViolated,
    ThetaZeroDivision,
    UnsupportedCycle,
)
from spectralflow.forms import (
    BergmanLeg,
    DuForm,
    SumForm,
    ThirdKind,
    YdX,
    expansion,
)
from spectralflow.geometry import (
    basis_form,
    canonical_period,
    fay_residual,
    line_integral,
    riemann_bilinear_residual,
)
from spectralflow.quadrature import integrate_path, integrate_segment

from oracles import quadrature_period


# -- kernels ------------------------------------------------------------------

def test_prime_form_genus0(joukowski):
    assert joukowski.prime_form(2.0 - 1.0) == 1.0
    with pytest.raises(CoincidentPoints):
        joukowski.prime_form(1.3 - 1.3)


def test_prime_form_antisymmetry(torus, rng):
    for _ in range(6):
        z1 = rng.uniform(0.05, 0.95) + 1j * rng.uniform(0.05, 0.95)
        z2 = rng.uniform(0.05, 0.95) + 1j * rng.uniform(0.05, 0.95)
        a, b = torus.prime_form(z1 - z2), torus.prime_form(z2 - z1)
        assert abs(a + b) < 1e-12 * abs(a)


def test_prime_form_short_distance(torus):
    # E = (u1 - u2) + O((u1-u2)^3): no quadratic term
    u2 = 0.31 + 0.22j
    for h in (1e-2, 1e-3):
        val = torus.prime_form(u2 + h - u2)
        assert abs(val - h) < 2 * h ** 3


def test_prime_form_matches_theta1_quotient(torus):
    th = torus.ell.theta
    z1, z2 = 0.41 + 0.13j, 0.18 + 0.67j
    target = th.theta1(z1 - z2) / th.theta1(0.0, 1)
    assert abs(torus.prime_form(z1 - z2) - target) < 1e-14


@pytest.mark.parametrize("shift", ["1", "tau", "1+tau"])
def test_coincident_points_modulo_the_lattice(torus, shift):
    # z1 - z2 on the lattice is the diagonal of the torus: each kernel
    # refuses it instead of returning roundoff (2.9e32, -1.7e16, 5.8e-17)
    z2 = 0.3 + 0.2j
    z1 = z2 + {"1": 1.0, "tau": torus.tau, "1+tau": 1.0 + torus.tau}[shift]
    for kernel in (torus.bergman, torus.prime_form,
                   lambda v: torus.szego_grid(v, 0.23 + 0.17j)):
        with pytest.raises(CoincidentPoints):
            kernel(z1 - z2)
        # in a grid too, where one entry is on the lattice
        with pytest.raises(CoincidentPoints):
            kernel(np.array([z1 + 0.1, z1]) - z2)
    # off the lattice they stay finite; on the sphere only 0 is refused
    assert np.isfinite(torus.bergman(z1 + 0.1 - z2))
    sphere = Genus0Curve(RationalFunction([0, 0, 1]), RationalFunction([0, 1]))
    assert abs(sphere.prime_form(z1 - z2) - (z1 - z2)) < 1e-15 * abs(z1 - z2)
    with pytest.raises(CoincidentPoints):
        sphere.szego_grid(np.array([[z1 - z2, 0.0]]), 0.0)


def test_bergman_genus0(joukowski):
    assert abs(joukowski.bergman(3.0 - 1.0) - 0.25) < 1e-15


def test_bergman_symmetry(torus, rng):
    for _ in range(5):
        z1 = rng.uniform(0.05, 0.95) + 1j * rng.uniform(0.05, 0.95)
        z2 = rng.uniform(0.05, 0.95) + 1j * rng.uniform(0.05, 0.95)
        a, b = torus.bergman(z1 - z2), torus.bergman(z2 - z1)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_bergman_periods(torus):
    # A-period of B(., z) vanishes; B-period equals 2 i pi du(z)
    z = 0.4 + 0.27j
    leg = BergmanLeg(torus, z)
    assert abs(quadrature_period(torus, leg, "a")) < 1e-10
    assert abs(quadrature_period(torus, leg, "b") - 2j * np.pi) < 1e-8


def test_du_normalization(torus):
    du = DuForm(torus)
    assert abs(quadrature_period(torus, du, "a") - 1.0) < 1e-12
    assert abs(quadrature_period(torus, du, "b") - torus.tau) < 1e-12


def test_third_kind_structure(torus, joukowski):
    z1, z2 = 0.62 + 0.41j, 0.21 + 0.77j
    ds = ThirdKind(torus, z1, z2)
    # residues via local series
    s1 = ds.local_series(z1, 8)
    s2 = ds.local_series(z2, 8)
    assert abs(s1.residue() - 1.0) < 1e-12
    assert abs(s2.residue() + 1.0) < 1e-12
    assert abs(quadrature_period(torus, ds, "a")) < 1e-10
    bp = quadrature_period(torus, ds, "b")
    target = 2j * np.pi * (z1 - z2)
    # quadrature line sits somewhere in the cell: defined modulo 2 i pi
    k = (bp - target) / (2j * np.pi)
    assert abs(k - round(k.real)) < 1e-8
    # canonical period is the in-cell value itself
    assert abs(canonical_period(torus, ds, "b") - target) < 1e-12
    # genus 0 closed form
    ds0 = ThirdKind(joukowski, 2.0, 3.0)
    assert abs(ds0.value(5.0) - (1 / 3.0 - 1 / 2.0)) < 1e-14


@pytest.mark.parametrize("z1", [0.2 + 0.3j, 0.2 + 1.3j, -0.8 - 0.7j])
def test_third_kind_periods_match_quadrature(torus, z1):
    # a pole outside the cell is reduced to it, so the form keeps no
    # A-period and its closed periods are the quadrature's (a pole at
    # 0.2 + 1.3i left unreduced had A-period 2 i pi)
    ds = ThirdKind(torus, z1, 0.6 + 0.1j)
    for which in "ab":
        assert abs(quadrature_period(torus, ds, which)
                   - canonical_period(torus, ds, which)) < 1e-10


def test_antisymmetry_of_third_kind(torus):
    z1, z2, z = 0.62 + 0.41j, 0.21 + 0.77j, 0.5 + 0.1j
    a = ThirdKind(torus, z1, z2).value(z)
    b = ThirdKind(torus, z2, z1).value(z)
    assert abs(a + b) < 1e-12 * abs(a)


def test_third_kind_b_period_quadrature_vs_abel(torus):
    # dS B-period = 2 i pi (u1 - u2) checked against direct quadrature
    z1, z2 = 0.52 + 0.31j, 0.33 + 0.64j
    ds = ThirdKind(torus, z1, z2)
    bp = quadrature_period(torus, ds, "b")
    target = 2j * np.pi * (z1 - z2)
    k = (bp - target) / (2j * np.pi)
    assert abs(bp - target - 2j * np.pi * round(k.real)) < 1e-8


# -- decomposition ----------------------------------------------------------------

@pytest.mark.parametrize("which", ["airy", "joukowski", "torus"])
def test_decomposition_roundtrip(which, airy, joukowski, torus, rng):
    curve = {"airy": airy, "joukowski": joukowski, "torus": torus}[which]
    w = YdX(curve)
    recon = expansion(curve, w).with_du
    for _ in range(20):
        if curve.genus == 0:
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            if min(abs(z), abs(z - 1), abs(z + 1)) < 0.3:
                continue
        else:
            z = rng.uniform(0.1, 0.9) + 1j * rng.uniform(0.1, 0.9)
        va, vb = w.value(z), recon.value(z)
        assert abs(va - vb) < 1e-8 * max(1.0, abs(va))


def test_basis_form_has_single_pole_no_residue(joukowski, torus):
    for curve in (joukowski, torus):
        for rec in curve.x_poles:
            bf = basis_form(curve, rec.location, 2)
            ser = bf.local_series(rec.location, curve.order)
            assert ser.k_min == -3
            assert abs(ser.residue()) < 1e-12


# -- F0 -----------------------------------------------------------------------

def test_homogeneity(joukowski, torus):
    # F0 is quadratic in the form: F0(2 omega) = 4 F0(omega).  Measured
    # for Y dX: within 7e-17 on Joukowski and exactly on the tau = i torus
    for curve in (joukowski, torus):
        w = YdX(curve)
        f1 = expansion(curve, w).F0()
        f2 = expansion(curve, SumForm([(2.0, w)])).F0()
        assert abs(f2 - 4.0 * f1) <= 1e-12 * abs(4.0 * f1)


def test_first_derivative_t_oracle(joukowski):
    """Central-difference oracle for dF0/dt_{p,j}, h-sweep."""
    w = YdX(joukowski)
    exp = expansion(joukowski, w)
    bf = basis_form(joukowski, "inf", 2)
    fds = []
    for h in (1e-3, 1e-4):
        vp = expansion(joukowski, SumForm([(1.0, w), (h, bf)])).F0()
        vm = expansion(joukowski, SumForm([(1.0, w), (-h, bf)])).F0()
        fds.append((vp - vm) / (2 * h))
    target = exp.dF_dt("inf", 2)
    assert abs(fds[1] - target) < 1e-6 * max(1.0, abs(target))
    assert abs(fds[0] - fds[1]) < 1e-4


def test_first_derivative_eps_oracle(torus):
    w = YdX(torus)
    exp = expansion(torus, w)
    du = DuForm(torus, 2j * np.pi)
    h = 1e-4
    vp = expansion(torus, SumForm([(1.0, w), (h, du)])).F0()
    vm = expansion(torus, SumForm([(1.0, w), (-h, du)])).F0()
    fd = (vp - vm) / (2 * h)
    assert abs(fd - exp.dF_deps()) < 1e-5 * max(1.0, abs(fd))


def test_third_kind_derivative_is_line_integral(joukowski, torus):
    for curve, (z1, z2) in ((joukowski, (1.7 + 0.6j, -0.9 + 1.4j)),
                            (torus, (0.31 + 0.52j, 0.72 + 0.13j))):
        w = YdX(curve)
        ds = ThirdKind(curve, z1, z2)
        h = 1e-4
        vp = expansion(curve, SumForm([(1.0, w), (h, ds)])).F0()
        vm = expansion(curve, SumForm([(1.0, w), (-h, ds)])).F0()
        fd = (vp - vm) / (2 * h)
        target = line_integral(curve, w, z2, z1)
        assert abs(fd - target) < 1e-6 * max(1.0, abs(target))


def test_second_derivative_prime_form(joukowski):
    """(d/dt_{p,0} - d/dt_{p',0})^2 F0 = -ln(E^2 dxi dxi) mod the
    pairing-order sign: the exponentials must agree exactly."""
    w = YdX(joukowski)
    z1, z2 = 1.7 + 0.6j, -0.9 + 1.4j
    ds = ThirdKind(joukowski, z1, z2)
    h = 1e-3
    prep0 = expansion(joukowski, w).F0()
    vp = expansion(joukowski, SumForm([(1.0, w), (h, ds)])).F0()
    vm = expansion(joukowski, SumForm([(1.0, w), (-h, ds)])).F0()
    fd2 = (vp - 2 * prep0 + vm) / h ** 2
    target = -np.log(joukowski.prime_form(z1 - z2) ** 2
                     * joukowski.dx_value(z1) * joukowski.dx_value(z2))
    # e^{d2 F0} = -1/(E^2 dX dX): the ordered-pair regularization sign
    assert abs(np.exp(fd2) + np.exp(target)) < 1e-6 * abs(np.exp(target))


def test_quadratic_form_identity(joukowski):
    # F0 = (1/2) sum t_k t_l d2F/dt_k dt_l is a quadratic form in the
    # times: degree two under rescaling, and the parallelogram law
    # F0(w + b) + F0(w - b) = 2 F0(w) + 2 F0(b) for two independent forms
    # (measured 2.5e-13 for Y dX against the order-2 basis form at inf)
    w = YdX(joukowski)
    b = basis_form(joukowski, "inf", 2)
    f1 = expansion(joukowski, w).F0()
    f2 = expansion(joukowski, SumForm([(2.0, w)])).F0()
    assert abs(f2 - 4.0 * f1) < 1e-8 * max(1.0, abs(f1))
    fb = expansion(joukowski, b).F0()
    fp = expansion(joukowski, SumForm([(1.0, w), (1.0, b)])).F0()
    fm = expansion(joukowski, SumForm([(1.0, w), (-1.0, b)])).F0()
    scale = max(1.0, abs(f1), abs(fb))
    assert abs(fp + fm - 2.0 * f1 - 2.0 * fb) < 1e-10 * scale


def test_mu_basepoint_dependence_cancels(joukowski):
    # sum_p t_p0 mu_p enters F0; individual mu move with the basepoint
    # but F0 must not (measured 1.2e-16 for Y dX, 1.4e-16 with 0.6 dS)
    w = YdX(joukowski)
    for form in (w, SumForm([(1.0, w), (0.6, ThirdKind(
            joukowski, 1.7 + 0.6j, -0.9 + 1.4j))])):
        v1 = expansion(joukowski, form).F0(basepoint=0.73 + 0.58j)
        v2 = expansion(joukowski, form).F0(basepoint=-0.64 + 0.81j)
        assert abs(v1 - v2) < 1e-14 * max(1.0, abs(v1))


def _limit_cases(airy, joukowski, torus):
    """(curve, form): finite poles, poles of X and inf on both genera."""
    skew = Genus1Curve(0.25 + 1.07j, RationalFunction([0.0]),
                       RationalFunction([0.5]))
    out = [(airy, SumForm([(1.0, YdX(airy)), (0.7, ThirdKind(
               airy, 0.05 + 0.03j, 1.3 + 0.4j))])),
           (airy, basis_form(airy, "inf", 2)),
           (joukowski, SumForm([(1.0, YdX(joukowski)), (0.6, ThirdKind(
               joukowski, 1.7 + 0.6j, -0.9 + 1.4j))])),
           (joukowski, basis_form(joukowski, 0.0, 1))]
    for cv in (torus, skew):
        out += [(cv, SumForm([(0.7, ThirdKind(cv, 0.21 + 0.33j, 0.68 + 0.52j)),
                              (0.4, basis_form(cv, 0.41 + 0.13j, 1))])),
                (cv, SumForm([(1.0, ThirdKind(cv, 0.0, 0.41 + 0.13j)),
                              (0.3, basis_form(cv, 0.0, 1))]))]
    return out


def test_regularized_potential_is_the_limit_at_the_pole(airy, joukowski,
                                                        torus):
    # K = lim int_o^(p+s) form - V - t0 Log xi - W(xi) as s -> 0 along the
    # ray d (towards o; at inf w along 0.05 + 0.031i), read at s = 1e-4 d
    # on every record.  The Airy pole at 1.3 + 0.4i is where a potential
    # matched at a finite s took the other branch of t0 Log xi, 2 i pi t0
    # away (xi'(0) d lies 0.007 rad above the negative axis)
    for cv, form in _limit_cases(airy, joukowski, torus):
        exp = expansion(cv, form)
        o = exp.basepoint
        for rec in exp.records:
            W, K = rec.regularized(exp.with_du, o)
            d = 0.05 + 0.031j if rec.center == "inf" else o - rec.center
            s = 1e-4 * d / abs(d)
            z = 1.0 / s if rec.center == "inf" else rec.center + s
            xi = rec.frame.xi_of_s.evaluate(s)
            t = rec.times
            V = -sum(t[j] / j * xi ** -j for j in range(1, len(t)))
            phi = exp.with_du.primitive(o, np.array([z]))[0]
            limit = phi - V - t[0] * np.log(xi) - W.evaluate(xi)
            # the oracle's own roundoff: phi and V near the pole are large,
            # and theta1 next to the lattice is summed from terms that
            # cancel (measured at most 5.1e-13 of max(1, |phi|, |V|))
            assert abs(K - limit) < 1e-11 * max(1.0, abs(phi), abs(V)), \
                (rec.center, K, limit)


# -- identity checkers ------------------------------------------------------------

def test_riemann_bilinear_genus0(joukowski):
    # no cycles: sum of residues of phi2 omega1 vanishes
    b1 = basis_form(joukowski, "inf", 1)
    b2 = basis_form(joukowski, "inf", 2)
    assert riemann_bilinear_residual(joukowski, b1, b2) < 1e-8
    # phi2's constants are closed-form potentials: measured 0.0 with Y dX
    # (5.8e-13 when matched to the primitive at a finite offset)
    assert riemann_bilinear_residual(joukowski, YdX(joukowski), b2) < 1e-14


def test_riemann_bilinear_genus1(torus):
    # second-kind pole strictly inside the cell (edge/corner poles sit on
    # the fundamental polygon boundary, outside the checker's contract)
    du = DuForm(torus, 2j * np.pi)
    b1 = basis_form(torus, 0.41 + 0.33j, 1)
    assert riemann_bilinear_residual(torus, du, b1) < 1e-8


def test_riemann_bilinear_double_pole_pair(torus):
    b1 = basis_form(torus, 0.41 + 0.33j, 1)
    b2 = basis_form(torus, 0.63 + 0.57j, 2)
    assert riemann_bilinear_residual(torus, b1, b2) < 1e-8


def test_riemann_bilinear_makes_no_quadrature_call(monkeypatch, torus):
    # phi2's constant and the periods are closed forms: the checks above
    # still compute with the quadrature engine refusing every call
    from spectralflow import quadrature

    def refuse(f, segments):
        raise QuadratureNotConverged("a library path called quadrature")
    monkeypatch.setattr(quadrature, "integrate_segments", refuse)
    b1 = basis_form(torus, 0.41 + 0.33j, 1)
    b2 = basis_form(torus, 0.63 + 0.57j, 2)
    assert riemann_bilinear_residual(torus, DuForm(torus, 2j * np.pi),
                                     b1) < 1e-8
    assert riemann_bilinear_residual(torus, b1, b2) < 1e-8
    with pytest.raises(QuadratureNotConverged):
        quadrature_period(torus, b1, "a")


def test_riemann_bilinear_rejects_residues(torus):
    ds = ThirdKind(torus, 0.3 + 0.4j, 0.7 + 0.6j)
    du = DuForm(torus)
    with pytest.raises(ResidueFreePreconditionViolated):
        riemann_bilinear_residual(torus, du, ds)


@pytest.mark.parametrize("which", ["torus", "joukowski"])
def test_fay_identity(request, rng, which):
    # at genus 0, theta = 1 and E = z1 - z2 make it a rational identity
    curve = request.getfixturevalue(which)
    count = 0
    while count < 20:
        pts = rng.uniform(0.08, 0.92, 4) + 1j * rng.uniform(0.08, 0.92, 4)
        w = rng.uniform(0.1, 0.6) + 1j * rng.uniform(0.1, 0.6)
        try:
            res = fay_residual(curve, *pts, w)
        except (ThetaZeroDivision, CoincidentPoints):
            continue
        assert res < 1e-10
        count += 1


def test_fay_degenerate_pair(torus):
    # z1 = z2 makes both sides collapse; the checker must reject the
    # coincident configuration rather than dividing by zero
    with pytest.raises(CoincidentPoints):
        fay_residual(torus, 0.3 + 0.3j, 0.3 + 0.3j, 0.6 + 0.2j,
                     0.2 + 0.6j, 0.4 + 0.1j)


def test_fay_theta_divisor_rejected(torus):
    with pytest.raises(ThetaZeroDivision):
        fay_residual(torus, 0.3 + 0.3j, 0.31 + 0.62j, 0.6 + 0.2j,
                     0.2 + 0.6j, 0.0)


def test_no_cycles_at_genus0(joukowski):
    with pytest.raises(UnsupportedCycle):
        quadrature_period(joukowski, YdX(joukowski), "a")


def test_cycle_sums_empty_at_genus0(joukowski):
    # every sum over curve.cycles has no term on the sphere
    w = YdX(joukowski)
    exp = expansion(joukowski, w)
    assert exp.eps.shape == (0,) and exp.zeta == 0
    assert exp.shifted_F0() == exp.F0()
    assert not any(isinstance(f, DuForm) for _, f in exp.with_du.terms)
    sysm = ClassicalSystem(joukowski, w)
    assert sysm.b_loop_transport_residual(1.1 + 0.8j, 0.4 + 1.3j) == 0.0
    with pytest.raises(UnsupportedCycle):
        quadrature_period(joukowski, w, "b")


@pytest.mark.parametrize("which, i", [("joukowski", 0), ("torus", 1)])
def test_dF_deps_refuses_missing_filling_fraction(which, i, joukowski,
                                                  torus):
    curve = {"joukowski": joukowski, "torus": torus}[which]
    with pytest.raises(UnsupportedCycle):
        expansion(curve, YdX(curve)).dF_deps(i)


def test_quadrature_engine():
    val = integrate_path(lambda z: 1.0 / z,
                         [1.0, 1j, -1.0, -1j, 1.0])
    assert abs(val - 2j * np.pi) < 1e-12


def test_quadrature_depth_limit_refused():
    # exact 2 (sqrt(1/3) + sqrt(2/3)); the panels at the singularity miss
    # the tolerance at the depth limit, where the sum was 1e-3 off
    with pytest.raises(QuadratureNotConverged):
        integrate_segment(lambda z: abs(z - 1 / 3) ** -0.5, 0.0, 1.0)
