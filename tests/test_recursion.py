import itertools
import re
import warnings
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
import pytest

from spectralflow import cache as bounded, recursion
from spectralflow.curve import (
    Genus0Curve,
    Genus1Curve,
    RationalFunction,
    build_curve,
    flip_parity,
)
from spectralflow.errors import (
    BadIndex,
    LevelTooLarge,
    PoleAtRamificationPoint,
    SpectralFlowError,
    TruncationTooShort,
    UnsupportedCycle,
)
from spectralflow.forms import (
    BergmanLeg,
    KernelForm,
    SecondKindBasis,
    YdX,
    expansion,
    pole_frame,
)
from spectralflow.recursion import (
    CorrForm,
    RecursionEngine,
    _products,
    _residue_slice,
    dF_deps,
    dF_dt,
    domega_dt,
    k_slots,
)
from spectralflow.series import TruncSeries

from deformations import (
    deform_second_kind,
    regularized_direction,
    rescaled,
    shift_y_by_rational_of_x,
)
from dense_reference import DenseReference, degree_sums, dense_view
from oracles import leg_matrix, residue_at_point, rows_by_pair

SUITE = [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]
# the deeper levels gated entry by entry on Airy, up to genus 5
AIRY_DEEP = [(0, 5), (0, 6), (1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2),
             (4, 1), (5, 1)]


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
    nz = np.argwhere(np.abs(dense_view(w)) > 1e-14)
    assert [w.basis[i] for i in nz[0]] == [(0, 3)]
    assert abs(dense_view(w)[nz[0][0]] - 1.0 / 48.0) < 1e-14
    z = 1.4 + 0.3j
    assert abs(eng.evaluate(w, [z]) - 1.0 / (16 * z ** 4)) < 1e-14


def _on_circle(f, zeta):
    """A TruncSeries in an integer power of its variable, at an array."""
    return np.polynomial.polynomial.polyval(zeta, f.coeffs) * zeta ** f.k_min


def test_omega2_is_bergman_convention(engines, asym_engines, rng):
    # the basis forms are the chart's Taylor coefficients of the Bergman
    # kernel: sum_k B_{a,k}(z) zeta^(k-1) = F(r_a + s_a(zeta) - z) s_a'(zeta),
    # read for every point at once and every k the engine accepts
    zeta = 0.05 * np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j)
    for eng in [*engines.values(), *(e for _, e in asym_engines.values())]:
        cv = eng.curve
        pts = np.array(sample_points(cv, rng, 5))
        for a, r in enumerate(eng.rams):
            M = eng.basis_matrix([(a, k) for k in range(1, eng.deep + 1)],
                                 pts)
            lhs = np.polynomial.polynomial.polyval(zeta, M)
            rhs = cv.bergman(r.location + _on_circle(eng.s_of[a], zeta)
                             - pts[:, None]) \
                * _on_circle(eng.s_of[a].differentiate(), zeta)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-13


@pytest.mark.parametrize("which", ["airy", "torus"])
def test_evaluate_one_kernel_call(airy, torus, rng, monkeypatch, which):
    # evaluation reads B_{a,k} at every ramification point and every point
    # not yet read in one batched kernel call: one Bergman leg from one
    # kernel jet.  A repeat, in any order, reads the engine's leg memo; a
    # deeper form at the same points reads them once more, to the deepest
    # level stored (omega(2, 1), k <= 13), which then reads none; a fresh
    # point is read to the depth asked
    eng = RecursionEngine({"airy": airy, "torus": torus}[which])
    w3, w13, w21 = eng.omega(0, 3), eng.omega(1, 3), eng.omega(2, 1)
    pts = sample_points(eng.curve, rng, 4)
    calls = {"bergman_leg": 0, "_regular_jet": 0}
    cls = type(eng.curve)
    for name in calls:
        def counted(self, *args, _name=name, _f=getattr(cls, name)):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(cls, name, counted)
    eng.evaluate(w3, pts[:3])
    assert calls == {"bergman_leg": 1, "_regular_jet": 1}
    eng.evaluate(w3, pts[:3])
    eng.evaluate(w3, pts[2::-1])
    assert calls == {"bergman_leg": 1, "_regular_jet": 1}
    eng.evaluate(w13, pts[:3])
    eng.evaluate(w13, pts[2::-1])
    assert calls == {"bergman_leg": 2, "_regular_jet": 2}
    eng.evaluate(w21, pts[1:2])
    assert calls == {"bergman_leg": 2, "_regular_jet": 2}
    eng.evaluate(w3, [pts[3]] + pts[1:3])
    assert calls == {"bergman_leg": 3, "_regular_jet": 3}
    assert eng._legs[pts[3]].shape == (eng.A, 5)
    assert eng._legs[pts[1]].shape == (eng.A, 13)


def test_leg_memo_bounded_within_one_call(airy, rng, monkeypatch):
    # a single read of more points than the memo holds takes every value
    # from its own batch, matches a direct read and leaves the memo bounded
    monkeypatch.setattr(bounded, "CACHE_MAX", 16)
    eng = RecursionEngine(airy)
    w = eng.omega(1, 2)
    first = sample_points(airy, rng, 3)
    eng.evaluate(w, first[:2])
    pts = first + sample_points(airy, rng, 40)
    M = eng.basis_matrix(w.basis, pts)
    assert np.array_equal(M, leg_matrix(eng, w.basis, pts))
    assert len(eng._legs) <= 16


def test_refused_point_not_stored(engines):
    for eng in engines.values():
        w = eng.omega(0, 3)
        r = eng.rams[0].location
        held = dict(eng._legs)
        with pytest.raises(PoleAtRamificationPoint):
            eng.evaluate(w, [r + 0.31, r, r + 0.29j])
        assert dict(eng._legs).keys() == held.keys()


@pytest.mark.parametrize("which, tol", [("airy", 0.0), ("torus", 0.0),
                                        ("g1", 1e-15)])
def test_warm_and_cold_engines_agree(airy, torus, asym_engines, rng, which,
                                     tol):
    # every level of SUITE read again on an engine whose leg memo holds the
    # points, read to the deepest level, repeats a fresh engine's value.
    # On the sphere the legs' leading coefficients do not depend on the
    # depth read, so the values agree bit for bit.  On a torus the legs'
    # regular part is contracted as gamma @ regular in bergman_leg, a BLAS
    # product whose kernel, and so its summation order, depends on the
    # number of columns (points) read together, which can move the last
    # bits (up to 3.5e-16 relative on g1, none on the square torus)
    cv = {"airy": airy, "torus": torus, "g1": asym_engines["g1"][0]}[which]
    warm = RecursionEngine(cv)
    pts = sample_points(cv, rng, 4)

    def read(eng, g, n):
        return eng.evaluate(eng.omega(g, n), pts[:n])
    cold = [read(RecursionEngine(cv), g, n) for g, n in SUITE]
    for _ in range(2):
        for (g, n), want in zip(SUITE, cold):
            assert abs(read(warm, g, n) - want) <= tol * abs(want)


def test_evaluate_at_ramification_point_refused(engines):
    for eng in engines.values():
        w = eng.omega(0, 3)
        r = eng.rams[-1].location
        with pytest.raises(PoleAtRamificationPoint):
            eng.evaluate(w, [r, r + 0.3, r + 0.3j])
    # on the torus the point is recognised modulo the lattice, in any slot
    eng = engines["torus"]
    r = eng.rams[-1].location + 1 + eng.curve.tau
    with pytest.raises(PoleAtRamificationPoint):
        eng.evaluate(eng.omega(0, 3), [0.2 + 0.1j, r, 0.3 + 0.2j])


def test_curve_without_ramification_points_is_computed():
    # X of degree 1 has no ramification point: the basis is empty, so every
    # stable form evaluates to 0, and F_2 is 0
    cv = Genus0Curve(RationalFunction([0.3, 1]),
                     RationalFunction([0, 1, 0.5]))
    eng = RecursionEngine(cv)
    assert eng.A == 0
    pts = [0.4 + 0.2j, 1.1 - 0.3j, -0.7 + 0.9j, 0.2 - 1.3j]
    for g, n in SUITE:
        w = eng.omega(g, n)
        assert w.basis == [] and eng.evaluate(w, pts[:n]) == 0
    assert eng.invariant(2) == 0
    assert eng.basis_matrix([], pts).shape == (0, 4)
    assert eng.chart_vector(YdX(cv), []).shape == (0,)


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
        res = residue_at_point(eng, w, a, pts, radius=0.1, samples=400)
        scale = max(1.0, abs(eng.evaluate(w, [eng.rams[a].location + 0.1]
                                          + pts)))
        assert abs(res) / scale < 1e-8


@pytest.mark.parametrize("gn", SUITE)
@pytest.mark.parametrize("which", ["airy", "torus"])
def test_pole_order_bound(engines, which, gn):
    g, n = gn
    eng = engines[which]
    w = eng.omega(g, n)
    dense = dense_view(w)
    scale = np.abs(dense).max()
    for i, (a, k) in enumerate(w.basis):
        if k > 6 * g + 2 * n - 4 + 1:
            sl = np.abs(np.take(dense, i, axis=0))
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


def _double_factorial(n):
    """n!! for odd n >= -1, (-1)!! = 1."""
    out = 1
    for m in range(n, 0, -2):
        out *= m
    return out


@cache
def _witten_kontsevich(g, ds):
    """<tau_d1 ... tau_dn>_g in exact rationals for sorted ds, by the DVV
    recursion (Dijkgraaf-Verlinde-Verlinde 1991) on the largest d, from
    <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; 0 off 3g - 3 + n = sum d and at
    unstable (g, n)."""
    if 2 * g - 2 + len(ds) <= 0 or g < 0 or sum(ds) != 3 * g - 3 + len(ds):
        return Fraction(0)
    if (g, ds) in ((0, (0, 0, 0)), (1, (1,))):
        return Fraction(1) if g == 0 else Fraction(1, 24)
    k, rest = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        moved = tuple(sorted(rest[:j] + (d + k,) + rest[j + 1:]))
        total += Fraction(_double_factorial(2 * k + 2 * d + 1),
                          _double_factorial(2 * d - 1)) \
            * _witten_kontsevich(g, moved)
    for r in range(k):
        s = k - 1 - r
        c = Fraction(_double_factorial(2 * r + 1)
                     * _double_factorial(2 * s + 1), 2)
        total += c * _witten_kontsevich(g - 1, tuple(sorted(rest + (r, s))))
        for g1 in range(g + 1):
            for mask in itertools.product((False, True), repeat=len(rest)):
                left = tuple(d for d, m in zip(rest, mask) if m)
                right = tuple(d for d, m in zip(rest, mask) if not m)
                total += c * _witten_kontsevich(
                    g1, tuple(sorted(left + (r,)))) * _witten_kontsevich(
                    g - g1, tuple(sorted(right + (s,))))
    return total / _double_factorial(2 * k + 3)


def test_witten_kontsevich_table():
    # Witten 1991: <tau_4>_2 = 1/1152, <tau_7>_3 = 1/82944; string and
    # dilaton equations at genus 1
    assert _witten_kontsevich(2, (4,)) == Fraction(1, 1152)
    assert _witten_kontsevich(3, (7,)) == Fraction(1, 82944)
    assert _witten_kontsevich(1, (0, 2)) == Fraction(1, 24)
    assert _witten_kontsevich(1, (1, 1)) == Fraction(1, 24)


@pytest.fixture(scope="module")
def airy40():
    return RecursionEngine(Genus0Curve(RationalFunction([0, 0, 1]),
                                       RationalFunction([0, 1]), order=40))


@pytest.mark.parametrize("g, n", SUITE + AIRY_DEEP)
def test_airy_entries_are_intersection_numbers(airy40, g, n):
    # X = z^2, Y = z: s(zeta) = zeta, so every entry of omega(g, n) is
    # 2^(2-2g-n) <tau_d1 ... tau_dn>_g prod (2 d_i - 1)!!, k = 2d + 1.
    # Measured at order 40: every entry on sum d = 3g - 3 + n is within
    # 4.4e-16 of its bracket, relative (the worst at omega(5, 1)), and
    # every entry off it is exactly 0.0
    w = airy40.omega(g, n)
    dense = dense_view(w)
    ds = [(k - 1) // 2 for _, k in w.basis]
    brackets = {}        # each sorted d once: omega(0, 6) has 46656 entries
    for idx in itertools.product(range(len(ds)), repeat=n):
        d = tuple(sorted(ds[i] for i in idx))
        if d not in brackets:
            exact = Fraction(2) ** (2 - 2 * g - n) * _witten_kontsevich(g, d)
            for di in d:
                exact *= _double_factorial(2 * di - 1)
            brackets[d] = exact
        exact = brackets[d]
        if exact == 0:
            assert dense[idx] == 0.0, (idx, dense[idx])
        else:
            assert abs(dense[idx] - float(exact)) \
                <= 1e-15 * float(exact), (idx, dense[idx], exact)


@pytest.mark.parametrize("which", ["joukowski", "torus"])
def test_f2_contour_oracle(which, joukowski, torus):
    # brute-force oracle for the dilaton sum: F2 = -(1/2) sum_a Res_a Phi
    # omega(2, 1), Phi = int 2 zeta y_a dzeta from the chart of Y, by
    # contour quadrature on a circle around each ramification point.
    # Measured relative errors: 1.9e-11 (Joukowski), 3.0e-10 (tau = i),
    # cancellation on the circle, which shrinks as it widens
    eng = RecursionEngine({"joukowski": joukowski, "torus": torus}[which])
    f2 = eng.invariant(2)
    if which == "joukowski":
        assert abs(f2 - 1.0 / 240.0) < 1e-12
    w12 = eng.omega(2, 1)
    samples, rad = 3000, 0.25
    zeta = rad * np.exp(2j * np.pi * (np.arange(samples) + 0.5) / samples)
    total = 0.0
    for a, r in enumerate(eng.rams):
        phi = (eng.y_of[a].shift(1) * 2.0).antiderivative()
        z = r.location + _on_circle(eng.s_of[a], zeta)
        val = w12.tensor[:, 0] @ eng.basis_matrix(w12.basis, z) \
            * _on_circle(eng.s_of[a].differentiate(), zeta)
        total += np.mean(_on_circle(phi, zeta) * val * zeta)
    tol = {"joukowski": 2e-10, "torus": 3e-9}[which]
    assert abs(total / (2 - 4) - f2) < tol * abs(f2)


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


@pytest.mark.parametrize("g, tol", [(2, 2e-14), (3, 2e-14), (4, 2e-14),
                                    (5, 2e-14)])
def test_joukowski_fg_harer_zagier(joukowski40, g, tol):
    # F_g = -B_2g / (2g (2g - 2)) (Harer-Zagier)
    exact = float(-_bernoulli(2 * g) / (2 * g * (2 * g - 2)))
    assert abs(joukowski40.invariant(g) - exact) < tol * abs(exact)


@cache
def _harer_zagier(g, n):
    """epsilon_g(n), the number of genus-g gluings of a 2n-gon, in exact
    integers: (n + 1) eps_g(n) = 2 (2n - 1) eps_g(n - 1) + (n - 1) (2n - 1)
    (2n - 3) eps_(g-1)(n - 2), from the Catalan numbers eps_0 (Harer-Zagier
    1986)."""
    if g < 0 or n < 0:
        return 0
    if g == 0:
        return comb(2 * n, n) // (n + 1)
    if n == 0:
        return 0
    total = 2 * (2 * n - 1) * _harer_zagier(g, n - 1) + (n - 1) \
        * (2 * n - 1) * (2 * n - 3) * _harer_zagier(g - 1, n - 2)
    assert total % (n + 1) == 0
    return total // (n + 1)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_joukowski_omega_g1_counts_gluings(joukowski40, g):
    # at the pole z = inf of X = z + 1/z, [x^(-2n-1) dx] omega(g, 1) =
    # eps_g(n), read as the mean of X^2n omega/dz z over 256 nodes on
    # |z| = 2.5, which encloses both ramification points.  Measured for
    # n = 2g .. 2g + 4: within 2.0e-12 relative, the worst at (5, 10),
    # where the terms of the mean cancel; 1e-11 bounds it
    assert _harer_zagier(1, 3) == 10 and _harer_zagier(2, 4) == 21
    z = 2.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    w = joukowski40.omega(g, 1)
    f = w.tensor[:, 0] @ joukowski40.basis_matrix(w.basis, z)
    for n in range(2 * g, 2 * g + 5):
        got = np.mean((z + 1 / z) ** (2 * n) * f * z)
        assert abs(got / _harer_zagier(g, n) - 1) < 1e-11, (n, got)


def test_joukowski_f6_harer_zagier_order_48(monkeypatch):
    # F_6 at curve order 48 builds omega(0, 7), whose dense size (14^7
    # entries, 1.7 GB) passes the shipped byte bound; the memo stores
    # 788,734 entries.  Measured on a 2-core VM with one BLAS thread:
    # relative error 1.0e-15, 0.22-0.30 s and 102 MB peak RSS for the
    # whole process
    monkeypatch.setattr(recursion, "MAX_LEVEL_BYTES", 1 << 31)
    eng = RecursionEngine(Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                                      RationalFunction([0, 1]), order=48))
    exact = float(-_bernoulli(12) / (12 * 10))
    assert abs(eng.invariant(6) - exact) < 5e-15 * abs(exact)


def _lattice_count(eng, g, b):
    """N_(g,n)(b) read off omega(g, n) at z = 0 on Joukowski: each basis
    form's Taylor coefficients there are one 32-node FFT on |z| = 0.4."""
    z = 0.4 * np.exp(2j * np.pi * np.arange(32) / 32)
    w = eng.omega(g, len(b))
    C = np.fft.fft(eng.basis_matrix(w.basis, z), axis=1) / 32 \
        / 0.4 ** np.arange(32)
    got = dense_view(w)
    for bi in b:
        got = np.tensordot(got, C[:, bi - 1], axes=([0], [0]))
    return complex(got) / np.prod(b)


@pytest.mark.parametrize("g, b, count", [
    (1, (4,), Fraction(1, 4)), (1, (2,), 0), (0, (2, 2, 1, 1), 2),
    (0, (3, 3, 3, 3), 8), (0, (4, 2, 2, 2), 6), (1, (4, 2), Fraction(1, 2)),
    (1, (3, 3), Fraction(1, 3))])
def test_joukowski_lattice_point_counts(joukowski40, g, b, count):
    # at the pole z = 0 of X = z + 1/z, omega(g, n) = sum N_(g,n)(b)
    # prod b_i z_i^(b_i - 1) dz_i, N the lattice-point counts of the moduli
    # space of curves (Norbury, arXiv:0801.4590), N_(1,1)(b) = (b^2 - 4)/48.
    # The FFT is aliased by the coefficients 32 orders up.  Measured: within
    # 5.1e-8 relative, the worst at N_(1,2)(3, 3), and 7.5e-11 absolute at
    # N_(1,1)(2) = 0
    got = _lattice_count(joukowski40, g, b)
    assert abs(got - float(count)) <= max(1e-7 * float(count), 1e-9), got


def test_joukowski_lattice_point_counts_03(joukowski40):
    # N_(0,3)(b) = 1 for an even sum b and 0 for an odd one; measured within
    # 1.5e-11 for every b_i <= 4
    for b in itertools.product(range(1, 5), repeat=3):
        got = _lattice_count(joukowski40, 0, b)
        assert abs(got - (1 - sum(b) % 2)) <= 1e-10, (b, got)


def _grunsky_rows(a, zeta_prime, n):
    """h[i, j] for i, j < n: the coefficient of zeta1^i zeta2^j of
    d1 d2 log Q, Q = (s(zeta1) - s(zeta2))/(zeta1 - zeta2), the regular
    part of B(z_a(zeta1), z_a(zeta2)) on Joukowski at a = +-1, in 40-digit
    arithmetic.  The chart solves zeta^2 = X(a + s) - X(a) = s^2/(a + s):
    s = zeta^2/2 + (zeta/zeta'(0)) sqrt(1 + zeta^2/(4a)).  With Q =
    A_0(zeta1) (1 + sum_q u_q(zeta1) zeta2^q), A_q(x) = sum_p s_(p+q+1) x^p,
    the zeta2^q parts l_q of log Q, q >= 1, follow from q l_q = q u_q -
    sum_(0<k<q) k l_k u_(q-k), a recurrence in zeta2, where the engine's
    runs in zeta1."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m = n + 1
    s = [mp.mpc(0)] * (2 * m + 1)
    s[2] = mp.mpf(1) / 2
    for k in range(m):
        s[2 * k + 1] = mp.binomial(mp.mpf(1) / 2, k) / (4 * a) ** k \
            / mp.mpc(zeta_prime)

    def mul(f, g):
        return [mp.fsum(f[i] * g[k - i] for i in range(k + 1))
                for k in range(m)]

    A = [[s[p + q + 1] for p in range(m)] for q in range(m)]
    inv = [1 / A[0][0]]
    for k in range(1, m):
        inv.append(-mp.fsum(A[0][i] * inv[k - i] for i in range(1, k + 1))
                   / A[0][0])
    u = [None] + [mul(A[q], inv) for q in range(1, m)]
    kl = [None]                     # kl[q][p] = q [zeta1^p zeta2^q] log Q
    for q in range(1, m):
        acc = [q * x for x in u[q]]
        for k in range(1, q):
            acc = [x - y for x, y in zip(acc, mul(kl[k], u[q - k]))]
        kl.append(acc)
    return np.array([[complex((i + 1) * kl[j + 1][i + 1]) for j in range(n)]
                     for i in range(n)])


def test_diagonal_rows_match_grunsky_coefficients(joukowski40):
    # rows[m-1][t] is h_(m-1, t), every entry with both indices <= 20.
    # The reference vanishes unless both indices are even, and the
    # entries there measured 0.0
    r = joukowski40.rams[0]
    rows = joukowski40._plg[0, 0, :21, :21]
    ref = _grunsky_rows(round(r.location.real),
                        complex(np.round(r.xi_prime)), 21)
    zero = np.abs(ref) < 1e-30 * np.abs(ref).max()
    err = np.abs(rows - ref)
    assert np.all(err[~zero] <= 1e-14 * np.abs(ref[~zero]))
    assert np.all(err[zero] <= 1e-24)


def _lagrange_mp(mp, s, n):
    """[t, q] -> [zeta^t] s^q s' for t, q < n, s the coefficients of
    zeta^1.. in mpmath."""
    s = [mp.mpc(0)] + list(s[:n])
    ds = [(k + 1) * s[k + 1] for k in range(n)]
    power, out = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1), mp.matrix(n, n)
    for q in range(n):
        for t in range(n):
            out[t, q] = mp.fsum(power[i] * ds[t - i] for i in range(t + 1))
        power = [mp.fsum(power[i] * s[k - i] for i in range(k + 1))
                 for k in range(n)]
    return out


@pytest.mark.parametrize("b, a", [(1, 0), (0, 1)])
def test_cross_rows_match_reference(joukowski40, b, a):
    # rows = gamma_b H(c) gamma_a^T with F = 1/v^2, c = r_b - r_a and
    # H[q, l] = C(q+l, q) F^(q+l)(c)/(q+l)! (-1)^l
    #         = C(q+l, q) (-1)^q (q+l+1) c^-(q+l+2),
    # in 40-digit arithmetic from the engine's own chart coefficients
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eng = joukowski40
    eng._residue_tensors()
    rows = eng._plg[b, a]
    m_rows, width = rows.shape
    sb, sa = ([mp.mpc(complex(eng.s_of[x].coeff(k)))
               for k in range(1, width + 1)] for x in (b, a))
    gb, ga = _lagrange_mp(mp, sb, m_rows), _lagrange_mp(mp, sa, width)
    c = mp.mpc(eng.rams[b].location) - mp.mpc(eng.rams[a].location)
    H = mp.matrix(m_rows, width)
    for q in range(m_rows):
        for l in range(width):
            H[q, l] = mp.binomial(q + l, q) * (-1) ** q * (q + l + 1) \
                / c ** (q + l + 2)
    ref = np.array((gb * H * ga.T).tolist(), dtype=complex)
    assert np.max(np.abs(rows - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("which", ["joukowski", "torus", "g1"])
def test_row_tables_match_the_per_pair_oracle(joukowski, torus, asym_engines,
                                              which):
    # the tables built together, the diagonal ones at set-up and those off
    # it with the residue tensors, against each pair built alone by the
    # generic recurrence (``oracles.rows_by_pair``): the diagonal ones
    # measured bit-identical, those off it, read off the rank-one
    # recurrence, within 7.9e-17 of the table's largest entry (tau =
    # 0.25 + 1.07i; 2.3e-17 at tau = i, 0 on Joukowski)
    curve = {"joukowski": joukowski, "torus": torus,
             "g1": asym_engines["g1"][0]}[which]
    eng = RecursionEngine(curve)
    built = eng._plg.copy()
    eng._residue_tensors()
    for a in range(eng.A):
        for b in range(a, eng.A):
            for key, want in rows_by_pair(eng, b, a).items():
                got = eng._plg[key]
                if b == a:
                    assert np.array_equal(got, want), key
                    assert np.array_equal(built[key], want), key
                else:
                    assert not built[key].any(), key
                    assert np.abs(got - want).max() \
                        <= 4e-16 * np.abs(want).max(), key


def test_airy_builds_no_cross_tables(airy, monkeypatch):
    # one ramification point: the residue tensors read no kernel jet for
    # tables off the diagonal, and the levels and F_g are the closed forms
    # (Witten-Kontsevich on X = z^2, Y = z): omega(0, 3) = 1/2, omega(1, 1)
    # = 1/48, omega(0, 4) = 1/4, omega(1, 2) = 1/32, 1/96, omega(2, 1) =
    # 35/3072 on their nonzero entries, and F_2 = F_3 = 0
    eng = RecursionEngine(airy)
    assert eng._plg.shape[:2] == (1, 1)
    calls = []
    monkeypatch.setattr(Genus0Curve, "_regular_jet",
                        lambda self, *args: calls.append(args))
    eng._residue_tensors()
    assert calls == []
    want = {(0, 3): {(0, 0): 1 / 2}, (1, 1): {(1, 0): 1 / 48},
            (0, 4): {(0, 1): 1 / 4, (0, 2): 1 / 4, (0, 3): 1 / 4,
                     (1, 0): 1 / 4},
            (1, 2): {(0, 2): 1 / 32, (1, 1): 1 / 96, (2, 0): 1 / 32},
            (2, 1): {(4, 0): 35 / 3072}}
    for (g, n), entries in want.items():
        tensor = eng.omega(g, n).tensor
        ref = np.zeros_like(tensor)
        for ij, v in entries.items():
            ref[ij] = v
        assert np.abs(tensor - ref).max() <= 1e-16 * np.abs(ref).max()
    assert eng.invariant(2) == 0 and eng.invariant(3) == 0


@pytest.mark.parametrize("which", ["torus", "g1"])
def test_torus_rows_match_kernel_values(engines, asym_engines, which):
    # sum rows[m-1, t] zeta1^(m-1) zeta2^t = F(c + s_b(zeta1) - s_a(zeta2))
    # s_b'(zeta1) s_a'(zeta2), less 1/(zeta1 - zeta2)^2 on the diagonal,
    # at tau = i and tau = 0.25 + 1.07i.  On the diagonal the reference
    # cancels F near its pole down to about 2.5e-11; off it the tables
    # agree to 1e-16
    eng = engines["torus"] if which == "torus" else asym_engines["g1"][1]
    eng._residue_tensors()
    z1 = 0.05 * np.exp(1j * np.array([0.3, 2.1, 4.4]))
    z2 = 0.05 * np.exp(1j * np.array([1.2, 3.9, 5.6]))
    for b in range(eng.A):
        for a in range(eng.A):
            c = eng.rams[b].location - eng.rams[a].location
            want = eng.curve.bergman(c + _on_circle(eng.s_of[b], z1)
                                     - _on_circle(eng.s_of[a], z2)) \
                * _on_circle(eng.s_of[b].differentiate(), z1) \
                * _on_circle(eng.s_of[a].differentiate(), z2)
            if b == a:
                want -= 1 / (z1 - z2) ** 2
            got = np.polynomial.polynomial.polyval2d(z1, z2, eng._plg[b, a])
            tol = 1e-10 if b == a else 1e-14
            assert np.all(np.abs(got - want)
                          <= tol * np.maximum(1.0, np.abs(want))), (b, a)


@pytest.mark.parametrize("which", ["torus", "g1"])
def test_diagonal_rows_parity_exact(engines, asym_engines, which):
    # s_a is odd and F even, so h_ij vanishes for i + j odd: exactly, once
    # the on-pole jet of log(E(t)/t) is even
    eng = engines["torus"] if which == "torus" else asym_engines["g1"][1]
    for a in range(eng.A):
        H = eng._plg[a, a]
        i, j = np.indices(H.shape)
        assert np.all(H[(i + j) % 2 == 1] == 0.0), a


def test_evaluate_omega41(joukowski40):
    # omega(4, 1), and omega(5, 1), whose top k lies past the row tables
    # (m <= m_rows), which evaluation does not use: gate them by the
    # involution z -> 1/z and by quadrature
    assert max(k for _, k in joukowski40.omega(5, 1).basis) \
        > joukowski40.m_rows
    for g in (4, 5):
        w = joukowski40.omega(g, 1)
        for z in (1.3 + 0.4j, 0.7 + 1.1j, 1.9 + 0.2j):
            val = joukowski40.evaluate(w, [z])
            inv = joukowski40.evaluate(w, [1 / z]) * (-1 / z ** 2)
            assert abs(val + inv) / abs(val) < 1e-12
        for a, r in enumerate(joukowski40.rams):
            res = residue_at_point(joukowski40, w, a, [], radius=0.1,
                                   samples=400)
            scale = abs(joukowski40.evaluate(w, [r.location + 0.1]))
            assert abs(res) / scale < 1e-12


def test_evaluate_beyond_tracked_k_refused(joukowski40):
    # evaluation and the pole pairing read B_(a,k) up to the charts'
    # depth and refuse past it
    deep = CorrForm(0, 1, [(0, joukowski40.deep + 2)], np.ones((1, 1)),
                    np.zeros((1, 0), dtype=int))
    with pytest.raises(TruncationTooShort, match="chart depth"):
        joukowski40.evaluate(deep, [1.3 + 0.4j])
    with pytest.raises(TruncationTooShort, match="chart depth"):
        joukowski40.pole_pairing_vector(deep.basis, "inf", 1)
    # below it the pairing is read at g = 4: special geometry against
    # finite differences of F_4
    curve = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                        RationalFunction([0, 1, 0.2]), order=40)
    eng = RecursionEngine(curve)
    fac, times, _ = regularized_direction(curve, ("t", 2))
    pred = 0.0
    for (center, j), t in times.items():
        pred += t * dF_dt(eng, 4, center, j)
    fds = [_fd_invariant(fac, 4, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-4
    assert abs(fds[0] - fds[1]) / abs(pred) < 1e-2    # h-sweep sanity


def test_invariant_beyond_row_tables_refused(joukowski40):
    # the reach rule that admits the levels sizes the row tables: F_5's
    # omega(4, 2) reads the largest m = 27, and F_6, whose levels read
    # m = 33, is refused by the curve order before any work
    assert joukowski40.m_rows == max(k_slots(4, 2)) == 27
    with pytest.raises(TruncationTooShort, match="curve order >= 41"):
        joukowski40.invariant(6)
    for g in range(7):
        for n in range(1 if g else 3, 12):
            try:
                joukowski40._check_reach(g, n)
            except (TruncationTooShort, LevelTooLarge):
                continue
            deepest = (g, n - 1) if n > 1 else (g - 1, 2)
            assert max(k_slots(*deepest)) <= joukowski40.m_rows, (g, n)


def test_unreachable_levels_refused_up_front():
    # F_6 needs curve order 41 and omega(5, 2) builds omega(0, 7) (1.7 GB);
    # the guard in omega() refuses them before any lower level is built
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    eng = RecursionEngine(cv)
    with pytest.raises(TruncationTooShort, match="curve order"):
        eng.invariant(6)
    with pytest.raises(LevelTooLarge, match=re.escape("omega(0, 7)")):
        eng.omega(5, 2)
    assert eng._memo == {}


def test_levels_past_the_byte_bound_refused_up_front(torus, monkeypatch):
    # on sizes alone: omega(0, 8) and omega(0, 12) on Joukowski at order
    # 40 (16^8 and 24^12 complex entries) and omega(1, 6) on tau = i, which
    # builds omega(0, 7) (21^7 entries, 27 GiB), pass the curve order; the
    # byte bound refuses them before any level is built
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    jk, tor = RecursionEngine(cv), RecursionEngine(torus)
    for eng, (g, n), big in ((jk, (0, 8), (0, 8)), (jk, (0, 12), (0, 12)),
                             (tor, (1, 6), (0, 7))):
        with pytest.raises(LevelTooLarge, match=re.escape(f"omega{big}")):
            eng.omega(g, n)
        assert eng._memo == {}
    # the bound is on bytes: Joukowski omega(0, 4) is 8^4 entries of 16
    # bytes.  An engine reads it when it is built, and it sizes the tables:
    # below it the deepest level is omega(2, 1), which reads m <= 9
    monkeypatch.setattr(recursion, "MAX_LEVEL_BYTES", 16 * 8 ** 4 - 1)
    small = RecursionEngine(cv)
    assert small.m_rows == 9
    with pytest.raises(LevelTooLarge, match=r"omega\(0, 4\)"):
        small.omega(1, 3)
    assert small._memo == {}
    # at the bound omega(0, 4) is admitted: its dense size, which sizes the
    # tables, is exactly the bound, while the level stores only its support
    monkeypatch.setattr(recursion, "MAX_LEVEL_BYTES", 16 * 8 ** 4)
    w = RecursionEngine(cv).omega(0, 4)
    assert dense_view(w).nbytes == 16 * 8 ** 4 > w.tensor.nbytes


@pytest.mark.parametrize("which", ["airy", "torus", "g0", "g1", "joukowski"])
def test_levels_match_dense_reference(engines, asym_engines, joukowski40,
                                      which):
    # every stored entry against the dense recursion, and every dense entry
    # past the degree bound sum d <= 3g - 3 + n exactly 0.0, so the support
    # drops nothing.  Measured within 2.0e-16 of the level's largest entry,
    # the worst at Joukowski omega(2, 3)
    eng = {"joukowski": joukowski40, **engines,
           **{k: e for k, (_, e) in asym_engines.items()}}[which]
    ref = DenseReference(eng)
    for g, n in SUITE + (AIRY_DEEP if which == "joukowski" else []):
        w, dense = eng.omega(g, n), ref.omega(g, n)
        assert np.abs(dense_view(w) - dense).max() \
            <= 1e-15 * np.abs(dense).max(), (g, n)
        assert np.all(dense[degree_sums(w) > 3 * g - 3 + n] == 0.0), (g, n)


@pytest.mark.parametrize("which",
                         ["airy", "torus", "g0", "g1", "joukowski", "airy40"])
def test_dilaton_equation(engines, asym_engines, joukowski40, airy40, which):
    # omega(g, n + 1) paired with Phi = int Y dX in its first slot is
    # (2g - 2 + n) omega(g, n), entry by entry over the stored support.
    # Measured within 2.9e-16 of the level's largest entry, the worst at
    # omega(1, 3) on the asymmetric torus
    eng = {"joukowski": joukowski40, "airy40": airy40, **engines,
           **{k: e for k, (_, e) in asym_engines.items()}}[which]
    for g, n in SUITE:
        assert eng.dilaton_residual(g, n) < 2e-15, (g, n)


@pytest.mark.parametrize("which", ["airy", "torus"])
def test_dilaton_residual_sees_a_scaled_head(request, which):
    # one head of P^a scaled by 1 + 1e-6 moves every SUITE level's
    # residual to 3.5e-7 or more (measured)
    eng = RecursionEngine(request.getfixturevalue(which))
    P, _ = eng._residue_tensors()
    P[0, 1] *= 1 + 1e-6
    for g, n in SUITE:
        assert eng.dilaton_residual(g, n) > 1e-7, (g, n)


def test_levels_store_their_support():
    # Joukowski at order 40 after F_2, F_3 and F_4: the memo's 13 levels
    # hold 9812 entries, where their dense tensors held 151,196
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    eng = RecursionEngine(cv)
    for g in (2, 3, 4):
        eng.invariant(g)
    assert sum(w.tensor.size for w in eng._memo.values()) <= 12_000


@pytest.mark.parametrize("which, sizes", [
    ("joukowski", (27, 61, (2, 16, 44, 44))),
    ("torus", (15, 37, (3, 10, 34, 34)))])
def test_table_sizing(engines, joukowski40, which, sizes):
    # the reach rule sizes the row tables, the charts and the residue
    # tensors P^a (stacked over the ramification points) on dense level
    # sizes, whatever the levels store
    eng = joukowski40 if which == "joukowski" else engines["torus"]
    assert (eng.m_rows, eng.deep, eng._residue_tensors()[0].shape) == sizes


def test_products_cover_each_split_once():
    # each unordered split (I, f1, f2) ~ (I^c, f2, f1) of the recursion's
    # product terms comes once, weight 2 counting its mirror, weight 1 for
    # the self-mirror split; together they are the full enumeration
    for g in range(5):
        for J in range(5):
            full = Counter(
                (I, (h, 1 + len(I)), (g - h, 1 + J - len(I)))
                for h in range(g + 1) for r in range(J + 1)
                for I in itertools.combinations(range(J), r)
                if (0, 1) not in ((h, 1 + r), (g - h, 1 + J - r)))
            seen = Counter()
            for I, f1, f2, w in _products(g, J):
                mirror = (tuple(j for j in range(J) if j not in I), f2, f1)
                assert w == (1 if mirror == (I, f1, f2) else 2)
                seen[(I, f1, f2)] += 1
                seen[mirror] += w - 1
            assert seen == full, (g, J)


def test_bad_indices_refused_with_library_error(engines, joukowski):
    # unstable (g, n), F_g below genus 2, j < 1 and a center that is no
    # pole are refused with a library error, not a ValueError or KeyError
    assert issubclass(BadIndex, SpectralFlowError)
    eng = engines["airy"]
    for g, n in ((0, 1), (0, 2)):
        with pytest.raises(BadIndex):
            eng.omega(g, n)
    with pytest.raises(BadIndex):
        eng.invariant(1)
    for g, n in ((2, 0), (0, 2)):
        with pytest.raises(BadIndex):
            eng.dilaton_residual(g, n)
    with pytest.raises(BadIndex):
        SecondKindBasis(joukowski, joukowski.x_poles[0], 0)
    exp = expansion(joukowski, YdX(joukowski))
    with pytest.raises(BadIndex):
        exp.dF_dt(0.7 + 0.2j, 1)


def test_residue_slice_reads_products():
    rng = np.random.default_rng(20261018)
    lo, hi, ks = -12, 6, [1, 3, 5, 7]
    d = rng.normal(size=hi - lo + 1) + 1j * rng.normal(size=hi - lo + 1)
    f = TruncSeries(rng.normal(size=40) + 1j * rng.normal(size=40), -1)
    R = _residue_slice(f, ks, lo, hi)
    want = np.array([(TruncSeries(d, lo) * f).coeff(-k) for k in ks])
    assert np.max(np.abs(R @ d - want)) < 1e-13 * np.max(np.abs(want))


def _window(eng, basis, a, lo, hi):
    """The coefficients on zeta^[lo, hi], lo <= 0, of B_{b,m}(z_a(zeta))/
    dzeta for each (b, m) of ``basis``: the engine's window, the regular
    part, plus the pole m zeta^-(m+1) at b == a."""
    W = np.zeros((hi - lo + 1, len(basis)), dtype=complex)
    W[-lo:] = eng._window(basis, hi)[a]
    for c, (b, m) in enumerate(basis):
        if b == a and lo <= -(m + 1):
            W[-(m + 1) - lo, c] = m
    return W


def _column_series(eng, col, a, lo, hi):
    """The window of one column of the residue tensors as a TruncSeries:
    B_{b,m}(z_a(zeta)), or the Bergman slot zeta^(m-1) for b = None."""
    b, m = col
    if b is not None:
        return TruncSeries(_window(eng, [(b, m)], a, lo, hi)[:, 0], lo)
    data = np.zeros(hi - lo + 1, dtype=complex)
    data[m - 1 - lo] = 1.0
    return TruncSeries(data, lo)


@pytest.mark.parametrize("which", ["g0", "g1"])
def test_residue_tensor_matches_series_products(asym_engines, which):
    # P^a[k, i, j] = -1/(2k) [zeta^-k] W_i(zeta) W_j(-zeta) / (y - ybar),
    # read here with windows wider than the tensor's own
    _, eng = asym_engines[which]
    P, _ = eng._residue_tensors()
    cols = eng._columns
    lo, hi = -(eng.m_rows + 1), eng.m_rows + 5
    rng = np.random.default_rng(7)
    for a in range(eng.A):
        scale = np.abs(P[a]).max()
        for _ in range(40):
            k = 2 * int(rng.integers(P[a].shape[0])) + 1
            i, j = rng.integers(len(cols), size=2)
            # W_j(-zeta) d(-zeta) = -W_j(-zeta) dzeta
            prod = _column_series(eng, cols[i], a, lo, hi) \
                * flip_parity(_column_series(eng, cols[j], a, lo, hi)) \
                * eng.ydiff_inv[a]
            want = prod.coeff(-k) / (2 * k)
            assert abs(P[a][(k - 1) // 2, i, j] - want) < 1e-14 * scale


def _dense_residue_tensor(eng, a):
    """P^a as one dense Hankel contraction: every window on zeta^[lo, hi],
    poles included, against every other through the (K, L, L) slice of
    c_a = 1/(y - ybar) at the sum of their exponents."""
    m_rows = eng.m_rows
    heads = np.arange(1, m_rows + 5, 2)
    lo, hi = -(m_rows + 1), m_rows + 3
    e = np.arange(lo, hi + 1)
    unit = (e[:, None] == heads[None, :] - 1).astype(complex)
    W = np.hstack([_window(eng, eng._columns[:eng._nb], a, lo, hi), unit])
    flip = ((-1.0 + 0j) ** ((e + 1) % 2))[:, None]
    R2 = _residue_slice(eng.ydiff_inv[a], heads, 2 * lo, 2 * hi)
    P = np.tensordot(np.tensordot(R2[:, np.add.outer(e, e) - 2 * lo], W,
                                  axes=([1], [0])),
                     flip * W, axes=([1], [0]))
    return (-0.5 / heads)[:, None, None] * P


def _dense_diagonal_term(eng, a):
    """The (1, 1) term: -1/(2k) [zeta^-k] c_a(zeta) omega(0, 2)(z_a(zeta),
    z_a(-zeta))/dzeta, the Bergman diagonal -1/(4 zeta^2) - sum_(i+j=t)
    rows[i, j] (-1)^j zeta^t laid out on zeta^[lo, hi] first."""
    m_rows = eng.m_rows
    heads = np.arange(1, m_rows + 5, 2)
    lo, hi = -(m_rows + 1), m_rows + 3
    dat = np.zeros(hi - lo + 1, dtype=complex)
    dat[-2 - lo] = -0.25
    H = eng._plg[a, a]
    i, j = np.indices((len(H), len(H)))
    keep = i + j <= min(len(H) - 1, hi)
    np.add.at(dat, (i + j)[keep] - lo,
              -H[i[keep], j[keep]] * (-1.0) ** j[keep])
    R = _residue_slice(eng.ydiff_inv[a], heads, lo, hi)
    return (-0.5 / heads) * (R @ dat)


@pytest.mark.parametrize("which", ["airy", "joukowski", "torus", "g0", "g1"])
def test_residue_tensor_matches_dense_oracle(engines, asym_engines,
                                             joukowski40, which):
    # the tensor built from its nonzero blocks equals the dense contraction,
    # and the (1, 1) term the Bergman diagonal laid out term by term
    eng = {"joukowski": joukowski40, **engines,
           **{k: e for k, (_, e) in asym_engines.items()}}[which]
    P, diag = eng._residue_tensors()
    for a in range(eng.A):
        dense = _dense_residue_tensor(eng, a)
        assert np.abs(P[a] - dense).max() <= 1e-15 * np.abs(dense).max(), a
        want = _dense_diagonal_term(eng, a)
        assert np.abs(diag[a] - want).max() <= 1e-15 * np.abs(want).max(), a


def test_residue_tensor_airy_closed_form(engines):
    # X = z^2, Y = z: B_m(z(zeta)) = m zeta^(-m-1) and 1/(y - ybar) =
    # 1/(2 zeta), so P[k; i, j] = w_i w_j / (4k) when e_i + e_j - 1 = -k
    eng = engines["airy"]
    P, _ = eng._residue_tensors()
    we = [(m, -m - 1) if b is not None else (1, m - 1)
          for b, m in eng._columns]
    for ki in range(P[0].shape[0]):
        k = 2 * ki + 1
        want = np.array([[wi * wj / (4 * k) if ei + ej - 1 == -k else 0.0
                          for wj, ej in we] for wi, ei in we])
        assert np.max(np.abs(P[0][ki] - want)) < 1e-15
    cols = eng._columns
    assert P[0][0, cols.index((0, 1)), cols.index((None, 3))] == 0.25
    assert abs(P[0][1, cols.index((0, 1)), cols.index((None, 1))]
               - 1.0 / 12.0) < 1e-15


def test_residue_tensor_symmetric(engines, joukowski):
    for eng in (engines["torus"], RecursionEngine(joukowski)):
        for Pa in eng._residue_tensors()[0]:
            for Pk in Pa:
                scale = np.abs(Pk).max()
                assert np.abs(Pk - Pk.T).max() <= 1e-15 * scale


def test_levels_build_no_windows(monkeypatch):
    # every level contracts with the residue tensors built once: after
    # F_2, F_3 and F_4 read no basis window
    cv = Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                     RationalFunction([0, 1]), order=40)
    eng = RecursionEngine(cv)
    eng.invariant(2)
    calls = []
    original = RecursionEngine._window

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RecursionEngine, "_window", counted)
    eng.invariant(3)
    eng.invariant(4)
    assert calls == []


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
        scaled = RecursionEngine(rescaled(curve, 2.0))
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
        pred += t * (w.tensor[:, 0]
                     @ eng.pole_pairing_vector(w.basis, center, j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5
    assert abs(fds[0] - fds[1]) / abs(pred) < 1e-2    # h-sweep sanity


def test_special_geometry_eps_genus1(asym_engines):
    curve, eng = asym_engines["g1"]
    fac, times, epsc = regularized_direction(curve, "eps")
    w = eng.omega(2, 1)
    pred = epsc * dF_deps(eng, 2)
    for (center, j), t in times.items():
        pred += t * (w.tensor[:, 0] @ eng.pole_pairing_vector(
            w.basis, center, j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5


def test_special_geometry_t_genus1(asym_engines):
    curve, eng = asym_engines["g1"]
    fac, times, epsc = regularized_direction(curve, ("t", 3))
    w = eng.omega(2, 1)
    pred = epsc * dF_deps(eng, 2)
    for (center, j), t in times.items():
        pred += t * (w.tensor[:, 0] @ eng.pole_pairing_vector(
            w.basis, center, j))
    fds = [_fd_invariant(fac, 2, h) for h in (1e-3, 1e-4)]
    assert abs(fds[1] - pred) / abs(pred) < 1e-5


# (curve, center p, orders j) of the contour oracle for the pairing
PAIRING_CASES = [
    ("joukowski", 0.0, (1, 3)), ("joukowski", 0.7 + 0.3j, (1, 2)),
    ("g0", 0.0, (4,)),
    ("torus", 0.0, (1, 3)), ("torus", 0.3 + 0.4j, (1, 2)),
    ("g1", 0.0, (1, 5)), ("g1", 0.3 + 0.2j, (2,)),
]


@pytest.fixture(scope="module")
def pairing_engines(joukowski, torus, asym_engines):
    return {"joukowski": RecursionEngine(joukowski),
            "torus": RecursionEngine(torus),
            "g0": asym_engines["g0"][1], "g1": asym_engines["g1"][1]}


@pytest.mark.parametrize("which, center, js", PAIRING_CASES)
def test_pole_pairing_contour_oracle(pairing_engines, which, center, js):
    # (1/j) Res_p xi^-j B_(a,k) by the trapezoid rule on |z - p| = 0.08,
    # the samples of every B_(a,k) from one basis_matrix read
    eng = pairing_engines[which]
    w = eng.omega(2, 1)
    s = 0.08 * np.exp(2j * np.pi * (np.arange(256) + 0.5) / 256)
    M = eng.basis_matrix(w.basis, center + s)
    xi = np.array([pole_frame(eng.curve, center).xi_of_s.evaluate(v)
                   for v in s])
    for j in js:
        want = M @ (xi ** -j * s) / (256 * j)
        got = eng.pole_pairing_vector(w.basis, center, j)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pole_pairing_builds_no_cache(pairing_engines):
    # the pairing is read off the charts: distinct centers leave the
    # engine's tables as they were
    eng = pairing_engines["joukowski"]
    w = eng.omega(2, 1)
    before = eng._plg.copy()
    for i in range(50):
        eng.pole_pairing_vector(w.basis, 0.5 + 0.3j + 0.02 * i * (1 + 1j), 2)
    assert np.array_equal(eng._plg, before)


def test_pole_pairing_one_local_series_per_ramification_point(
        pairing_engines, monkeypatch):
    eng = pairing_engines["torus"]
    w = eng.omega(2, 1)
    calls = []
    # omega_{p,j} at a finite pole is a KernelForm
    original = KernelForm.local_series

    def counted(self, center, order):
        calls.append(center)
        return original(self, center, order)

    monkeypatch.setattr(KernelForm, "local_series", counted)
    eng.pole_pairing_vector(w.basis, 0.3 + 0.4j, 3)
    assert len(calls) == eng.A
    assert set(calls) == {r.location for r in eng.rams}


def test_chart_vector_pole_at_ramification_point_refused(engines):
    # a form with a pole at r_a has no chart coefficients there
    for eng in engines.values():
        basis = eng.omega(2, 1).basis
        for r in eng.rams:
            with pytest.raises(PoleAtRamificationPoint):
                eng.chart_vector(BergmanLeg(eng.curve, r.location), basis)


def test_b_cycle_vector_genus0_refused(pairing_engines):
    eng = pairing_engines["joukowski"]
    with pytest.raises(UnsupportedCycle):
        eng.b_cycle_vector(eng.omega(2, 1).basis)


@pytest.mark.parametrize("center", [1.0, 1j, 1 + 1j])
def test_pole_of_x_matched_in_the_cell(engines, center):
    # on the tau = i torus each center is the pole u = 0 of X
    eng = engines["torus"]
    assert pole_frame(eng.curve, center) is eng.curve.x_poles[0]
    assert dF_dt(eng, 2, center, 1) == dF_dt(eng, 2, 0.0, 1)


def test_special_geometry_omega_derivative(asym_engines, rng):
    """d omega_1^(1)/dt against the contracted two-point form."""
    curve, eng = asym_engines["g0"]
    fac, times, _ = regularized_direction(curve, ("t", 2))
    z = 1.6 + 0.5j
    pred = 0.0
    for (center, j), t in times.items():
        pred += t * domega_dt(eng, 1, 1, center, j, [z])
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


@pytest.mark.parametrize("order", range(-1, 9))
def test_short_orders_refused(order):
    # a curve order below 2 cannot hold a chart and is refused with a
    # library error; on orders 2-8 an engine builds and refuses every
    # stable level by the curve order, before any work
    specs = [{"backend": "rational", "X": {"num": [1, 0, 1], "den": [0, 1]},
              "Y": {"num": [0, 1]}},
             {"backend": "weierstrass", "tau": {"re": 0, "im": 1},
              "Y": {"R2": {"num": [0.5]}}}]
    if order < 2:
        for spec in specs:
            with pytest.raises(SpectralFlowError, match="cannot hold"):
                build_curve(spec, order)
        return
    for spec in specs:
        eng = RecursionEngine(build_curve(spec, order))
        for g in range(4):
            for n in range(max(1, 3 - 2 * g), 9 - 2 * g):
                with pytest.raises(TruncationTooShort, match="curve order"):
                    eng.omega(g, n)
        assert eng._memo == {} and eng._P is None


def test_torus_order_90_matches_order_24(engines):
    # past the byte bound's m <= 21 a higher order only deepens the
    # curve's validation series: F_2 and F_3 stay put
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = RecursionEngine(Genus1Curve(1j, RationalFunction([0.0]),
                                          RationalFunction([0.5]), order=90))
    assert eng.m_rows == 21
    for g in (2, 3):
        want = engines["torus"].invariant(g)
        assert abs(eng.invariant(g) - want) <= 1e-13 * abs(want)


def test_torus_lattice_jet_computed_once(monkeypatch):
    # the on-pole jet of log E at 0 is computed once per curve and engine,
    # at the depth the diagonal row tables read, and the pole frame of X
    # read after it reuses it
    calls = []
    theta_jet = Genus1Curve.theta_jet

    def counted(self, v, n):
        if np.ndim(v) == 0 and v == 0:
            calls.append(n)
        return theta_jet(self, v, n)

    monkeypatch.setattr(Genus1Curve, "theta_jet", counted)
    cv = Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))
    assert calls == []
    eng = RecursionEngine(cv)
    assert calls == [2 * eng.m_rows + 7]
    cv.x_poles[0].xi_of_s
    eng.invariant(2)
    assert len(calls) == 1


def test_k_slots_cover_bound():
    for g, n in SUITE:
        assert max(k_slots(g, n)) >= 6 * g + 2 * n - 4 + 1
