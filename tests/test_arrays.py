"""The array contract: form values, kernel derivatives and the quadrature
rounds evaluate an ndarray of points in one call."""

import re

import numpy as np
import pytest

from spectralflow import quadrature
from spectralflow.classical import ClassicalSystem
from spectralflow.curve import Genus1Curve, RationalFunction
from spectralflow.errors import QuadratureNotConverged
from spectralflow.forms import (
    BergmanLeg,
    DuForm,
    KernelForm,
    RationalDz,
    SumForm,
    ThirdKind,
    YdX,
)
from spectralflow.geometry import basis_form, line_integral
from spectralflow.quadrature import (
    integrate_path,
    integrate_segment,
    integrate_segments,
)
from spectralflow.theta import ThetaEvaluator

from deformations import WpPolyDu


def _torus(tau):
    return Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))


def _sphere_atoms(cv):
    return [YdX(cv), RationalDz(RationalFunction([1.0, 2.0], [0.3, 0.0, 1.0])),
            ThirdKind(cv, 0.41 + 0.13j, -0.52 + 0.77j),
            BergmanLeg(cv, 0.41 + 0.13j, 0.7),
            basis_form(cv, 0.0, 1), basis_form(cv, 0.0, 2),
            basis_form(cv, "inf", 1), basis_form(cv, "inf", 2),
            basis_form(cv, 0.41 + 0.13j, 2),
            basis_form(cv, "inf", 0)]


def _torus_atoms(cv):
    tau = cv.tau
    return [YdX(cv), DuForm(cv, 0.3 - 0.2j),
            ThirdKind(cv, 0.21 + 0.33 * tau, 0.68 + 0.52 * tau),
            BergmanLeg(cv, 0.41 + 0.13 * tau, 0.7),
            basis_form(cv, 0.0, 1), basis_form(cv, 0.0, 2),
            basis_form(cv, 0.41 + 0.13 * tau, 1),
            basis_form(cv, 0.41 + 0.13 * tau, 2),
            WpPolyDu(cv, [0.3, -0.2, 0.1])]


@pytest.mark.parametrize("which", ["joukowski", 1j, 0.25 + 1.07j])
def test_form_values_broadcast(request, which):
    if which == "joukowski":
        cv = request.getfixturevalue(which)
        atoms = _sphere_atoms(cv)
        pts = 0.9 + 0.6j + 0.5 * np.exp(2j * np.pi * np.arange(15) / 15)
    else:
        cv = _torus(which)
        atoms = _torus_atoms(cv)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.55, 0.95, 15) \
            + rng.uniform(0.55, 0.95, 15) * cv.tau
    atoms.append(SumForm([(0.7, atoms[0]), (-0.4j, atoms[2]),
                          (1.3, atoms[5])]))
    for pts_ in (pts, pts.reshape(3, 5)):
        for form in atoms:
            got = np.broadcast_to(form.value(pts_), pts_.shape)
            ref = np.array([form.value(z) for z in pts_.ravel()])
            ref = ref.reshape(pts_.shape)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), form


@pytest.mark.parametrize("which", ["joukowski", 1j, 0.25 + 1.07j])
def test_bergman_derivs_match_taylor(request, which):
    if which == "joukowski":
        cv = request.getfixturevalue(which)
        vs = [0.83 - 0.41j, -0.2 + 1.3j]
    else:
        cv = _torus(which)
        vs = [0.31 + 0.27 * cv.tau, 0.62 + 0.18 * cv.tau]
    # F^(q)(v)/q! is (-1)^q (q + 1) times the kernel form with principal
    # part z^-(q+2) dz at 0, whose values take an ndarray
    D = np.array([KernelForm(cv, [(0.0, [0.0] * (q + 1) + [
        (-1.0) ** q * (q + 1)])]).value(np.array(vs)) for q in range(3)])
    assert D.shape == (3, 2)
    for i, v in enumerate(vs):
        # the Taylor series of F(v + t), from the kernel series
        F = BergmanLeg(cv, 0.0).local_series(v, 3)
        for q in range(3):
            ref = F.coeff(q)
            d = KernelForm(cv, [(0.0, [0.0] * (q + 1) + [
                (-1.0) ** q * (q + 1)])]).value(v)
            assert abs(d - ref) < 1e-12 * abs(ref)
            assert abs(D[q, i] - ref) < 1e-12 * abs(ref)


def test_quadrature_calls_once_per_panel():
    # one integrand call per round, on the (P, 15) Kronrod nodes of every
    # panel still open; a round halves only the panels that failed
    shapes = []

    def f(z):
        shapes.append(np.shape(z))
        return 1.0 / (z - 0.5 - 0.05j)
    val = integrate_segment(f, 0.0, 1.0)
    exact = np.log((0.5 - 0.05j) / (-0.5 - 0.05j))
    assert abs(val - exact) < 1e-12
    assert len(shapes) > 1 and shapes[0] == (1, 15)
    assert all(len(s) == 2 and s[1] == 15 for s in shapes)
    assert all(b[0] % 2 == 0 and b[0] <= 2 * a[0]
               for a, b in zip(shapes, shapes[1:]))
    # a batch of segments shares the rounds: as many as its slowest one
    rounds = len(shapes)
    shapes.clear()
    integrate_segments(f, [(0.0, 1.0), (0.0, 1j), (2.0, 3.0)])
    assert shapes[0] == (3, 15) and len(shapes) == rounds
    # a constant integrand is broadcast over the nodes
    assert abs(integrate_segment(lambda z: 2.0, 0.0, 1 + 1j)
               - 2 * (1 + 1j)) < 1e-14


def _depth_first(f, a, b):
    """The adaptive rule panel by panel, left panel first."""
    total, stack = 0.0 + 0.0j, [(0.0, 1.0)]
    while stack:
        lo, hi = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ys = f(a + (b - a) * (mid + half * quadrature._XK)) * (b - a)
        k = half * np.sum(quadrature._WK * ys)
        g = half * np.sum(quadrature._WG * ys[1::2])
        if abs(k - g) <= quadrature.TOL * max(1.0, abs(k)):
            total += k
        else:
            stack += [(mid, hi), (lo, mid)]
    return total


def test_quadrature_batch_is_bit_identical_to_single_segments():
    def f(z):
        return 1.0 / (z - 0.5 - 0.01j) + np.exp(2j * z)
    segments = [(0.0, 1.0), (0.3j, 0.3j), (1 + 1j, -1 - 0.5j),
                (0.49, 0.51), (0.0, 1.0), (2.0, 0.0)]
    batch = integrate_segments(f, segments)
    singles = [integrate_segment(f, a, b) for a, b in segments]
    assert np.array(batch).tobytes() == np.array(singles).tobytes()
    # and to the panel-by-panel rule: panels are summed left to right
    ref = [_depth_first(f, complex(a), complex(b)) for a, b in segments]
    assert np.array(batch).tobytes() == np.array(ref).tobytes()
    # a polyline sums its segments left to right, as the batch's caller does
    assert integrate_path(f, [0.0, 1.0, 1 + 1j]) == \
        0 + batch[0] + integrate_segment(f, 1.0, 1 + 1j)


def test_quadrature_batch_refuses_the_unconverged_segment():
    def f(z):
        return np.abs(z - 1 / 3) ** -0.5
    with pytest.raises(QuadratureNotConverged,
                       match=re.escape("segment 0j -> (1+0j)")):
        integrate_segments(f, [(1j, 2j), (0.0, 1.0), (2.0, 3.0)])


def test_quadrature_refusal_stays_cheap():
    # an integrand that converges nowhere on a segment is refused after
    # MAX_DEPTH + 1 rounds of at most MAX_PANELS panels, not after
    # opening all 2^MAX_DEPTH panels of the last level
    shapes = []

    def f(z):
        shapes.append(np.shape(z))
        return np.where(z.real < 1.5, np.nan, 1.0)
    with pytest.raises(QuadratureNotConverged,
                       match=re.escape("segment 0j -> (1+0j)")):
        integrate_segments(f, [(2.0, 3.0), (0.0, 1.0)])
    assert len(shapes) == quadrature.MAX_DEPTH + 1
    assert max(s[0] for s in shapes) == quadrature.MAX_PANELS


def test_chi_panel_is_one_lattice_sum(monkeypatch):
    # Y dX reads wp and wp' from one theta1 jet: on the torus every
    # quadrature round of chi line integrals, all panels of all paths
    # together, costs one lattice sum
    cv = _torus(1j)
    chi = ClassicalSystem(cv, YdX(cv)).chi
    counts = {"rounds": 0, "sums": 0}
    value, lattice_sum = chi.value, ThetaEvaluator._sum

    def counted_value(z):
        counts["rounds"] += 1
        return value(z)

    def counted_sum(self, u, n):
        counts["sums"] += 1
        return lattice_sum(self, u, n)
    monkeypatch.setattr(chi, "value", counted_value)
    monkeypatch.setattr(ThetaEvaluator, "_sum", counted_sum)
    starts = [0.2 + 0.3j, 0.3 + 0.6j, 0.7 + 0.2j]
    ends = [0.4 + 0.35j, 0.6 + 0.7j, 0.65 + 0.45j]
    singles = [line_integral(cv, chi, a, b) for a, b in zip(starts, ends)]
    assert counts["rounds"] > 3
    assert counts["sums"] == counts["rounds"]
    counts.update(rounds=0, sums=0)
    batch = line_integral(cv, chi, starts, ends)
    assert batch.tobytes() == np.array(singles).tobytes()
    assert 1 < counts["rounds"] == counts["sums"] < 3 * len(singles)
