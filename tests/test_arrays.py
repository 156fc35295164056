"""The array contract: form values, kernel derivatives and the quadrature
panels evaluate an ndarray of points in one call."""

import numpy as np
import pytest

from spectralflow import quadrature
from spectralflow.classical import ClassicalSystem
from spectralflow.curve import Genus1Curve, RationalFunction
from spectralflow.forms import (
    BergmanLeg,
    DuForm,
    RationalDz,
    SumForm,
    ThirdKind,
    WpPolyDu,
    YdX,
)
from spectralflow.geometry import basis_form, line_integral
from spectralflow.quadrature import integrate_segment
from spectralflow.series import identity
from spectralflow.theta import ThetaEvaluator


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
    D = cv.bergman_derivs(np.array(vs), 3)
    assert D.shape == (3, 2)
    for i, v in enumerate(vs):
        F = cv.bergman_taylor(v, identity(order=3), 1)[0]
        d = cv.bergman_derivs(v, 3)
        for q in range(3):
            ref = F.coeff(q)
            assert abs(d[q] - ref) < 1e-12 * abs(ref)
            assert abs(D[q, i] - ref) < 1e-12 * abs(ref)


def test_quadrature_calls_once_per_panel(monkeypatch):
    panels = []
    panel = quadrature._panel

    def counted(f, a, b):
        panels.append((a, b))
        return panel(f, a, b)
    monkeypatch.setattr(quadrature, "_panel", counted)
    shapes = []

    def f(z):
        shapes.append(np.shape(z))
        return 1.0 / (z - 0.5 - 0.05j)
    val = integrate_segment(f, 0.0, 1.0)
    exact = np.log((0.5 - 0.05j) / (-0.5 - 0.05j))
    assert abs(val - exact) < 1e-12
    assert len(panels) > 1
    assert shapes == [(15,)] * len(panels)
    # a constant integrand is broadcast over the nodes
    assert abs(integrate_segment(lambda z: 2.0, 0.0, 1 + 1j)
               - 2 * (1 + 1j)) < 1e-14


def test_chi_panel_is_one_lattice_sum(monkeypatch):
    # Y dX reads wp and wp' from one theta1 jet: on the torus every
    # quadrature panel of a chi line integral costs one lattice sum
    cv = _torus(1j)
    chi = ClassicalSystem(cv, YdX(cv)).chi
    counts = {"panels": 0, "sums": 0}
    panel, lattice_sum = quadrature._panel, ThetaEvaluator._sum

    def counted_panel(f, a, b):
        counts["panels"] += 1
        return panel(f, a, b)

    def counted_sum(self, u, n, a):
        counts["sums"] += 1
        return lattice_sum(self, u, n, a)
    monkeypatch.setattr(quadrature, "_panel", counted_panel)
    monkeypatch.setattr(ThetaEvaluator, "_sum", counted_sum)
    for z1, z2 in [(0.2 + 0.3j, 0.4 + 0.35j), (0.3 + 0.6j, 0.6 + 0.7j),
                   (0.7 + 0.2j, 0.65 + 0.45j)]:
        line_integral(cv, chi, z1, z2)
    assert counts["panels"] > 3
    assert counts["sums"] == counts["panels"]
