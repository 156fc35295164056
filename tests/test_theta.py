import math

import numpy as np
import pytest

from spectralflow.cache import CACHE_MAX
from spectralflow.errors import BadModulus, ThetaNotConverged
from spectralflow.theta import ThetaEvaluator

from oracles import heat_equation_residual


@pytest.fixture(scope="module")
def th():
    return ThetaEvaluator(1j)


def test_theta_value_at_origin_oracle(th):
    # independent oracle: direct summation with a fixed window; in closed
    # form theta1'(0|i) = pi theta2 theta3 theta4 = Gamma(1/4)^3/(4 pi^(5/4))
    q = np.arange(-20, 21) + 0.5
    direct = -np.sum(2j * np.pi * q * np.exp(1j * np.pi * q * q * 1j
                                             + 2j * np.pi * q * 0.5))
    assert abs(th.theta1(0.0, 1) - direct) < 1e-15
    assert abs(th.theta1(0.0, 1)
               - math.gamma(0.25) ** 3 / (4 * np.pi ** 1.25)) < 1e-12


def test_quasi_periodicity(th):
    rng = np.random.default_rng(1)
    tau = th.tau
    for _ in range(10):
        w = rng.standard_normal() + 0.4j * rng.standard_normal()
        lhs = th.theta1(w + tau)
        rhs = -np.exp(-1j * np.pi * (2 * w + tau)) * th.theta1(w)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10
        assert abs(th.theta1(w + 1.0) + th.theta1(w)) \
            / abs(th.theta1(w)) < 1e-10


def test_odd_characteristic_vanishing(th):
    # theta1, the odd characteristic, vanishes on the lattice
    for c in (0.0, 1.0, th.tau, 1 + th.tau):
        assert abs(th.theta1(c)) < 1e-12


def test_theta1_oddness(th):
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal() + 0.3j * rng.standard_normal()
        assert abs(th.theta1(v) + th.theta1(-v)) < 1e-12 * abs(th.theta1(v))


def test_heat_equation():
    assert heat_equation_residual(1j, 0.31 + 0.12j) < 1e-6


def test_bad_modulus_rejected():
    with pytest.raises(BadModulus):
        ThetaEvaluator(-1j)


def test_taylor_matches_derivatives(th):
    tay = th.theta1_taylor(0.21 + 0.13j, 8)
    h = 1e-3
    fd2 = (th.theta1(0.21 + 0.13j + h) - 2 * th.theta1(0.21 + 0.13j)
           + th.theta1(0.21 + 0.13j - h)) / h ** 2
    assert abs(2 * tay[2] - fd2) < 1e-5 * max(1.0, abs(fd2))


def _direct_theta1_jet(tau, u, n):
    """Rows k = 0..n of theta1^(k)(u) on the fixed window |m| <= 40."""
    q = np.arange(-40, 41) + 0.5
    u = np.asarray(u, dtype=complex)[..., None]
    terms = np.exp(1j * np.pi * q * q * tau + 2j * np.pi * q * (u + 0.5))
    return np.array([-np.sum((2j * np.pi * q) ** k * terms, axis=-1)
                     for k in range(n + 1)])


@pytest.mark.parametrize("tau", [1j, 0.25 + 1.07j])
def test_theta1_jet_matches_direct_sum(tau):
    th = ThetaEvaluator(tau)
    rng = np.random.default_rng(3)
    us = rng.uniform(-0.6, 0.6, (2, 5)) + 1j * rng.uniform(-0.6, 0.6, (2, 5))
    ref = _direct_theta1_jet(tau, us, 8)
    jet = th.theta1_jet(us, 8)
    assert jet.shape == (9, 2, 5)
    scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(jet - ref) < 1e-13 * scale)
    u = complex(us[0, 0])
    assert np.all(np.abs(th.theta1_jet(u, 8) - ref[:, 0, 0])
                  < 1e-13 * scale[:, 0, 0])
    for k in range(9):
        assert th.theta1(u, k) == th.theta1_jet(u, 8)[k]


def test_theta_sum_refuses_non_convergence():
    # the window cap is reached long before the tail test passes:
    # theta1(1/2) = theta2(0), which is 1000 by the modular transform
    with pytest.raises(ThetaNotConverged):
        ThetaEvaluator(1e-6j).theta1(0.5)


def test_theta1_prime_modular():
    # theta1'(0|i/t) = t^(3/2) theta1'(0|it); at small t the right side
    # underflows (theta1'(0|1000 i) is about e^-785)
    for t in (0.7, 1.3, 2.0):
        lhs = ThetaEvaluator(1j / t).theta1(0.0, 1)
        rhs = t ** 1.5 * ThetaEvaluator(1j * t).theta1(0.0, 1)
        assert abs(lhs - rhs) < 1e-14 * abs(rhs)


def test_theta_cache_bounded():
    th = ThetaEvaluator(1j)
    us = np.linspace(0.1, 0.9, 5000) + 0.3j
    for u in us:
        th.theta1(u)
    assert len(th._cache) == CACHE_MAX
    th.theta1(us, 1)            # array arguments bypass the cache
    assert len(th._cache) == CACHE_MAX


def _reference_sum(tau, u, n, a=0.5):
    """ThetaEvaluator._sum with every term built from scratch on each
    window, as the sum was written before its window tables; returns the
    rows and the window half-widths tried."""
    u = np.asarray(u)[..., None]
    ks = np.arange(n + 1).reshape((-1,) + (1,) * u.ndim)
    ns = np.arange(-8, 9)
    halves = []
    while True:
        halves.append(ns[-1])
        q = ns + a
        expo = 1j * np.pi * q * q * tau + 2j * np.pi * q * (u + a)
        shift = np.max(expo.real, axis=-1)
        terms = np.exp(expo - shift[..., None]) * (2j * np.pi * q) ** ks
        total = np.sum(terms, axis=-1)
        mag = np.abs(terms)
        edge = np.maximum(mag[..., 0], mag[..., -1])
        scale = np.maximum(np.abs(total), np.max(mag, axis=-1))
        if np.all(edge <= 1e-16 * scale):
            return total * np.exp(shift), halves
        ns = np.arange(ns[0] * 2, ns[-1] * 2 + 1)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 1e-3j])
def test_window_tables_reproduce_the_direct_sum(tau):
    # tau = 1e-3 i needs the wide windows (up to 513 terms); there u
    # stays near the real axis, where the sum converges within the cap
    th = ThetaEvaluator(tau)
    rng = np.random.default_rng(4)
    im = 0.01 if abs(tau) < 0.1 else 0.5
    halves = set()
    for n in (0, 3, 34, 75):
        for shape in ((), (3, 4)):
            u = rng.uniform(-0.5, 0.5, shape) \
                + 1j * rng.uniform(-im, im, shape)
            ref, tried = _reference_sum(th.tau, u, n)
            halves.update(tried)
            assert th._sum(u, n).tobytes() == ref.tobytes()
    assert set(th._tables) <= halves
    assert max(halves) >= (256 if abs(tau) < 0.1 else 8)


def test_theta_order_overflow_refused():
    # (2 i pi q)^160 overflows on the second window, |q| <= 16.5
    th = ThetaEvaluator(1j)
    assert np.all(np.isfinite(th.theta1_taylor(0.21 + 0.13j, 150)))
    with pytest.raises(ThetaNotConverged, match="order 160 .* 33 terms"):
        th.theta1_taylor(0.21 + 0.13j, 160)


def test_theta_sum_outside_double_range_refused():
    # theta1 at Im u = 28.5 on Im tau = 0.6 is about e^4250; at Im u = 10
    # it is about e^523 and still a double
    th = ThetaEvaluator(-0.45 + 0.6j)
    assert np.isfinite(th.theta1(1.0 + 10j))
    with pytest.raises(ThetaNotConverged, match="double range"):
        th.theta1(87.81 + 28.5j)
    with pytest.raises(ThetaNotConverged, match="double range"):
        th.theta1_jet(np.array([0.3 + 0.2j, 87.81 + 28.5j]), 2)
    # a high order carries a value past the range nearer the axis: the
    # 60th derivative on tau = i is e^565 at Im u = 10, e^711 at Im u = 12
    th = ThetaEvaluator(1j)
    assert np.all(np.isfinite(th.theta1_jet(0.3 + 10j, 60)))
    with pytest.raises(ThetaNotConverged, match="double range"):
        th.theta1_jet(0.3 + 12j, 60)
