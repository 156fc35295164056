import math

import numpy as np
import pytest

from spectralflow.cache import CACHE_MAX
from spectralflow.errors import BadModulus, ThetaNotConverged
from spectralflow.theta import ThetaEvaluator, heat_equation_residual


@pytest.fixture(scope="module")
def th():
    return ThetaEvaluator(1j)


def test_theta_value_at_origin_oracle(th):
    # independent oracle: direct summation with a fixed window
    direct = sum(np.exp(1j * np.pi * n * n * 1j) for n in range(-20, 21))
    assert abs(th.theta(0.0) - direct) < 1e-15
    assert abs(th.theta(0.0) - np.pi ** 0.25 / math.gamma(0.75)) < 1e-12


def test_quasi_periodicity(th):
    rng = np.random.default_rng(1)
    tau = th.tau
    for _ in range(10):
        w = rng.standard_normal() + 0.4j * rng.standard_normal()
        lhs = th.theta(w + tau)
        rhs = np.exp(-1j * np.pi * (2 * w + tau)) * th.theta(w)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10
        assert abs(th.theta(w + 1.0) - th.theta(w)) / abs(th.theta(w)) < 1e-10


def test_odd_characteristic_vanishing(th):
    c = (1 + th.tau) / 2
    assert abs(th.theta(c)) < 1e-12
    assert abs(th.theta1(0.0)) < 1e-12


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
    # the window cap is reached long before the tail test passes; the
    # capped sum is 801.08 against the modular value 1000
    with pytest.raises(ThetaNotConverged):
        ThetaEvaluator(1e-6j).theta(0.0)


def test_theta_small_tau_modular():
    t = 1e-3
    lhs = ThetaEvaluator(1j * t).theta(0.0)
    rhs = t ** -0.5 * ThetaEvaluator(1j / t).theta(0.0)
    assert abs(lhs - rhs) < 1e-14 * abs(rhs)


def test_theta_cache_bounded():
    th = ThetaEvaluator(1j)
    us = np.linspace(0.1, 0.9, 5000) + 0.3j
    for u in us:
        th.theta1(u)
    assert len(th._cache) == CACHE_MAX
    th.theta1(us, 1)            # array arguments bypass the cache
    assert len(th._cache) == CACHE_MAX
