import math

import numpy as np
import pytest

from spectralflow.errors import BadModulus
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
