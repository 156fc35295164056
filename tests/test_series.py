import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralflow.errors import (
    IncompatibleFrames,
    NotInvertibleAtOrigin,
    OddLeadingExponentForSqrt,
    SpectralFlowError,
    TruncationTooShort,
    ZeroLeadingCoefficient,
)
from spectralflow.series import (
    TruncSeries,
    _series_exp,
    constant,
    from_poly,
    identity,
    truncate,
)


def rand_series(rng, n=20, k_min=0, tag="z"):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TruncSeries(c, k_min, tag)


def max_common_diff(a, b):
    """Max coefficient difference on the common window."""
    lo = max(a.k_min, b.k_min)
    hi = min(a.trunc_order, b.trunc_order)
    return max(abs(a.coeff(k) - b.coeff(k)) for k in range(lo, hi + 1))


# -- basic arithmetic --------------------------------------------------------

def test_geometric_series_inversion():
    # 1/(1 - z) = 1 + z + z^2 + ...
    f = from_poly([1.0, -1.0], order=12)
    g = f.invert()
    assert all(abs(g.coeff(k) - 1.0) < 1e-14 for k in range(0, 13))


def test_exponent_cancellation():
    z = identity(order=8)
    zin = z.invert()
    prod = zin * z
    assert abs(prod.coeff(0) - 1.0) < 1e-15
    assert prod.k_min == 0


def test_sqrt_binomial_oracle():
    # oracle: binomial series for (1+z)^(1/2), term by term
    order = 14
    f = from_poly([1.0, 1.0], order=order)
    s = f.sqrt()
    coeff = 1.0
    for k in range(0, order + 1):
        assert abs(s.coeff(k) - coeff) < 1e-13, k
        coeff *= (0.5 - k) / (k + 1.0)


def test_sqrt_odd_leading_exponent_rejected():
    z = identity(order=6)
    with pytest.raises(OddLeadingExponentForSqrt):
        z.sqrt()


def test_invert_zero_leading_rejected():
    f = TruncSeries(np.array([0.0, 0.0]), 0)
    with pytest.raises(ZeroLeadingCoefficient):
        f.invert()


def test_incompatible_tags_rejected():
    a = rand_series(np.random.default_rng(0), tag="zeta@a")
    b = rand_series(np.random.default_rng(1), tag="zeta@b")
    with pytest.raises(IncompatibleFrames):
        _ = a + b


def test_truncation_is_hard_error():
    f = from_poly([1.0, 2.0], order=4)
    with pytest.raises(TruncationTooShort):
        f.coeff(5)


# -- residues ----------------------------------------------------------------

def test_residue_simple_pole():
    f = TruncSeries(np.array([1.0]), -1)  # 1/z
    assert f.residue() == 1.0


def test_residue_double_pole_is_zero():
    f = TruncSeries(np.array([1.0, 0.0, 0.0]), -2)  # 1/z^2
    assert f.residue() == 0.0


def test_residue_readoff():
    f = TruncSeries(np.array([2.0, 3.0, 0.0, 1.0]), -1)  # 2/z + 3 + z^2
    assert f.residue() == 2.0


def test_residue_unknown_window_errors():
    f = TruncSeries(np.array([1.0]), -3)  # only the z^-3 slot is known
    with pytest.raises(TruncationTooShort):
        f.residue()


def test_residue_vanishes_on_derivatives():
    rng = np.random.default_rng(7)
    f = rand_series(rng, n=16, k_min=-5)
    assert abs(f.differentiate().residue()) == 0.0


# -- ring axioms (property based) ---------------------------------------------

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=6, max_size=12)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(ca, cb, cc):
    a = TruncSeries(np.array(ca) + 0.5, 0)
    b = TruncSeries(np.array(cb) - 0.25j, 0)
    c = TruncSeries(np.array(cc) + 1.0, 0)
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, max(abs(x) for x in lhs.coeffs))
    assert max_common_diff(lhs, rhs) < 1e-12 * scale
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert max_common_diff(lhs, rhs) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(coeff_lists)
def test_invert_roundtrip(cs):
    f = TruncSeries(np.array(cs) + 2.0, 0)
    inv = f.invert()
    g = inv * f
    scale = max(1.0, np.max(np.abs(inv.coeffs)) * np.max(np.abs(f.coeffs)))
    assert abs(g.coeff(0) - 1.0) < 1e-12 * scale
    assert max(abs(g.coeff(k))
               for k in range(1, g.trunc_order + 1)) < 1e-12 * scale


def test_compose_resolves_exp_log():
    # exp(log(1+z)) = 1 + z, with series built from scratch
    order = 12
    k = np.arange(order + 1)
    log1p = TruncSeries(
        np.concatenate([[0.0], (-1.0) ** k[:-1] / (k[1:])]), 0)
    exp = TruncSeries(1.0 / np.array([math.factorial(int(i)) for i in k]), 0)
    comp = exp.compose(truncate(log1p, order + 1))
    assert abs(comp.coeff(0) - 1.0) < 1e-12
    assert abs(comp.coeff(1) - 1.0) < 1e-12
    assert max(abs(comp.coeff(j)) for j in range(2, comp.trunc_order + 1)) < 1e-10


def test_compose_window_stops_at_the_outer_series_knowledge():
    # (1 + z + z^2 + O(z^3))(w + O(w^11)): the O(z^3) term starts at w^3;
    # with a valuation-2 inner it starts at w^6
    f = TruncSeries([1.0, 1.0, 1.0])
    comp = f.compose(identity(order=10))
    assert comp.trunc_order == 2
    assert [comp.coeff(k) for k in range(3)] == [1.0, 1.0, 1.0]
    with pytest.raises(TruncationTooShort):
        comp.coeff(3)
    assert f.compose(identity(order=10) ** 2).trunc_order == 5
    # a Laurent outer known through z^-1 knows nothing at w^0
    g = TruncSeries([2.0, 1.0], -2)
    assert g.compose(identity(order=10)).trunc_order == -1


def test_compose_needs_inner_vanishing_at_origin():
    # f(inner) with inner = 1 + z: inner(0) != 0
    f = from_poly([1.0, 2.0], order=6)
    with pytest.raises(NotInvertibleAtOrigin):
        f.compose(from_poly([1.0, 1.0], order=6))


def test_antiderivative_inverts_derivative():
    rng = np.random.default_rng(11)
    f = rand_series(rng, n=15, k_min=2)
    g = f.differentiate().antiderivative()
    assert max_common_diff(f, g) < 1e-13


def test_bad_input_refused_with_library_error():
    # no bare ValueError: a 2-D or empty coefficient array, exp of a
    # series with a constant term
    for coeffs in (np.ones((2, 2)), []):
        with pytest.raises(SpectralFlowError, match="coefficient"):
            TruncSeries(coeffs)
    with pytest.raises(SpectralFlowError, match="constant term"):
        _series_exp(TruncSeries([0.5, 1.0]))
