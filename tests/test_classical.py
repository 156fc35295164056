import importlib
from pathlib import Path

import numpy as np
import pytest

from spectralflow.classical import (
    ClassicalSystem,
    _relative,
    ode_matrix,
    sato_residual,
    self_replication_residual,
    time_shift_of_third_kind,
)
from spectralflow.curve import Frame, Genus0Curve, Genus1Curve, RationalFunction
from spectralflow import cache
from spectralflow.errors import (
    CoincidentPoints,
    NearBranchPoint,
    PsiOutOfRange,
    TruncationTooShort,
)
from spectralflow.forms import BergmanLeg, SumForm, ThirdKind, YdX, expansion
from spectralflow.geometry import basis_form, line_integral

from oracles import ode_growth_probe, ode_matrix_fd


@pytest.fixture(scope="module")
def sys_airy(airy):
    return ClassicalSystem(airy, YdX(airy))


@pytest.fixture(scope="module")
def sys_torus(torus):
    return ClassicalSystem(torus, YdX(torus))


@pytest.fixture(scope="module")
def cubic_system():
    cv = Genus0Curve(RationalFunction([0, -3, 0, 1]), RationalFunction([0, 1]))
    return ClassicalSystem(cv, YdX(cv))


def random_x(curve, rng):
    if curve.genus == 0:
        while True:
            x = rng.uniform(1.5, 5) + 1j * rng.uniform(0.5, 3)
            if not curve.check_near_branch(x):
                return x
    # keep both sheets well away from the poles of omega (the kernel's
    # essential factor e^{int chi} must stay inside float range)
    while True:
        u = rng.uniform(0.3, 0.47) + 1j * rng.uniform(0.3, 0.47)
        x = curve.x_value(u)
        if not curve.check_near_branch(x):
            return x


# -- kernel basics -------------------------------------------------------------

def test_genus0_kernel_closed_form(sys_airy):
    z1, z2 = 1.5 + 0.4j, -0.8 + 1.1j
    # psi = e^{(2/3)(z1^3 - z2^3)}/(z1 - z2) for Y dX = 2 z^2 dz
    target = np.exp(2.0 / 3.0 * (z1 ** 3 - z2 ** 3)) / (z1 - z2)
    assert abs(sys_airy.psi(z1, z2) - target) < 1e-10 * abs(target)


def test_normalization_limit(sys_airy, sys_torus, rng):
    # E psi -> 1 on the diagonal, linearly at rate |chi(z2)|
    for sysm in (sys_airy, sys_torus):
        z2 = 1.1 + 0.8j if sysm.curve.genus == 0 else 0.31 + 0.27j
        scale = abs(sysm.chi.value(z2))
        vals = []
        for h in (1e-4, 1e-6):
            E = sysm.curve.prime_form(z2 + h - z2)
            vals.append(abs(E * sysm.psi(z2 + h, z2) - 1.0))
        assert vals[1] < 1e-8 + 10 * scale * 1e-6
        assert vals[1] < 0.05 * vals[0]


def test_psi_on_diagonal_refused(sys_airy, sys_torus):
    for sysm, z in ((sys_airy, 1.1 + 0.8j), (sys_torus, 0.31 + 0.27j)):
        with pytest.raises(CoincidentPoints):
            sysm.psi(z, z)


def test_psi_outside_float_range_refused(sys_torus):
    # int chi is 670.2 at z1 and -67.9 at z2: psi needs e^738
    z1, z2 = 0.1877 + 0.1336j, 0.7500 + 0.4314j
    with pytest.raises(PsiOutOfRange):
        sys_torus.psi(z1, z2)
    with pytest.raises(PsiOutOfRange):
        sys_torus.cd_reconstruction_residual(z1, z2)
    x1, x2 = (sys_torus.curve.x_value(z) for z in (z1, z2))
    with pytest.raises(PsiOutOfRange):
        sys_torus.psi_matrix(x1, x2)
    c1, G, c2 = sys_torus.psi_matrix_factored(x1, x2)
    assert np.all(np.isfinite(G))


@pytest.mark.parametrize("which", ["airy", "torus"])
def test_factored_psi_matrix_matches_psi_matrix(which, sys_airy, sys_torus,
                                                rng):
    sysm = {"airy": sys_airy, "torus": sys_torus}[which]
    for _ in range(5):
        x1, x2 = (random_x(sysm.curve, rng) for _ in range(2))
        c1, G, c2 = sysm.psi_matrix_factored(x1, x2)
        M = sysm.psi_matrix(x1, x2)
        full = np.exp(c1)[:, None] * G * np.exp(-c2)[None, :]
        assert np.all(np.abs(full - M) <= 1e-14 * np.abs(M))


def test_chi_primitive_cache_bounded(airy, monkeypatch):
    monkeypatch.setattr(cache, "CACHE_MAX", 16)
    sysm = ClassicalSystem(airy, YdX(airy))
    zs = 1.1 + 0.8j + 0.01 * np.arange(40)
    first = sysm._chi_from_base(zs[0])
    for z in zs:
        sysm._chi_from_base(z)
    assert len(sysm._chi_primitive_cache) == 16
    # the oldest point was evicted, and comes back the same
    assert complex(zs[0]) not in sysm._chi_primitive_cache
    assert sysm._chi_from_base(zs[0]) == first


def test_chi_batch_past_the_cache_bound(airy, torus, monkeypatch):
    # a batch larger than the cache returns its own values: the first of
    # them are evicted before the batch is done storing.  Each equals its
    # point computed alone, bit for bit; the quadrature comparison is
    # test_chi_primitive_matches_quadrature
    monkeypatch.setattr(cache, "CACHE_MAX", 16)
    for curve, zs in ((airy, 1.1 + 0.8j + 0.01 * np.arange(20)),
                      (torus, 0.2 + 0.3j + 0.03 * np.arange(20))):
        form = _tame(curve) if curve.genus else YdX(curve)
        sysm = ClassicalSystem(curve, form)
        got = sysm._chi_from_base(list(zs))
        assert len(sysm._chi_primitive_cache) == 16
        ref = [ClassicalSystem(curve, form)._chi_from_base(z) for z in zs]
        assert got.tobytes() == np.array(ref).tobytes()


def _tame(curve):
    """The benchmark's tame torus form: residues +-0.7 and a second-kind
    pole; on the sphere, residues +-0.7 beside Y dX."""
    if curve.genus == 0:
        return SumForm([(0.7, ThirdKind(curve, 0.5 + 0.3j, -0.4 + 0.9j)),
                        (1.0, YdX(curve))])
    return SumForm([(0.7, ThirdKind(curve, 0.21 + 0.33j, 0.68 + 0.52j)),
                    (0.4, basis_form(curve, 0.41 + 0.13j, 1))])


_TAU2 = 0.25 + 1.07j
# (curve, form) pairs of the closed-form oracles
_CLOSED_CASES = ["airy-ydx", "joukowski-ydx", "joukowski-tame", "torus-ydx",
                 "torus-tame", "tau2-ydx", "tau2-tame"]


def _closed_case(which, airy, joukowski, torus):
    name, form = which.split("-")
    curve = {"airy": airy, "joukowski": joukowski, "torus": torus,
             "tau2": _torus_at(_TAU2)}[name]
    return curve, (YdX(curve) if form == "ydx" else _tame(curve))


def _torus_at(tau):
    return Genus1Curve(tau, RationalFunction([0.0]), RationalFunction([0.5]))


def _closed_points(curve, count=16):
    rng = np.random.default_rng(20261019)
    if curve.genus:
        return rng.uniform(0, 1, count) + rng.uniform(0, 1, count) * curve.tau
    return rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)


@pytest.mark.parametrize("which", _CLOSED_CASES)
def test_chi_primitive_matches_quadrature(which, airy, joukowski, torus):
    # measured: at most 1.0e-14 of max(1, |int chi|) over these cases
    curve, form = _closed_case(which, airy, joukowski, torus)
    sysm = ClassicalSystem(curve, form)
    zs = _closed_points(curve)
    ref = line_integral(curve, sysm.chi, sysm.o, zs)
    err = np.abs(sysm._chi_from_base(zs) - ref) / np.maximum(1, np.abs(ref))
    assert err.max() < 1e-13


@pytest.mark.parametrize("which", ["joukowski-tame", "torus-tame",
                                   "tau2-tame"])
def test_chi_primitive_needs_the_winding(which, airy, joukowski, torus,
                                         monkeypatch):
    # the principal log E jumps by 2 i pi at some of the points, which
    # the segment from o does not cross: with log E's change along the
    # segment taken as the principal one, those points miss the
    # quadrature by 2 pi t_0 = 4.4 (t_0 = +-0.7)
    curve, form = _closed_case(which, airy, joukowski, torus)
    sysm = ClassicalSystem(curve, form)
    zs = _closed_points(curve)
    ref = line_integral(curve, sysm.chi, sysm.o, zs)

    def principal(a, b):
        return curve._log_prime_jet(b, 0)[0] - curve._log_prime_jet(a, 0)[0]
    monkeypatch.setattr(curve, "_log_prime_rise", principal)
    miss = np.abs(sysm._chi_from_base(zs) - ref)
    assert 0 < np.sum(miss > 1.0) < len(zs)
    assert np.allclose(miss[miss > 1.0], 2 * np.pi * 0.7)


@pytest.mark.parametrize("tau", [1j, _TAU2])
def test_eps_and_zeta_match_quadrature(tau):
    from oracles import quadrature_period
    curve = _torus_at(tau)
    for form in (YdX(curve), _tame(curve)):
        sysm = ClassicalSystem(curve, form)
        eps = quadrature_period(curve, form, "a") / (2j * np.pi)
        zeta = quadrature_period(curve, sysm.chi, "b") / (2j * np.pi)
        # measured: 4.8e-14 (eps) and 2.0e-13 (zeta, |zeta| = 37.8)
        assert abs(sysm.expansion.eps[0] - eps) < 1e-12 * max(1, abs(eps))
        assert abs(sysm.expansion.zeta - zeta) < 1e-12 * max(1, abs(zeta))


def test_classical_system_makes_no_quadrature_call(monkeypatch):
    from spectralflow import quadrature
    from spectralflow.errors import QuadratureNotConverged

    def refuse(f, segments):
        raise QuadratureNotConverged("a library path called quadrature")
    monkeypatch.setattr(quadrature, "integrate_segments", refuse)
    torus = _fresh_torus()
    ydx, tame = ClassicalSystem(torus, YdX(torus)), \
        ClassicalSystem(torus, _tame(torus))
    xs = [torus.x_value(u) for u in (0.33 + 0.41j, 0.44 + 0.36j,
                                     0.38 + 0.31j)]
    assert np.isfinite(tame.lax_matrix(xs[0], xs[1])).all()
    assert ydx.duality_residual(*xs) < 1e-8
    for sysm in (ydx, tame):
        Psi, Phi = sysm.ba_matrices(xs[2])
        assert np.isfinite(Psi).all() and np.isfinite(Phi).all()
    with pytest.raises(QuadratureNotConverged):
        ydx.b_loop_transport_residual(0.31 + 0.22j, 0.12 + 0.41j)


def test_ydx_primitive_one_jet_per_batch():
    # Y dX on tau = i has t_1 and t_5 at u = 0: the expansion holds one
    # kernel atom there, and a primitive batch takes one jet of log E
    torus = _fresh_torus()
    sysm = ClassicalSystem(torus, YdX(torus))
    jet, calls = torus._log_prime_jet, []

    def counted(c, n, *rest):
        calls.append(n)
        return jet(c, n, *rest)
    torus._log_prime_jet = counted
    sysm._chi_from_base(0.3 + 0.4j + 0.05 * np.arange(4))
    assert calls == [5]


def test_truncated_expansion_refused(torus):
    # wp^11 du has a pole of order 22 at 0, past j_cap = order - 4 = 20:
    # the point values of eps at two basepoints then disagree
    from deformations import WpPolyDu
    with pytest.raises(TruncationTooShort, match="j_cap = 20"):
        ClassicalSystem(torus, WpPolyDu(torus, [0.0] * 11 + [1.0]))
    ClassicalSystem(torus, WpPolyDu(torus, [0.0] * 10 + [1.0]))


def _fresh_torus():
    """The conftest torus, built anew so that its sheet cache is empty."""
    return Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))


def _count_sheet_solves(curve, monkeypatch):
    solve, calls = curve.sheets_above, []

    def counted(x, *args):
        calls.append(x)
        return solve(x, *args)
    monkeypatch.setattr(curve, "sheets_above", counted)
    return calls


def test_sheet_data_cache_bounded(monkeypatch):
    monkeypatch.setattr(cache, "CACHE_MAX", 16)
    torus = _fresh_torus()
    sysm = ClassicalSystem(torus, YdX(torus))
    calls = _count_sheet_solves(torus, monkeypatch)
    xs = [torus.x_value(0.31 + 0.008 * k + 0.4j) for k in range(20)]
    for x in xs + xs[-16:]:
        sysm.sheet_data(x)
    assert len(calls) == 20 and len(torus.sheet_cache) == 16
    sysm.sheet_data(xs[0])          # evicted, so solved again
    assert len(calls) == 21


def test_systems_on_one_curve_share_sheets(monkeypatch):
    torus = _fresh_torus()
    ydx = ClassicalSystem(torus, YdX(torus))
    tame = ClassicalSystem(torus, SumForm(
        [(0.7, ThirdKind(torus, 0.21 + 0.33j, 0.68 + 0.52j))]))
    calls = _count_sheet_solves(torus, monkeypatch)
    xs = [torus.x_value(u) for u in (0.33 + 0.41j, 0.44 + 0.36j,
                                     0.38 + 0.31j)]
    ydx.duality_residual(*xs)
    tame.inverse_relation_residual(xs[0], xs[1])
    tame.lax_matrix(xs[2], xs[0])
    assert sorted(calls, key=abs) == sorted(xs, key=abs)


def test_warm_psi_matrix_is_bit_identical(torus):
    x1, x2 = torus.x_value(0.33 + 0.41j), torus.x_value(0.44 + 0.36j)
    cold = ClassicalSystem(torus, YdX(torus)).psi_matrix(x1, x2)
    warm = ClassicalSystem(torus, YdX(torus))
    warm.psi_matrix(x2, x1)
    assert warm.psi_matrix(x1, x2).tobytes() == cold.tobytes()
    (s1, r1), (s2, r2) = warm.sheet_data(x1), warm.sheet_data(x2)
    single = [[warm.psi(zi, zj) / (r1[i] * r2[j])
               for j, zj in enumerate(s2.preimages)]
              for i, zi in enumerate(s1.preimages)]
    assert np.array(single).tobytes() == cold.tobytes()


# -- the sheet-block memo -------------------------------------------------------

def _airy_xs(count):
    return [2.1 + 0.9j + 0.13 * k + 0.07j * k * k for k in range(count)]


def test_psi_block_memo_bounded(airy, monkeypatch):
    monkeypatch.setattr(cache, "CACHE_MAX", 4)
    sysm = ClassicalSystem(airy, YdX(airy))
    xs = _airy_xs(11)
    first = sysm.psi_matrix(xs[0], xs[1])
    for a, b in zip(xs[1:], xs[2:]):
        sysm.psi_matrix(a, b)
    assert len(sysm._psi_blocks) == 4
    # the oldest pair was evicted, and comes back the same
    assert (complex(xs[0]), complex(xs[1])) not in sysm._psi_blocks
    assert sysm.psi_matrix(xs[0], xs[1]).tobytes() == first.tobytes()
    # a call reading more pairs than the memo holds takes its own blocks
    monkeypatch.setattr(cache, "CACHE_MAX", 2)
    small = ClassicalSystem(airy, YdX(airy))
    got = small.duality_residual(*xs[3:6])
    assert len(small._psi_blocks) == 2
    assert got == ClassicalSystem(airy, YdX(airy)).duality_residual(*xs[3:6])


def test_refused_psi_block_not_stored(airy, torus):
    sysm = ClassicalSystem(airy, YdX(airy))
    x1, x2 = _airy_xs(2)
    with pytest.raises(CoincidentPoints):
        sysm.psi_matrix(x1, x1)
    with pytest.raises(CoincidentPoints):
        sysm.duality_residual(x1, x2, x2)
    with pytest.raises(NearBranchPoint):
        sysm.psi_matrix(x1, 0.0)          # X = z^2 branches at x = 0
    assert len(sysm._psi_blocks) == 0
    # e^738 is refused by psi_matrix and stores nothing; the factored
    # block stays in range, is stored, and psi_matrix still refuses it
    tor = ClassicalSystem(torus, YdX(torus))
    x1, x2 = (torus.x_value(z) for z in (0.1877 + 0.1336j, 0.75 + 0.4314j))
    with pytest.raises(PsiOutOfRange):
        tor.psi_matrix(x1, x2)
    assert len(tor._psi_blocks) == 0
    tor.psi_matrix_factored(x1, x2)
    assert len(tor._psi_blocks) == 1
    with pytest.raises(PsiOutOfRange):
        tor.psi_matrix(x1, x2)


def test_psi_blocks_read_only(airy):
    sysm = ClassicalSystem(airy, YdX(airy))
    x1, x2 = _airy_xs(2)
    M = sysm.psi_matrix(x1, x2)
    (block,) = sysm._psi_blocks.values()
    assert len(block) == 4
    assert not any(a.flags.writeable for a in block)
    # what a read returns is the caller's own
    M[0, 0] += 1.0
    assert sysm.psi_matrix(x1, x2)[0, 0] == M[0, 0] - 1.0


def test_duality_reads_one_theta_sum_and_one_chi_batch(monkeypatch):
    torus = _fresh_torus()
    sysm = ClassicalSystem(torus, YdX(torus))
    xs = [torus.x_value(u) for u in (0.33 + 0.41j, 0.44 + 0.36j,
                                     0.38 + 0.31j)]
    sums, batches = [], []
    grid, primitive = torus.szego_grid, sysm.expansion.basis.primitive

    def counted_grid(v, zeta):
        sums.append(np.shape(v))
        return grid(v, zeta)

    def counted_primitive(o, zs):
        batches.append(len(zs))
        return primitive(o, zs)
    monkeypatch.setattr(torus, "szego_grid", counted_grid)
    monkeypatch.setattr(sysm.expansion.basis, "primitive", counted_primitive)
    first = sysm.duality_residual(*xs)
    # three 2 x 2 blocks; the chi batch holds the 6 distinct preimages
    assert sums == [(3, 2, 2)] and batches == [6]
    assert sysm.duality_residual(*xs) == first
    assert sums == [(3, 2, 2)] and batches == [6]


@pytest.mark.parametrize("which", ["airy", "torus", "tau2"])
def test_stacked_psi_blocks_match_single_reads(which, airy, torus):
    # a block read beside others has the bits of one read alone: theta
    # jets, chi primitives and the Szego factor are elementwise in the batch
    curve = {"airy": airy, "torus": torus, "tau2": _torus_at(_TAU2)}[which]
    rng = np.random.default_rng(5)
    for _ in range(6):
        xs = [random_x(curve, rng) for _ in range(3)]
        stacked = ClassicalSystem(curve, YdX(curve))
        stacked.duality_residual(*xs)
        for pair in ((xs[0], xs[1]), (xs[1], xs[2]), (xs[0], xs[2])):
            single = ClassicalSystem(curve, YdX(curve)).psi_matrix(*pair)
            assert stacked.psi_matrix(*pair).tobytes() == single.tobytes()


def test_psi_reads_theta_near_the_real_axis():
    # on this curve zeta = 87.8 + 28.5i sits 47 periods up, where theta1
    # is e^4250: psi reads theta at zeta - 47 tau and carries the
    # quasi-period factor in its exponents.  alpha of the refined duality
    # is the same at zeta - 47 tau, so it is read there too (at zeta
    # itself theta leaves the double range)
    curve = _torus_at(-0.45 + 0.6j)
    sysm = ClassicalSystem(curve, YdX(curve))
    rng = np.random.default_rng(1)
    for _ in range(5):
        xs = [curve.x_value(complex(rng.uniform(0.2, 0.45),
                                    rng.uniform(0.2, 0.45)))
              for _ in range(3)]
        assert np.all(np.isfinite(sysm.psi_matrix(xs[0], xs[1])))
        assert sysm.duality_residual(*xs) < 1e-11
    assert sysm.refined_duality_residual(0.3 + 0.25j, 0.22 + 0.4j,
                                         0.41 + 0.33j) < 1e-12


def test_psi_oracles_read_theta_near_the_real_axis():
    # zeta = 87.8 + 28.5i sits 47 periods up: the B-loop oracle and the
    # tau function of sato_residual read theta1 at zeta - 47 tau with its
    # quasi-period factor (at zeta itself both were refused,
    # ThetaNotConverged).  Measured: the B-loop 3.3e-12 to 4.2e-12, Sato
    # 1.5e-11 to 4.4e-11; where psi is refused, both are refused as psi
    curve = _torus_at(-0.45 + 0.6j)
    w = YdX(curve)
    sysm = ClassicalSystem(curve, w)
    rng = np.random.default_rng(1)
    pairs = [(0.31 + 0.22j, 0.12 + 0.41j)] + [
        (complex(rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.45)),
         complex(rng.uniform(0.55, 0.8), rng.uniform(0.2, 0.45)))
        for _ in range(5)]
    refused = 0
    for z1, z2 in pairs:
        try:
            sysm.psi(z1, z2)
        except PsiOutOfRange:
            refused += 1
            with pytest.raises(PsiOutOfRange):
                sysm.b_loop_transport_residual(z1, z2)
            with pytest.raises(PsiOutOfRange):
                sato_residual(curve, w, z1, z2)
            continue
        assert sysm.b_loop_transport_residual(z1, z2) < 1e-10
        res, ratio = sato_residual(curve, w, z1, z2)
        assert res < 1e-9 and abs(abs(ratio) - 1.0) < 1e-9
    assert refused == 1


def test_b_cycle_single_valuedness(sys_torus):
    res = sys_torus.b_loop_transport_residual(0.31 + 0.22j, 0.12 + 0.41j)
    assert res < 1e-8


def test_a_cycle_normalization_of_chi(sys_torus):
    from spectralflow.geometry import canonical_period
    val = canonical_period(sys_torus.curve, sys_torus.chi, "a")
    assert abs(val) < 1e-8


# -- duality ----------------------------------------------------------------------

@pytest.mark.parametrize("which", ["airy", "torus"])
def test_duality(which, sys_airy, sys_torus, rng):
    sysm = {"airy": sys_airy, "torus": sys_torus}[which]
    for _ in range(20):
        xs = [random_x(sysm.curve, rng) for _ in range(3)]
        if min(abs(xs[0] - xs[1]), abs(xs[1] - xs[2]),
               abs(xs[0] - xs[2])) < 0.2:
            continue
        assert sysm.duality_residual(*xs) < 1e-8


@pytest.mark.parametrize("which", ["airy", "torus"])
def test_inverse_relation(which, sys_airy, torus, rng):
    # the Y dX form on the torus spreads the sheet matrices over ~60
    # orders of magnitude (zeta ~ -38i), drowning the off-diagonal
    # zeros; a tame form probes the same identity at full precision
    if which == "airy":
        sysm = sys_airy
    else:
        from spectralflow.geometry import basis_form
        tame = SumForm([(0.7, ThirdKind(torus, 0.21 + 0.33j,
                                        0.68 + 0.52j)),
                        (0.4, basis_form(torus, 0.41 + 0.13j, 1))])
        sysm = ClassicalSystem(torus, tame)
    x1, x2 = (random_x(sysm.curve, rng) for _ in range(2))
    assert sysm.inverse_relation_residual(x1, x2) < 1e-8


@pytest.mark.parametrize("which", ["airy", "torus"])
def test_refined_duality(which, sys_airy, sys_torus, rng):
    sysm = {"airy": sys_airy, "torus": sys_torus}[which]
    count = 0
    while count < 10:
        if sysm.curve.genus == 0:
            pts = rng.uniform(0.6, 2.4, 3) + 1j * rng.uniform(0.4, 2.0, 3)
        else:
            pts = rng.uniform(0.08, 0.6, 3) + 1j * rng.uniform(0.08, 0.6, 3)
        if min(abs(pts[0] - pts[1]), abs(pts[1] - pts[2]),
               abs(pts[0] - pts[2])) < 0.15:
            continue
        assert sysm.refined_duality_residual(*pts) < 1e-9
        count += 1


def test_refined_duality_pole_matching(sys_torus):
    # z -> z1: both sides carry the simple pole, residue -psi(z1,z2)
    z1, z2 = 0.31 + 0.22j, 0.12 + 0.41j
    scale = abs(sys_torus.chi.value(z1))
    h = 1e-7
    lhs = sys_torus.psi(z1, z1 + h) * sys_torus.psi(z1 + h, z2)
    target = -sys_torus.psi(z1, z2) / h
    assert abs(lhs / target - 1.0) < 1e-4 + 10 * scale * h


# -- Baker-Akhiezer / Christoffel-Darboux --------------------------------------------

def test_cd_x_independence(sys_airy, cubic_system, sys_torus, rng):
    for sysm in (sys_airy, cubic_system, sys_torus):
        xs = [random_x(sysm.curve, rng) for _ in range(5)]
        mats = [sysm.cd_matrix(x) for x in xs]
        scale = np.abs(mats[0]).max()
        for M in mats[1:]:
            assert np.abs(M - mats[0]).max() / scale < 1e-8


def test_cd_block_structure(cubic_system):
    # one pole of X of order 3: inverted-triangular block with nonzero
    # antidiagonal
    A = cubic_system.cd_matrix(4.1 + 2.3j)
    d = A.shape[0]
    scale = np.abs(A).max()
    for i in range(d):
        for j in range(d):
            if i + j < d - 1:          # above the antidiagonal
                assert abs(A[i, j]) < 1e-9 * scale
    for i in range(d):
        assert abs(A[i, d - 1 - i]) > 1e-6 * scale


def test_cd_antidiagonal_values(sys_airy, cubic_system):
    from math import factorial
    for sysm in (sys_airy, cubic_system):
        A = sysm.cd_matrix(3.7 + 1.9j)
        d = A.shape[0]
        # rows carry the dual index k', columns the direct index k
        for r in range(d):
            kp, k = r + 1, d - r
            target = (-1.0) ** kp * factorial(kp - 1) * factorial(k - 1)
            assert abs(A[r, d - 1 - r] - target) < 1e-10 * max(1, abs(target))


def test_cd_reconstruction(sys_airy, cubic_system, sys_torus, rng):
    for sysm in (sys_airy, cubic_system, sys_torus):
        for _ in range(20):
            if sysm.curve.genus == 0:
                z1 = rng.uniform(0.8, 2.2) + 1j * rng.uniform(0.4, 1.8)
                z2 = -rng.uniform(0.8, 2.2) + 1j * rng.uniform(0.4, 1.8)
            else:
                # as in random_x, away from the pole of omega at u = 0,
                # where psi's e^{int chi} leaves float range; Im u keeps
                # z2 off -z1, the other sheet above X(z1)
                z1 = rng.uniform(0.3, 0.47) + 1j * rng.uniform(0.3, 0.47)
                z2 = rng.uniform(0.53, 0.7) + 1j * rng.uniform(0.3, 0.47)
            assert sysm.cd_reconstruction_residual(z1, z2) < 1e-8


def test_cd_reconstruction_reads_theta_near_the_real_axis():
    # zeta = 87.8 + 28.5i sits 47 periods up: the Baker-Akhiezer series
    # read theta at zeta itself and were refused (ThetaNotConverged).
    # At zeta - 47 tau they meet psi (measured 7.9e-13 to 1.9e-12), or
    # are refused as psi is, where e^{int chi} leaves the double range
    curve = _torus_at(-0.45 + 0.6j)
    sysm = ClassicalSystem(curve, YdX(curve))
    rng = np.random.default_rng(1)
    refused = 0
    for _ in range(5):
        z1 = complex(rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.45))
        z2 = complex(rng.uniform(0.55, 0.8), rng.uniform(0.2, 0.45))
        try:
            sysm.psi(z1, z2)
        except PsiOutOfRange:
            refused += 1
            with pytest.raises(PsiOutOfRange):
                sysm.cd_reconstruction_residual(z1, z2)
            continue
        assert sysm.cd_reconstruction_residual(z1, z2) < 1e-10
    assert refused == 1


# -- Lax ------------------------------------------------------------------------------

def test_lax_trace_and_charpoly(sys_airy, torus, rng):
    # the torus case runs with a tame form: the sheet matrices for
    # Y dX carry e^{int chi} factors of order e^{100} whose condition
    # number exceeds the inversion guard
    from spectralflow.geometry import basis_form
    tame = SumForm([(0.7, ThirdKind(torus, 0.21 + 0.33j, 0.68 + 0.52j)),
                    (0.4, basis_form(torus, 0.41 + 0.13j, 1))])
    systems = (sys_airy, ClassicalSystem(torus, tame))
    for sysm in systems:
        for _ in range(5):
            x1, x = (random_x(sysm.curve, rng) for _ in range(2))
            if abs(x1 - x) < 0.3:
                continue
            L = sysm.lax_matrix(x1, x)
            sh, _ = sysm.sheet_data(x)
            tr = sum(sysm.curve.y_value(z) for z in sh.preimages)
            assert abs(np.trace(L) - tr) < 1e-8 * max(1.0, abs(tr))
            ys = [rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                  for _ in range(2)]
            assert sysm.charpoly_residual(x1, x, ys) < 1e-8


def test_lax_conjugation_covariance(sys_airy, rng):
    x1, x1b, x = 2.1 + 0.9j, 1.7 - 0.5j, 3.4 - 1.2j
    L = sys_airy.lax_matrix(x1, x)
    L2 = sys_airy.lax_matrix(x1b, x)
    C = sys_airy.psi_matrix(x1b, x1)
    pred = C @ L @ np.linalg.inv(C)
    assert np.abs(L2 - pred).max() / np.abs(L2).max() < 1e-8


def test_lax_isospectral_under_time_flow(airy, rng):
    # charpoly coefficients invariant under omega-deformation to O(h^2)
    w = YdX(airy)
    x1, x = 2.1 + 0.9j, 3.4 - 1.2j
    y = 0.7 + 0.2j
    base = ClassicalSystem(airy, w)
    sh, _ = base.sheet_data(x)
    deltas = []
    for h in (1e-3, 1e-4):
        from spectralflow.geometry import basis_form
        pert = SumForm([(1.0, w), (h, basis_form(airy, "inf", 1))])
        sysm = ClassicalSystem(airy, pert)
        L = sysm.lax_matrix(x1, x)
        L0 = base.lax_matrix(x1, x)
        d = abs(np.linalg.det(y * np.eye(2) - L)
                - np.linalg.det(y * np.eye(2) - L0))
        deltas.append(d)
    # quadratic (here exact) suppression
    assert deltas[1] < max(1e-10, 0.05 * deltas[0] + 1e-12)


# -- tau function and Sato -----------------------------------------------------------

def test_sato_time_shift_structure(airy):
    w = YdX(airy)
    z1, z2 = 1.8 + 0.7j, -1.1 + 1.3j
    shifts = time_shift_of_third_kind(airy, w, z1, z2)
    assert abs(shifts[complex(z1)][0] - 1.0) < 1e-10
    assert abs(shifts[complex(z2)][0] + 1.0) < 1e-10
    assert np.abs(shifts["inf"]).max() < 1e-10


def test_sato_quadratic_exactness(airy):
    # F0(omega + lam dS) is exactly quadratic in lam
    w = YdX(airy)
    ds = ThirdKind(airy, 1.8 + 0.7j, -1.1 + 1.3j)
    vals = []
    for lam in (0.0, 0.5, 1.0, 1.5):
        form = SumForm([(1.0, w), (lam, ds)]) if lam else w
        vals.append(expansion(airy, form).F0(basepoint=0.73 + 0.58j))
    # third finite difference of a quadratic vanishes
    d3 = vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]
    assert abs(d3) < 1e-8 * max(1.0, abs(vals[0]))


def test_sato_residual_expands_twice(monkeypatch, torus):
    # omega's one expansion serves psi_cl and F0(omega), and omega + dS
    # has the other
    from spectralflow import classical
    calls = []

    def counted(curve, form):
        calls.append(form)
        return expansion(curve, form)
    monkeypatch.setattr(classical, "expansion", counted)
    res, _ = sato_residual(torus, YdX(torus), 0.31 + 0.22j, 0.72 + 0.31j)
    assert len(calls) == 2 and res < 1e-7


@pytest.mark.parametrize("which", ["airy", "joukowski", "torus"])
def test_sato_relation(which, airy, joukowski, torus, rng):
    curve = {"airy": airy, "joukowski": joukowski, "torus": torus}[which]
    w = YdX(curve)
    count = 0
    while count < 3:
        if curve.genus == 0:
            z1 = rng.uniform(1.0, 2.0) + 1j * rng.uniform(0.5, 1.5)
            z2 = -rng.uniform(1.0, 2.0) + 1j * rng.uniform(0.5, 1.5)
        else:
            z1 = rng.uniform(0.1, 0.45) + 1j * rng.uniform(0.1, 0.45)
            z2 = rng.uniform(0.55, 0.9) + 1j * rng.uniform(0.1, 0.45)
        res, ratio = sato_residual(curve, w, z1, z2)
        assert res < 1e-7
        assert abs(abs(ratio) - 1.0) < 1e-7
        count += 1


# -- bilinear difference relation ------------------------------------------------------

@pytest.mark.parametrize("which", ["airy", "torus"])
def test_self_replication(which, airy, torus, rng):
    # measured over the first 20 draws: at most 1.8e-15 on Airy and
    # 8.4e-14 on tau = i, where |target| spans 6e-306 to 1.5e248
    curve = {"airy": airy, "torus": torus}[which]
    w = YdX(curve)
    count = 0
    while count < 10:
        if curve.genus == 0:
            pts = rng.uniform(0.8, 2.2, 3) + 1j * rng.uniform(0.4, 1.8, 3)
            pts[1] = -pts[1]
        else:
            pts = rng.uniform(0.1, 0.8, 3) + 1j * rng.uniform(0.1, 0.45, 3)
        z, z1, z2 = pts
        if min(abs(z - z1), abs(z - z2), abs(z1 - z2)) < 0.25:
            continue
        assert self_replication_residual(curve, w, z, z1, z2) < 1e-12
        count += 1
    if curve.genus:
        # |psi(z1, z2)| is 1.0e-113 here: a residual floored at 1e-30
        # read 5.5e-92 and checked nothing; relative to |target| it
        # reads 3.0e-14
        assert self_replication_residual(curve, w, 0.458 + 0.432j,
                                         0.765 + 0.209j,
                                         0.201 + 0.248j) < 1e-12


@pytest.mark.parametrize("target", [0.0, np.inf, np.nan])
def test_residual_against_nothing_refused(target):
    with pytest.raises(PsiOutOfRange):
        _relative(1e-300, np.array([target, 0.0]), "a check")
    assert _relative(1e-300, 1e-200, "a check") == pytest.approx(1e-100)


def test_self_replication_pole_matching(sys_airy):
    # z -> z1: both sides share the leading pole structure
    z1, z2 = 1.8 + 0.7j, -1.1 + 1.3j
    h = 1e-4
    lhs = -sys_airy.psi(z1, z1 + h) * sys_airy.psi(z1 + h, z2)
    # delta_z psi ~ psi(z1,z2)/h near the pole (leading order)
    assert abs(lhs * h / sys_airy.psi(z1, z2) - 1.0) < 1e-2


# -- differential system probes ----------------------------------------------------------

def test_ode_bounded_at_branch_points(sys_airy):
    # rationality at the branch value: the growth exponent must be an
    # integer (half-integer singularities are what the probe excludes;
    # the universal apparent pole of the sheet frame is integer order)
    slope = ode_growth_probe(sys_airy, 2.3 + 1.7j, 0.0,
                             direction=np.exp(0.4j))
    assert abs(slope - round(slope)) < 0.1
    assert round(slope) >= -1


def test_ode_no_pole_at_x1(sys_airy):
    x1 = 2.3 + 1.7j
    vals = [np.abs(ode_matrix(sys_airy, x1, x1 + d * np.exp(0.3j))).max()
            for d in (1e-2, 1e-3)]
    assert vals[1] < 10 * vals[0] + 1.0


def test_ode_growth_at_omega_poles(sys_airy):
    # growth at the pole of omega: integer exponent bounded by
    # 1 + floor((j_max - 1)/d_p) with j_max = 3, d_p = 2 here
    vals = []
    for R in (1e3, 1e4):
        x = R * np.exp(0.37j)
        vals.append(np.abs(ode_matrix(sys_airy, 2.3 + 1.7j, x)).max())
    slope = np.log(vals[1] / vals[0]) / np.log(10.0)
    assert abs(slope - round(slope)) < 0.1
    assert 1 <= round(slope) <= 2


@pytest.mark.parametrize("which", ["airy-ydx", "airy-tame", "torus-ydx",
                                   "torus-tame"])
def test_ode_matrix_matches_differences(which, airy, torus, rng):
    # the closed form against Richardson central differences at steps
    # 3e-4 and 1.5e-4 of max(1, |x|): measured at most 1.0e-12 on Airy
    # and 2.4e-11 on tau = i, the differences' own error
    name, kind = which.split("-")
    curve = {"airy": airy, "torus": torus}[name]
    sysm = ClassicalSystem(curve, YdX(curve) if kind == "ydx"
                           else _tame(curve))
    for _ in range(4):
        x1, x = (random_x(curve, rng) for _ in range(2))
        M = ode_matrix(sysm, x1, x)
        ref = ode_matrix_fd(sysm, x1, x)
        assert np.abs(M - ref).max() < 1e-9 * np.abs(ref).max()


def test_zeta_reduction_keeps_psi_and_the_ode_spectrum(torus):
    # 3 x the tame form's third-kind part puts zeta at -1.41 - 0.58i, so
    # psi reads theta at zeta + tau, with theta1's quasi-period factor in
    # chi.  Its sheet matrix is the unreduced reading's (measured 8.6e-16
    # apart); M is the unreduced one conjugated by the x1-side gauge
    # e^(-2 i pi n z1), so their spectra agree (measured 5.6e-16)
    form = SumForm([(3.0, ThirdKind(torus, 0.21 + 0.33j, 0.68 + 0.52j)),
                    (0.4, basis_form(torus, 0.41 + 0.13j, 1))])
    x1, x = torus.x_value(0.33 + 0.41j), torus.x_value(0.41 + 0.36j)
    reduced, plain = ClassicalSystem(torus, form), ClassicalSystem(torus, form)
    plain._turns, plain._zeta = 0, plain.expansion.zeta
    assert reduced._turns == -1
    P, P0 = (s.psi_matrix(x1, x) for s in (reduced, plain))
    assert np.abs(P - P0).max() < 1e-14 * np.abs(P0).max()
    eig = [np.sort_complex(np.linalg.eigvals(ode_matrix(s, x1, x)))
           for s in (reduced, plain)]
    assert np.abs(eig[0] - eig[1]).max() < 1e-7 * np.abs(eig[1]).max()


def test_insertion_deformation_preserves_fillings(sys_torus):
    # omega + lam B(z, .)/dX(z): B has no A-period
    cv, z = sys_torus.curve, 0.52 + 0.61j
    leg = BergmanLeg(cv, z, 1.0 / cv.dx_value(z))
    sysm = ClassicalSystem(cv, SumForm([(1.0, sys_torus.form),
                                        (1e-3, leg)]))
    assert abs(sysm.expansion.eps[0] - sys_torus.expansion.eps[0]) < 1e-9


def test_classical_setup_builds_each_frame_once(monkeypatch):
    # the tame form's basis atom and its expansion share the regular frame
    # at 0.41 + 0.13i: the curve's 4 frames and 3 regular ones, where a
    # frame built per call made 8, two of them at 0.41 + 0.13i
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    built, init = [], Frame.__init__

    def counted(self, curve, location, *rest):
        built.append(location)
        init(self, curve, location, *rest)
    monkeypatch.setattr(Frame, "__init__", counted)
    workloads.classical_setup()
    assert len(built) == 7
    assert built.count(0.41 + 0.13j) == 1
