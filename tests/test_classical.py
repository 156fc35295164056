import numpy as np
import pytest

from spectralflow.classical import (
    ClassicalSystem,
    ClassicalTau,
    insertion_deformed_system,
    ode_growth_probe,
    ode_matrix,
    sato_residual,
    self_replication_residual,
    time_shift_of_third_kind,
)
from spectralflow.curve import Genus0Curve, RationalFunction
from spectralflow import cache
from spectralflow.errors import CoincidentPoints, PsiOutOfRange
from spectralflow.forms import SumForm, ThirdKind, YdX


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
            E = sysm.geo.prime_form(z2 + h, z2)
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
    c1, G, c2 = sys_torus.psi_matrix_factored(x1, x2)
    assert np.all(np.isfinite(G))


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


def test_alpha_vanishes_at_coincidence(sys_torus):
    assert sys_torus.alpha_at_coincidence() < 1e-12


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
    from spectralflow.geometry import prepotential
    w = YdX(airy)
    ds = ThirdKind(airy, 1.8 + 0.7j, -1.1 + 1.3j)
    vals = []
    for lam in (0.0, 0.5, 1.0, 1.5):
        form = SumForm([(1.0, w), (lam, ds)]) if lam else w
        vals.append(prepotential(airy, form, basepoint=0.73 + 0.58j).value)
    # third finite difference of a quadratic vanishes
    d3 = vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]
    assert abs(d3) < 1e-8 * max(1.0, abs(vals[0]))


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
    curve = {"airy": airy, "torus": torus}[which]
    w = YdX(curve)
    tol = 1e-7 if curve.genus == 0 else 1e-6
    count = 0
    while count < 3:
        if curve.genus == 0:
            pts = rng.uniform(0.8, 2.2, 3) + 1j * rng.uniform(0.4, 1.8, 3)
            pts[1] = -pts[1]
        else:
            pts = rng.uniform(0.1, 0.8, 3) + 1j * rng.uniform(0.1, 0.45, 3)
        z, z1, z2 = pts
        if min(abs(z - z1), abs(z - z2), abs(z1 - z2)) < 0.25:
            continue
        assert self_replication_residual(curve, w, z, z1, z2) < tol
        count += 1


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


def test_insertion_deformation_preserves_fillings(sys_torus):
    sysm = insertion_deformed_system(sys_torus.curve, sys_torus.form,
                                     0.52 + 0.61j, 1e-3)
    assert abs(sysm.eps[0] - sys_torus.eps[0]) < 1e-9
