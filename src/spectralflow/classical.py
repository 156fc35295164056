"""Dispersionless integrable system attached to (curve, 1-form).

The spinor kernel psi(z1, z2) = e^{int chi} theta(u(z1) - u(z2) + zeta)
/ (theta(zeta) E(z1, z2)) is written once: the curve backend supplies
the Szego factor (prime_form, theta_ratio, szego_series; theta = 1 and
E = z1 - z2 on the sphere), and chi, zeta come from the A-normalized
part of the form.  Sheet matrices, Baker-Akhiezer vectors, the
Christoffel-Darboux pairing, the Lax matrix and the classical tau
function all hang off one ClassicalSystem instance.

Spinor values are reported in fixed charts: reduced by the global
chart legs (z on the sphere, u on the torus), or additionally by
sqrt(dX) per sheet for the x-chart matrices.  The sqrt(dX) branch per
sheet is fixed deterministically (principal root), which cancels in
every product the checks use.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .cache import BoundedCache
from .errors import (
    PsiOutOfRange,
    SingularCDMatrix,
    SingularSheetMatrix,
    StepTooLarge,
)
from .forms import BergmanLeg, DuForm, SumForm, ThirdKind, times_and_fillings
from .geometry import (
    Geometry,
    canonical_period,
    clear_basepoint,
    line_integral,
    prepotential,
    shifted_prepotential_value,
    _regular_primitive,
    _same_center,
)
from .series import _series_exp

_COND_LIMIT = 1e10
# |Re| of an exponent past which e^{.} leaves the normal double range
_EXP_LIMIT = 708.0


class ClassicalSystem:
    """psi_cl and everything built on it for one (curve, form) pair."""

    def __init__(self, curve, form, basepoint=None):
        self.curve = curve
        self.form = form
        self.geo = Geometry(curve)
        self.o = basepoint if basepoint is not None \
            else clear_basepoint(curve, form)
        self.records, self.eps = times_and_fillings(curve, form)
        self.chi, self.zeta_t = _a_normalized(curve, form, self.eps)
        self._chi_primitive_cache = BoundedCache()

    # -- kernel -------------------------------------------------------------------

    def _chi_from_base(self, z):
        key = complex(z)
        val = self._chi_primitive_cache.get(key)
        if val is None:
            val = line_integral(self.curve, self.chi, self.o, z)
            self._chi_primitive_cache[key] = val
        return val

    def psi(self, z1, z2):
        """psi_cl reduced by the global chart legs.

        Raises PsiOutOfRange where e^{int chi} leaves the double range,
        as do the Baker-Akhiezer rows; psi_matrix_factored probes there."""
        expo = _kernel_exp(self._chi_from_base(z1) - self._chi_from_base(z2),
                           f"psi({z1}, {z2})")
        return expo * self.curve.theta_ratio(z1 - z2, self.zeta_t) \
            / self.geo.prime_form(z1, z2)

    # -- sheet matrices ---------------------------------------------------------------

    def sheet_data(self, x):
        sh = self.curve.sheets_above(x)
        roots = [np.sqrt(self.curve.dx_value(z)) for z in sh.preimages]
        return sh, roots

    def psi_matrix(self, x1, x2):
        """[psi(z^i(x1), z^j(x2))] reduced to the x-chart."""
        s1, r1 = self.sheet_data(x1)
        s2, r2 = self.sheet_data(x2)
        d = len(s1.preimages)
        M = np.zeros((d, d), dtype=complex)
        for i, zi in enumerate(s1.preimages):
            for j, zj in enumerate(s2.preimages):
                M[i, j] = self.psi(zi, zj) / (r1[i] * r2[j])
        return M

    def psi_matrix_factored(self, x1, x2):
        """(c1, G, c2) with psi-hat_{ij} = e^{c1_i} G_{ij} e^{-c2_j}.

        G carries no essential exponential growth, so probes far from
        the base stay inside floating-point range.
        """
        s1, r1 = self.sheet_data(x1)
        s2, r2 = self.sheet_data(x2)
        d = len(s1.preimages)
        c1 = np.array([self._chi_from_base(z) for z in s1.preimages])
        c2 = np.array([self._chi_from_base(z) for z in s2.preimages])
        G = np.zeros((d, d), dtype=complex)
        for i, zi in enumerate(s1.preimages):
            for j, zj in enumerate(s2.preimages):
                core = self.curve.theta_ratio(zi - zj, self.zeta_t) \
                    / self.geo.prime_form(zi, zj)
                G[i, j] = core / (r1[i] * r2[j])
        return c1, G, c2

    def duality_residual(self, x1, x2, x3):
        """|Psi(x1,x2) Psi(x2,x3) - factor Psi(x1,x3)| (normalized)."""
        M12 = self.psi_matrix(x1, x2)
        M23 = self.psi_matrix(x2, x3)
        M13 = self.psi_matrix(x1, x3)
        lhs = M12 @ M23
        rhs = (x1 - x3) / ((x1 - x2) * (x2 - x3)) * M13
        scale = max(np.abs(rhs).max(), 1e-30)
        return np.abs(lhs - rhs).max() / scale

    def inverse_relation_residual(self, x1, x2):
        M12 = self.psi_matrix(x1, x2)
        M21 = self.psi_matrix(x2, x1)
        d = M12.shape[0]
        target = -np.eye(d) / (x1 - x2) ** 2
        lhs = M12 @ M21
        return np.abs(lhs - target).max() / np.abs(target).max()

    def refined_duality_residual(self, z1, z2, z):
        """Pointwise product relation with the holomorphic correction
        alpha du (none at genus 0: dS alone)."""
        alpha = 0.0
        if self.curve.genus == 1:
            # alpha in reduced chart values; its sign and normalization
            # are pinned by the pole-matching limit and the numerics (the
            # displayed -2 i pi alpha du absorbs into +alpha once du is
            # reduced to 1 in the u-chart)
            th = self.curve.ell.theta
            v, tz = z1 - z2 + self.zeta_t, self.zeta_t
            alpha = th.theta1(v, 1) / th.theta1(v) \
                - th.theta1(tz, 1) / th.theta1(tz)
        lhs = self.psi(z1, z) * self.psi(z, z2)
        rhs = -self.psi(z1, z2) * (self.geo.third_kind(z1, z2, z)
                                   + alpha)
        return abs(lhs - rhs) / max(abs(rhs), 1e-30)

    def alpha_at_coincidence(self):
        return abs(self.curve.theta_ratio(0.0, self.zeta_t) - 1.0)

    def b_loop_transport_residual(self, z1, z2, steps=48):
        """Move z1 around a B-homotopic loop with continuous tracking."""
        if self.curve.genus != 1:
            return 0.0
        tau = self.curve.tau
        base = self.psi(z1, z2)
        # accumulate d(ln psi) = chi(z) dz + dlog theta factors continuously
        th = self.curve.ell.theta
        prev = z1
        acc = 0.0
        for i in range(1, steps + 1):
            znext = z1 + tau * i / steps
            seg = line_integral(self.curve, self.chi, prev, znext)
            dlog = np.log(th.theta1(znext - z2 + self.zeta_t)
                          / th.theta1(prev - z2 + self.zeta_t)) \
                - np.log(th.theta1(znext - z2) / th.theta1(prev - z2))
            acc += seg + dlog
            prev = znext
        final = base * np.exp(acc)
        return abs(final - base) / abs(base)

    # -- Baker-Akhiezer vectors ---------------------------------------------------------

    def _pole_record(self, xp):
        for rec in self.records:
            if _same_center(rec.center, xp.location):
                return rec
        from .forms import PoleTimes
        return PoleTimes(xp.location, xp.order, "x_pole",
                         np.zeros(1, dtype=complex))

    def _ba_series(self, xp, z, sign):
        """Series in xi of the regularized kernel at a pole of X.

        sign +1: psi(z, z2 -> pole) e^{+V} xi^{+t0} / sqrt(d xi);
        sign -1: psi(z1 -> pole, z) e^{-V} xi^{-t0} / sqrt(d xi).

        Writing chi = dV + t0 dln(xi) + w(xi) dxi near the pole with
        W the zero-based primitive of the regular part, the essential
        singularity cancels exactly and the series is

            e^{sign (C(z) - K)} e^{-sign W(xi)} G(xi) sqrt(dz/dxi),

        where C(z) = int_o^z chi, K the matching constant of the chi
        primitive at the pole, and G the curve's Szego factor.
        """
        cv = self.curve
        rec = self._pole_record(xp)
        times = rec.times
        key = ("W", str(xp.location))
        cached = self._chi_primitive_cache.get(key)
        if cached is None:
            h = self.chi.local_series(xp.location, cv.order + 6)
            W, K = _regular_primitive(cv, self.chi, xp, h, times, self.o,
                                      0.61 + 0.37j, 0.18)
            cached = (W, xp.s_of_xi.retag(h.var_tag), K)
            self._chi_primitive_cache[key] = cached
        W, s_of_xi, K = cached

        amp = _kernel_exp(sign * (self._chi_from_base(z) - K),
                          f"the Baker-Akhiezer series at {z}")
        expo = _series_exp(W * (-sign))
        # the Szego factor G and the sqrt(dz/dxi) leg
        if xp.location == "inf":
            wq = s_of_xi          # w-offset as a function of xi
            den = wq * z - 1.0
            G = wq * den.invert()
            dleg = (wq.differentiate() * (wq * wq).invert()) * (-1.0)
            if sign < 0:
                G = G * (-1.0)
        else:
            # chart difference: sign > 0: z - z2(xi) = (z - p) - s(xi);
            # sign < 0: z1(xi) - z = (p - z) + s(xi)
            p = complex(xp.location)
            G = cv.szego_series(sign * (z - p), s_of_xi * (-sign),
                                self.zeta_t)
            dleg = s_of_xi.differentiate()
        leg = dleg.sqrt()
        return (G * expo * leg) * amp

    def _ba_vector(self, z, sign):
        """Baker-Akhiezer rows at z over (pole, derivative) pairs: j! times
        the xi^j coefficient of each pole's series.  Dual rows (sign -1)
        expand in the reflected local parameter, which pins the
        antidiagonal of the pairing matrix to (-1)^{k'} (k'-1)! (k-1)!."""
        out = []
        for xp in self.curve.x_poles:
            ser = self._ba_series(xp, z, sign)
            for j in range(xp.order):
                val = ser.coeff(j) * factorial(j)
                out.append(val if sign > 0 else val * (-1.0) ** (j + 1))
        return np.array(out)

    def ba_matrices(self, x):
        """(Psi(x), Phi(x)) with rows over (pole, derivative) pairs and
        columns over sheets, x-chart normalized."""
        sh, roots = self.sheet_data(x)
        d = len(sh.preimages)
        n_rows = sum(xp.order for xp in self.curve.x_poles)
        if n_rows != d:
            raise SingularSheetMatrix(
                f"pole multiplicities {n_rows} != degree {d}")
        Psi = np.zeros((d, d), dtype=complex)
        Phi = np.zeros((d, d), dtype=complex)
        for kcol, (zk, rk) in enumerate(zip(sh.preimages, roots)):
            Psi[:, kcol] = self._ba_vector(zk, +1) / rk
            Phi[:, kcol] = self._ba_vector(zk, -1) / rk
        return Psi, Phi

    def cd_matrix(self, x):
        Psi, Phi = self.ba_matrices(x)
        A_inv = Phi @ Psi.T
        if np.linalg.cond(A_inv) > _COND_LIMIT:
            raise SingularCDMatrix("CD matrix numerically singular")
        return A_inv

    def cd_reconstruction_residual(self, z1, z2):
        """|psi(z1,z2) - sum psi_I A_IJ phi_J / (X1 - X2)| / |psi|."""
        cv = self.curve
        A_inv = self.cd_matrix(_generic_x(cv))
        A = np.linalg.inv(A_inv)
        vec1 = self._ba_vector(z1, +1)
        vec2 = self._ba_vector(z2, -1)
        x1, x2 = cv.x_value(z1), cv.x_value(z2)
        recon = vec1 @ A @ vec2 / (x1 - x2)
        target = self.psi(z1, z2)
        return abs(recon - target) / max(abs(target), 1e-30)

    # -- Lax ----------------------------------------------------------------------------

    def lax_matrix(self, x1, x):
        M = self.psi_matrix(x1, x)
        sh, _ = self.sheet_data(x)
        if np.linalg.cond(M) > _COND_LIMIT:
            raise SingularSheetMatrix("sheet matrix not invertible")
        D = np.diag([self.curve.y_value(z) for z in sh.preimages])
        return M @ D @ np.linalg.inv(M)

    def charpoly_residual(self, x1, x, y_samples):
        L = self.lax_matrix(x1, x)
        sh, _ = self.sheet_data(x)
        out = 0.0
        for y in y_samples:
            lhs = np.linalg.det(y * np.eye(L.shape[0]) - L)
            rhs = np.prod([y - self.curve.y_value(z)
                           for z in sh.preimages])
            out = max(out, abs(lhs - rhs) / max(1.0, abs(rhs)))
        return out


def _kernel_exp(expo, where):
    """e^expo for the kernel's essential factor, refused where it leaves
    the normal double range."""
    if abs(expo.real) > _EXP_LIMIT:
        raise PsiOutOfRange(
            f"{where} needs e^({expo.real:.1f}), outside the double range")
    return np.exp(expo)


def _generic_x(curve):
    return 2.31 + 1.17j if curve.genus == 0 else \
        curve.x_value(0.29 + 0.33j * curve.tau.imag)


def _a_normalized(curve, form, eps):
    """(chi, zeta): chi = form - 2 i pi eps du has vanishing A-period and
    zeta is its B-period over 2 i pi; (form, 0) at genus 0."""
    if curve.genus == 0:
        return form, 0.0
    chi = SumForm([(1.0, form), (-2j * np.pi * eps[0], DuForm(curve))])
    return chi, canonical_period(curve, chi, "b") / (2j * np.pi)


# -- classical tau and Sato ------------------------------------------------------------

class ClassicalTau:
    """e^{F0-shifted} theta1(zeta) and its Schlesinger ratios."""

    def __init__(self, curve, form, basepoint=None):
        self.curve = curve
        self.form = form
        self.prep = prepotential(curve, form, basepoint)
        self.f0_tilde = shifted_prepotential_value(self.prep)
        _, self.zeta_t = _a_normalized(curve, form, self.prep.eps)
        self.theta_factor = 1.0 if curve.genus == 0 else \
            curve.ell.theta.theta1(self.zeta_t)


def sato_residual(curve, form, z1, z2, basepoint=None):
    """Residual of the Schlesinger-shift relation, squared form.

    Both sides are half-forms: the tau side carries the ordered-pair
    regularization of the double pairing (a quarter-turn unit e^{+-i
    pi/2} relative to principal-branch prime-form values), the kernel
    side the sqrt(dX) branch choices.  Squaring removes the branch
    gauge; the pairing-order sign makes the invariant statement

        (T(omega + dS)/T(omega))^2 dX(z1) dX(z2) = - psi_cl(z1,z2)^2,

    which this residual probes together with |ratio| = 1.  Returns
    (squared-form residual, raw ratio).
    """
    ds = ThirdKind(curve, z1, z2)
    shifted = SumForm([(1.0, form), (1.0, ds)])
    t0 = ClassicalTau(curve, form, basepoint)
    t1 = ClassicalTau(curve, shifted, basepoint)
    lhs = np.exp(t1.f0_tilde - t0.f0_tilde)
    lhs *= t1.theta_factor / t0.theta_factor
    lhs *= np.sqrt(curve.dx_value(z1)) * np.sqrt(curve.dx_value(z2))
    sysm = ClassicalSystem(curve, form, basepoint)
    rhs = sysm.psi(z1, z2)
    ratio = lhs / rhs
    residual = abs(ratio * ratio + 1.0)
    return residual, ratio


def time_shift_of_third_kind(curve, form, z1, z2, j_max=8):
    """Times of omega + dS minus times of omega at a shared pole set."""
    base, _ = times_and_fillings(curve, form, j_max)
    shifted, _ = times_and_fillings(
        curve, SumForm([(1.0, form), (1.0, ThirdKind(curve, z1, z2))]),
        j_max)
    out = {}
    for rec in shifted:
        mate = next((r for r in base
                     if _same_center(r.center, rec.center)), None)
        old = mate.times if mate is not None else np.zeros(1)
        n = max(len(rec.times), len(old))
        new = np.zeros(n, dtype=complex)
        new[:len(rec.times)] += rec.times
        new[:len(old)] -= old
        out[rec.center if isinstance(rec.center, str)
            else complex(rec.center)] = new
    return out


# -- insertion operator and the bilinear difference relation -----------------------------

def insertion_deformed_system(curve, form, z, lam, basepoint=None):
    """System for omega + lam B(z, .)/dX(z)."""
    leg = BergmanLeg(curve, z, 1.0 / curve.dx_value(z))
    return ClassicalSystem(curve, SumForm([(1.0, form), (lam, leg)]),
                           basepoint)


def self_replication_residual(curve, form, z, z1, z2, h=1e-4,
                              basepoint=None, richardson=True):
    """|delta_z psi + psi(z1,z) psi(z,z2)| via guarded differences.

    delta_z includes the dX(z) weight of the insertion operator, so the
    balance holds in reduced chart values.
    """
    base = ClassicalSystem(curve, form, basepoint)
    o = base.o

    def dpsi(step):
        up = insertion_deformed_system(curve, form, z, step, o)
        dn = insertion_deformed_system(curve, form, z, -step, o)
        return (up.psi(z1, z2) - dn.psi(z1, z2)) / (2 * step) \
            * curve.dx_value(z)

    d1 = dpsi(h)
    d2 = dpsi(h / 2)
    fd = (4 * d2 - d1) / 3 if richardson else d2
    target = -base.psi(z1, z) * base.psi(z, z2)
    if abs(d1 - d2) > 0.3 * max(abs(fd), 1e-30):
        raise StepTooLarge("h-sweep disagreement in the insertion FD")
    return abs(fd - target) / max(abs(target), 1e-30)


def ode_matrix(system: ClassicalSystem, x1, x, h=None):
    """M conjugated by the constant x1-side gauge, from
    (d/dx + id/(x - x1) - M) Psi-hat = 0 by central differences.

    Working with the factored kernel keeps every entry polynomially
    bounded: the x-side exponential contributes its exact logarithmic
    derivative chi(z^j)/X'(z^j) instead of overflowing values.
    """
    h = h or 1e-6 * max(1.0, abs(x))
    _, Gp, _ = system.psi_matrix_factored(x1, x + h)
    _, Gm, _ = system.psi_matrix_factored(x1, x - h)
    _, G, _ = system.psi_matrix_factored(x1, x)
    if np.linalg.cond(G) > _COND_LIMIT:
        raise SingularSheetMatrix("sheet matrix not invertible")
    sh, _ = system.sheet_data(x)
    rate = np.array([system.chi.value(z) / system.curve.dx_value(z)
                     for z in sh.preimages])
    dG = (Gp - Gm) / (2 * h)
    Ginv = np.linalg.inv(G)
    d = G.shape[0]
    return dG @ Ginv - G @ np.diag(rate) @ Ginv + np.eye(d) / (x - x1)


def ode_growth_probe(system: ClassicalSystem, x1, target, dists=(1e-2, 1e-3),
                     direction=1.0):
    """log-log growth exponent of |M(x)| as x -> target."""
    vals = []
    for d in dists:
        x = target + direction * d
        vals.append(np.abs(ode_matrix(system, x1, x)).max())
    return np.log(vals[1] / vals[0]) / np.log(dists[1] / dists[0])
