"""Dispersionless integrable system attached to (curve, 1-form).

The spinor kernel psi(z1, z2) = e^{int chi} theta(u(z1) - u(z2) + zeta)
/ (theta(zeta) E(z1, z2)) is written once (_kernel), over stacked grids
of point pairs: one chi batch and one Szego theta sum on the differences
z1 - z2 serve every sheet matrix a call reads; one psi is its 1 x 1
case.  On the torus theta is read at zeta - n tau, within Im tau / 2 of
the real axis, with e^(-2 i pi n (z1 - z2)) in the chi exponents.  Each
system keeps its x-chart sheet blocks in a bounded memo; the sheets above
an x are solved once per curve.  The curve supplies the Szego factor
(szego_grid, szego_series; theta = 1, E = z1 - z2 on the sphere).  chi,
zeta and int_o^z chi are read off the form's one expansion in the
canonical basis (``forms.expansion``) in closed form; only the
b_loop_transport_residual oracle runs quadrature.  sato_residual reads
the classical tau function e^(F0~) theta(zeta) off two expansions.

Spinor values are reported in fixed charts: reduced by the global
chart legs (z on the sphere, u on the torus), or additionally by
sqrt(dX) per sheet for the x-chart matrices.  The sqrt(dX) branch per
sheet is fixed deterministically (principal root), which cancels in
every product the checks use.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

import numpy as np

from .cache import BoundedCache
from .errors import (
    PsiOutOfRange,
    SingularCDMatrix,
    SingularSheetMatrix,
    StepTooLarge,
)
from .forms import (
    BergmanLeg,
    DuForm,
    PoleTimes,
    SumForm,
    ThirdKind,
    _same_center,
    expansion,
)
from .geometry import line_integral
from .series import _series_exp

_COND_LIMIT = 1e10
# |Re| of an exponent past which e^{.} leaves the normal double range
_EXP_LIMIT = 708.0
# steps of the B-loop in b_loop_transport_residual
_B_LOOP_STEPS = 48
# the insertion step of self_replication_residual's differences
_INSERTION_STEP = 1e-4


class ClassicalSystem:
    """psi_cl and everything built on it for one (curve, form) pair."""

    def __init__(self, curve, form, basepoint=None):
        self.curve = curve
        self.form = form
        self.expansion = expansion(curve, form)
        self.o = basepoint if basepoint is not None \
            else self.expansion.basepoint
        # chi = form - 2 i pi eps du, whose A-periods vanish
        self.chi = SumForm([(1.0, form)] + [(-2j * np.pi * e, DuForm(curve))
                                            for e in self.expansion.eps])
        self._chi_primitive_cache = BoundedCache()
        self._psi_blocks = BoundedCache()
        zeta = self.expansion.zeta
        self._turns = round(zeta.imag / curve.tau.imag) if curve.genus else 0
        self._zeta = zeta - self._turns * curve.tau if self._turns else zeta

    # -- kernel -------------------------------------------------------------------

    def _chi_from_base(self, zs):
        """int_o^z chi at one point z, or [int_o^z chi for z in zs], along
        the straight segments from o, in closed form from chi's expansion
        in the canonical basis.  The uncached points are computed in one
        batch, and their values are taken from the batch, not read back
        from the bounded cache; each depends on its own z only."""
        if np.ndim(zs) == 0:
            return self._chi_from_base([zs])[0]
        keys = [complex(z) for z in zs]
        vals = {k: self._chi_primitive_cache.get(k) for k in keys}
        todo = [k for k, v in vals.items() if v is None]
        if todo:
            for k, v in zip(todo, self.expansion.basis.primitive(
                    self.o, np.array(todo))):
                vals[k] = self._chi_primitive_cache[k] = v
        return np.array([vals[k] for k in keys])

    def psi(self, z1, z2):
        """psi_cl reduced by the global chart legs.

        Raises PsiOutOfRange where e^{int chi} leaves the double range,
        as do the Baker-Akhiezer rows; psi_matrix_factored probes there."""
        c1, G, c2 = self._kernel([[z1]], [[z2]])
        return _assemble(c1, G, c2, f"psi({z1}, {z2})")[0, 0, 0]

    def _kernel(self, z1s, z2s):
        """(c1, G, c2) with psi(z1s[p, i], z2s[p, j]) = e^{c1_pi - c2_pj}
        G_pij over grids of shape (P, d): the chi primitives in one batch
        and G over the stacked differences z1 - z2 in one theta sum, at
        zeta - n tau with theta1's factor e^(-2 i pi n (z1 - z2)) in c."""
        zs = np.array([z1s, z2s])
        chi = self._chi_from_base(zs.ravel()).reshape(zs.shape)
        if self._turns:
            chi = chi - 2j * np.pi * self._turns * zs
        G = self.curve.szego_grid(zs[0][:, :, None] - zs[1][:, None, :],
                                  self._zeta)
        return chi[0], G, chi[1]

    # -- sheet matrices ---------------------------------------------------------------

    def sheet_data(self, x):
        """(sheets above x, principal sqrt(dX) per sheet), solved once
        per x and curve."""
        key = complex(x)
        data = self.curve.sheet_cache.get(key)
        if data is None:
            sh = self.curve.sheets_above(x)
            roots = [np.sqrt(self.curve.dx_value(z)) for z in sh.preimages]
            data = self.curve.sheet_cache[key] = (sh, roots)
        return data

    def _blocks(self, pairs, where=None):
        """psi_matrix of each (x1, x2) in pairs, refused as ``where``, or
        psi_matrix_factored without it.  Pairs not in the bounded memo are
        read in one _kernel call, and stored read-only as (c1, G, c2, the
        sqrt(dX) products) once the call's matrices are formed."""
        keys = [(complex(a), complex(b)) for a, b in pairs]
        got = {k: self._psi_blocks.get(k) for k in keys}
        todo = [k for k, v in got.items() if v is None]
        if todo:
            sheets = [[self.sheet_data(x) for x in k] for k in todo]
            zs = np.array([[s.preimages for s, _ in pair] for pair in sheets])
            c1, G, c2 = self._kernel(zs[:, 0], zs[:, 1])
            for k, a, g, b, ((_, r1), (_, r2)) in zip(todo, c1, G, c2, sheets):
                got[k] = (a, g, b, np.array([[u * v for v in r2] for u in r1]))
                for arr in got[k]:
                    arr.flags.writeable = False
        out = [(c1, G / r, c2) if where is None
               else _assemble(c1, G, c2, where) / r
               for c1, G, c2, r in (got[k] for k in keys)]
        for k in todo:
            self._psi_blocks[k] = got[k]
        return out

    def psi_matrix(self, x1, x2):
        """[psi(z^i(x1), z^j(x2))] in the x-chart, read by _blocks: held in
        the bounded memo, its Szego theta read at zeta - n tau."""
        return self._blocks([(x1, x2)], f"psi_matrix({x1}, {x2})")[0]

    def psi_matrix_factored(self, x1, x2):
        """(c1, G, c2) with psi-hat_{ij} = e^{c1_i} G_{ij} e^{-c2_j}: G
        carries no essential exponential growth, so probes far from the
        base stay inside floating-point range.  Read as psi_matrix."""
        return self._blocks([(x1, x2)])[0]

    def duality_residual(self, x1, x2, x3):
        """|Psi(x1,x2) Psi(x2,x3) - factor Psi(x1,x3)| (normalized)."""
        M12, M23, M13 = self._blocks([(x1, x2), (x2, x3), (x1, x3)],
                                     f"duality_residual({x1}, {x2}, {x3})")
        rhs = (x1 - x3) / ((x1 - x2) * (x2 - x3)) * M13
        return np.abs(M12 @ M23 - rhs).max() / max(np.abs(rhs).max(), 1e-30)

    def inverse_relation_residual(self, x1, x2):
        M12, M21 = self._blocks([(x1, x2), (x2, x1)],
                                f"inverse_relation_residual({x1}, {x2})")
        target = -np.eye(len(M12)) / (x1 - x2) ** 2
        return np.abs(M12 @ M21 - target).max() / np.abs(target).max()

    def refined_duality_residual(self, z1, z2, z):
        """Pointwise product relation with the holomorphic correction
        alpha du, alpha = (ln theta)'(z1 - z2 + zeta) - (ln theta)'(zeta),
        which is 0 at genus 0 (theta = 1: dS alone)."""
        # alpha in reduced chart values; its sign and normalization are
        # pinned by the pole-matching limit and the numerics (the
        # displayed -2 i pi alpha du absorbs into +alpha once du is
        # reduced to 1 in the u-chart)
        zeta = self.expansion.zeta
        (t0, t1), (s0, s1) = (self.curve.theta_jet(v, 1)
                              for v in (z1 - z2 + zeta, zeta))
        alpha = t1 / t0 - s1 / s0
        lhs = self.psi(z1, z) * self.psi(z, z2)
        rhs = -self.psi(z1, z2) * (ThirdKind(self.curve, z1, z2).value(z)
                                   + alpha)
        return abs(lhs - rhs) / max(abs(rhs), 1e-30)

    def b_loop_transport_residual(self, z1, z2):
        """Move z1 around each B-homotopic loop with continuous tracking;
        the largest relative change of psi, 0 on the sphere.  An oracle
        for zeta: chi is integrated along the loop by quadrature
        (line_integral), not by the closed-form primitive."""
        out = []
        for _, b in self.curve.cycles:
            base = self.psi(z1, z2)
            # accumulate d(ln psi) = chi(z) dz + dlog theta factors
            zs = z1 + b * np.arange(_B_LOOP_STEPS + 1) / _B_LOOP_STEPS
            segs = line_integral(self.curve, self.chi, zs[:-1], zs[1:])
            num, den = (self.curve.theta_jet(zs - z2 + shift, 0)[0]
                        for shift in (self.expansion.zeta, 0.0))
            acc = np.sum(segs + np.log(num[1:] / num[:-1])
                         - np.log(den[1:] / den[:-1]))
            out.append(abs(base * np.exp(acc) - base) / abs(base))
        return max(out, default=0.0)

    # -- Baker-Akhiezer vectors ---------------------------------------------------------

    @cached_property
    def _chi_at_x_poles(self):
        """(W, K) of chi at each pole of X, read by ``PoleTimes.regularized``
        off chi's record there and matched as F0's potentials are."""
        exp, out = self.expansion, []
        for xp in self.curve.x_poles:
            # every pole of X has a record of the form, in its own frame
            rec = next(r for r in exp.records if r.frame is xp)
            chi = PoleTimes(rec.center, xp, self.chi.local_series(
                rec.center, self.curve.order + 6), rec.head)
            out.append(chi.regularized(exp.basis, self.o, exp.obstacles))
        return out

    def _ba_series(self, xp, W, K, z, sign):
        """Series in xi of the regularized kernel at the pole of X ``xp``.

        sign +1: psi(z, z2 -> pole) e^{+V} xi^{+t0} / sqrt(d xi);
        sign -1: psi(z1 -> pole, z) e^{-V} xi^{-t0} / sqrt(d xi).

        Writing chi = dV + t0 dln(xi) + w(xi) dxi near the pole with
        W the zero-based primitive of the regular part, the essential
        singularity cancels exactly and the series is

            e^{sign (C(z) - K)} e^{-sign W(xi)} G(xi) sqrt(dz/dxi),

        where C(z) = int_o^z chi, K the regularized potential of chi at
        the pole, and G the curve's Szego factor.
        """
        s_of_xi = xp.s_of_xi
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
            G = self.curve.szego_series(sign * (z - p), s_of_xi * (-sign),
                                        self.expansion.zeta)
            dleg = s_of_xi.differentiate()
        leg = dleg.sqrt()
        return (G * expo * leg) * amp

    def _ba_vector(self, z, sign):
        """Baker-Akhiezer rows at z over (pole, derivative) pairs: j! times
        the xi^j coefficient of each pole's series.  Dual rows (sign -1)
        expand in the reflected local parameter, which pins the
        antidiagonal of the pairing matrix to (-1)^{k'} (k'-1)! (k-1)!."""
        out = []
        for xp, (W, K) in zip(self.curve.x_poles, self._chi_at_x_poles):
            ser = self._ba_series(xp, W, K, z, sign)
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


def _assemble(c1, G, c2, where):
    """e^{c1_i - c2_j} G_ij on the last two axes, refused by _kernel_exp."""
    return _kernel_exp(c1[..., :, None] - c2[..., None, :], where) * G


def _kernel_exp(expo, where):
    """e^expo for the kernel's essential factor, refused where it leaves
    the normal double range."""
    re = np.ravel(np.real(expo))
    worst = re[np.argmax(np.abs(re))]
    if abs(worst) > _EXP_LIMIT:
        raise PsiOutOfRange(
            f"{where} needs e^({worst:.1f}), outside the double range")
    return np.exp(expo)


def _generic_x(curve):
    return 2.31 + 1.17j if curve.genus == 0 else \
        curve.x_value(0.29 + 0.33j * curve.tau.imag)


# -- the classical tau function and Sato -----------------------------------------

def sato_residual(curve, form, z1, z2, basepoint=None):
    """Residual of the Schlesinger-shift relation, squared form.

    Both sides are half-forms: the tau side carries the ordered-pair
    regularization of the double pairing (a quarter-turn unit e^{+-i
    pi/2} relative to principal-branch prime-form values), the kernel
    side the sqrt(dX) branch choices.  Squaring removes the branch
    gauge; the pairing-order sign makes the invariant statement

        (T(omega + dS)/T(omega))^2 dX(z1) dX(z2) = - psi_cl(z1,z2)^2,

    with T(omega) = e^(F0~) theta(zeta), F0~ the shifted F0 and zeta of
    omega's expansion; omega's is the expansion of the ClassicalSystem
    that gives psi_cl.  The residual probes it together with |ratio| = 1.
    Returns (squared-form residual, raw ratio).
    """
    sysm = ClassicalSystem(curve, form, basepoint)
    shifted = SumForm([(1.0, form), (1.0, ThirdKind(curve, z1, z2))])
    e0, e1 = sysm.expansion, expansion(curve, shifted)
    lhs = np.exp(e1.shifted_F0(basepoint) - e0.shifted_F0(basepoint))
    lhs *= curve.theta_jet(e1.zeta, 0)[0] / curve.theta_jet(e0.zeta, 0)[0]
    lhs *= np.sqrt(curve.dx_value(z1)) * np.sqrt(curve.dx_value(z2))
    ratio = lhs / sysm.psi(z1, z2)
    residual = abs(ratio * ratio + 1.0)
    return residual, ratio


def time_shift_of_third_kind(curve, form, z1, z2):
    """Times of omega + dS minus times of omega at a shared pole set."""
    base = expansion(curve, form).records
    shifted = expansion(curve, SumForm(
        [(1.0, form), (1.0, ThirdKind(curve, z1, z2))])).records
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


def self_replication_residual(curve, form, z, z1, z2, basepoint=None):
    """|delta_z psi + psi(z1,z) psi(z,z2)| via guarded differences,
    Richardson-extrapolated from the steps _INSERTION_STEP and half it.

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

    d1 = dpsi(_INSERTION_STEP)
    d2 = dpsi(_INSERTION_STEP / 2)
    fd = (4 * d2 - d1) / 3
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
    Gp, Gm, G = (g for _, g, _ in system._blocks(
        [(x1, x + h), (x1, x - h), (x1, x)]))
    if np.linalg.cond(G) > _COND_LIMIT:
        raise SingularSheetMatrix("sheet matrix not invertible")
    sh, _ = system.sheet_data(x)
    rate = np.array([(system.chi.value(z) - 2j * np.pi * system._turns)
                     / system.curve.dx_value(z) for z in sh.preimages])
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
