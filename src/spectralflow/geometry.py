"""Canonical geometric objects on a spectral curve.

Values of spinors and forms are always reported "reduced", i.e. with
the chart legs stripped: on the sphere E(z1, z2) sqrt(dz1 dz2) =
z1 - z2, on the torus E(z1, z2) sqrt(du1 du2) = theta1(u1 - u2) /
theta1'(0).  The odd-characteristic theta is realized through theta1,
which keeps the prime form antisymmetric and exact to third order on
the diagonal.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CoincidentPoints,
    DivergentRegularization,
    ResidueFreePreconditionViolated,
    ThetaZeroDivision,
    UnsupportedCycle,
)
from .forms import (
    DuForm,
    SecondKindBasis,
    SumForm,
    ThirdKind,
    _same_center,
    pole_frame,
    times_and_fillings,
)
from .quadrature import integrate_path, split_to_avoid
from .series import TruncSeries, _monomial, truncate

_QTOL = 1e-12


# -- cycle quadrature -----------------------------------------------------------

def _pole_translates(curve, form):
    """Pole locations plus lattice translates (torus) for path planning."""
    pts = []
    for c, _ in form.poles():
        if isinstance(c, str):
            continue
        pts.append(complex(c))
    if curve.genus == 1:
        tau = curve.tau
        base = list(pts)
        for p in base:
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    if m or n:
                        pts.append(p + m + n * tau)
    return pts


def _best_offset(pts, direction, tau):
    """Offset fraction in (0,1) whose cycle line stays clear of pts."""
    candidates = np.linspace(0.07, 0.93, 29)
    best, best_d = candidates[0], -1.0
    for c in candidates:
        if direction == "a":
            a0, a1 = c * tau, c * tau + 1.0
        else:
            a0, a1 = c, c + tau
        d = min((_seg_dist(a0, a1, p) for p in pts), default=1.0)
        if d > best_d:
            best, best_d = c, d
    return best, best_d


def _seg_dist(a, b, p):
    v = b - a
    t = ((p - a) / v).real if v != 0 else 0.0
    t = min(1.0, max(0.0, t))
    return abs(a + t * v - p)


def a_period(curve, form, tol=_QTOL):
    if curve.genus == 0:
        raise UnsupportedCycle("no A-cycle at genus 0")
    pts = _pole_translates(curve, form)
    c, _ = _best_offset(pts, "a", curve.tau)
    a0 = c * curve.tau
    return integrate_path(form.value, [a0, a0 + 1.0], tol)


def b_period(curve, form, tol=_QTOL):
    if curve.genus == 0:
        raise UnsupportedCycle("no B-cycle at genus 0")
    pts = _pole_translates(curve, form)
    c, _ = _best_offset(pts, "b", curve.tau)
    return integrate_path(form.value, [c, c + curve.tau], tol)


def canonical_period(curve, form, which, tol=_QTOL):
    """A/B-period coherent with in-cell path conventions.

    Closed forms are used whenever the form is built from canonical
    atoms; quadrature is the fallback for residue-free pieces, whose
    periods do not depend on the representative line.
    """
    if curve.genus == 0:
        raise UnsupportedCycle("no cycles at genus 0")
    if isinstance(form, SumForm):
        return sum(c * canonical_period(curve, f, which, tol)
                   for c, f in form.terms)
    closed = form.cycle_period(which)
    if closed is not None:
        return closed
    for center, _ in form.poles():
        h = form.local_series(center, curve.order + 6)
        if abs(h.residue()) > 1e-10:
            raise UnsupportedCycle(
                f"residue-carrying opaque form at {center}: no canonical "
                "cycle representative")
    return (a_period if which == "a" else b_period)(curve, form, tol)


def line_integral(curve, form, z_from, z_to, tol=_QTOL):
    """Integral along an in-domain polyline avoiding the form's poles."""
    pts = _pole_translates(curve, form)
    path = split_to_avoid(z_from, z_to, pts)
    return integrate_path(form.value, path, tol)


# -- two-point kernels ------------------------------------------------------------

class Geometry:
    """Prime form, Bergman kernel and third-kind form for one curve."""

    def __init__(self, curve):
        self.curve = curve

    # prime form, reduced by sqrt(chart legs)
    def prime_form(self, z1, z2):
        if abs(z1 - z2) < 1e-14:
            raise CoincidentPoints("prime form vanishes on the diagonal")
        return self.curve.prime_form(z1 - z2)

    def bergman(self, z1, z2):
        """B(z1, z2)/(dchart dchart)."""
        if abs(z1 - z2) < 1e-14:
            raise CoincidentPoints("Bergman kernel pole on the diagonal")
        return self.curve.bergman(z1 - z2)

    def third_kind(self, z1, z2, z):
        """dS_{z1,z2}(z)/dchart."""
        return ThirdKind(self.curve, z1, z2).value(z)

    def bergman_primitive(self, zp, z):
        """G(zp, z) with d_z G = B(zp, z): the dS building block."""
        return self.curve.bergman_primitive(zp - z)


# -- prepotential ------------------------------------------------------------------

def default_basepoint(curve):
    if curve.genus == 1:
        return 0.37 + 0.21 * curve.tau
    return 0.73 + 0.58j


def clear_basepoint(curve, form, min_dist=0.2):
    """A basepoint staying away from the form's poles and branch points.

    Only differences of chemical potentials are canonical, so any clear
    point will do; candidates are tried in a fixed order to keep runs
    reproducible.
    """
    special = [complex(c) for c, _ in form.poles() if not isinstance(c, str)]
    special += [r.location for r in curve.ramification_points]
    if curve.genus == 1:
        cands = [0.37 + 0.21 * curve.tau, 0.61 + 0.43 * curve.tau,
                 0.23 + 0.69 * curve.tau, 0.81 + 0.17 * curve.tau,
                 0.13 + 0.57 * curve.tau]
        tau = curve.tau
        trans = [m + n * tau for m in (-1, 0, 1) for n in (-1, 0, 1)]
        special = [p + t for p in special for t in trans]
    else:
        cands = [0.73 + 0.58j, -0.64 + 0.81j, 1.27 - 0.93j, -1.41 - 0.52j,
                 0.31 + 1.62j]
    for o in cands:
        if all(abs(o - p) > min_dist for p in special):
            return o
    return cands[0]


class Prepotential:
    """Value, chemical potentials and derivative lookups for one form."""

    def __init__(self, curve, form, value, mu, records, eps, b_periods):
        self.curve = curve
        self.form = form
        self.value = value
        self.mu = mu                     # {pole label: regularized potential}
        self.records = records          # PoleTimes list
        self.eps = eps
        self.b_periods_omega = b_periods

    def dF_dt(self, center, j):
        """dF0/dt_{p,j} for j >= 1: (1/j) Res_p xi^-j omega.

        The 1/j matches the time normalization t_{p,j} = Res omega xi^j
        used throughout; it is pinned by the finite-difference oracle in
        the tests.
        """
        rec = self._rec(center)
        h = self.form.local_series(rec.center, self.curve.order + 6)
        xi = pole_frame(self.curve, rec.center).xi_of_s.retag(h.var_tag)
        return (h * xi.invert() ** j).residue() / j

    def dF_deps(self, i=0):
        return self.b_periods_omega[i]

    def _rec(self, center):
        for r in self.records:
            if _same_center(r.center, center):
                return r
        raise KeyError(center)

    def homogeneity_residual(self):
        """|F0 - (1/2) sum_k t_k dF0/dt_k| / max(1, |F0|)."""
        total = 0.0 + 0.0j
        for rec in self.records:
            for j in range(1, len(rec.times)):
                if rec.times[j] != 0:
                    total += rec.times[j] * self.dF_dt(rec.center, j)
            total += rec.times[0] * self.mu[_key(rec.center)]
        for i, e in enumerate(self.eps):
            total += e * self.b_periods_omega[i]
        return abs(self.value - 0.5 * total) / max(1.0, abs(self.value))


def _key(center):
    return center if isinstance(center, str) else \
        (round(complex(center).real, 9), round(complex(center).imag, 9))


def prepotential(curve, form, basepoint=None, records=None, eps=None):
    """F0 from the regularized pairing of the form with itself.

    The second-kind block enters as Res_p[(sum_j t_j/j xi^-j) omega]/2,
    the sign fixed by finite-difference oracles against the first
    derivative identities (dF0/dt_{p,j} = (1/j) Res xi^-j omega,
    dF0/deps = B-period, homogeneity of degree two).
    """
    o = basepoint if basepoint is not None else clear_basepoint(curve, form)
    if records is None:
        records, eps = times_and_fillings(curve, form)

    res_v = 0.0 + 0.0j
    mu = {}
    t0mu = 0.0 + 0.0j
    obstacles = _pole_translates(curve, form)
    for rec in records:
        h = form.local_series(rec.center, curve.order + 6)
        frame = pole_frame(curve, rec.center)
        xi = frame.xi_of_s.retag(h.var_tag)
        # Res_p V_p omega with V_p = -sum_{j>=1} (t_j / j) xi^-j
        if len(rec.times) > 1:
            xinv = xi.invert()
            V = None
            for j in range(1, len(rec.times)):
                if rec.times[j] == 0:
                    continue
                term = (xinv ** j) * (rec.times[j] / j)
                V = term if V is None else V + term
            if V is not None:
                res_v += (V * h).residue()
        mu[_key(rec.center)] = _mu_of(curve, form, rec, frame, h, o,
                                      obstacles)
        t0mu += rec.times[0] * mu[_key(rec.center)]

    bper = []
    if curve.genus == 1:
        bper = [canonical_period(curve, form, "b")]
    eps_term = sum(e * b for e, b in zip(eps, bper))
    value = 0.5 * (res_v + t0mu + eps_term)
    return Prepotential(curve, form, value, mu, records, eps, bper)


def _mu_of(curve, form, rec, frame, h, o, obstacles):
    """Regularized int_o^p (omega - dV_p - t_p0 dlog xi), matched on the
    way from p towards the basepoint."""
    others = [complex(c) for c in obstacles
              if not isinstance(c, str)
              and not _same_center(c, rec.center if not
                                   isinstance(rec.center, str) else 1e9)]
    if rec.center == "inf":
        s_dir, dmin = 0.05 + 0.031j, 1.0
    else:
        p = complex(rec.center)
        dmin = min([abs(p - c) for c in others if abs(p - c) > 1e-9],
                   default=1.0)
        s_dir = (complex(o) - p)
        s_dir /= abs(s_dir)
    _, mu = _regular_primitive(curve, form, frame, h, rec.times, o, s_dir,
                              0.2 * min(1.0, dmin))
    return mu


def _regular_primitive(curve, form, frame, h, times, o, s_dir, scale):
    """(W, K) for a form with series h at the pole ``frame.location``
    and times t_j there.

    Near the pole, form = dV + t_0 dlog(xi) + w(xi) dxi with
    V = -sum_{j>=1} t_j/j xi^-j; W is the zero-based primitive of w and
    K = int_o^p (form - dV - t_0 dlog xi).  K is matched at
    s = scale * s_dir, halving the scale (up to 10 times) until the
    series of W has converged there.
    """
    s_of_xi = frame.s_of_xi.retag(h.var_tag)
    h_xi = h.compose(s_of_xi) * s_of_xi.differentiate()
    reg = h_xi
    for j in range(len(times)):
        if times[j] != 0:
            reg = reg - _monomial(-j - 1, complex(times[j]), h_xi)
    W = reg.antiderivative()
    W_half = truncate(W, max(4, len(W.coeffs) // 2))
    for _ in range(10):
        s_q = scale * s_dir
        xi_q = frame.xi_of_s.evaluate(s_q)
        w_q = W.evaluate(xi_q)
        if abs(w_q - W_half.evaluate(xi_q)) < 1e-10 * (1 + abs(w_q)):
            break
        scale *= 0.5
    else:
        raise DivergentRegularization(
            f"series tail at {frame.location} never converged")
    z_q = 1.0 / s_q if frame.location == "inf" \
        else complex(frame.location) + s_q
    V_q = -sum(times[j] / j * xi_q ** (-j) for j in range(1, len(times)))
    K = line_integral(curve, form, o, z_q) - V_q \
        - times[0] * np.log(xi_q) - w_q
    if not np.isfinite(K):
        raise DivergentRegularization(
            f"regularized primitive at {frame.location} not finite")
    return W, K


def shifted_prepotential_value(prep: Prepotential):
    """F0 - sum eps dF0/deps + i pi eps.tau.eps (genus-1 shift)."""
    if prep.curve.genus == 0:
        return prep.value
    tau = prep.curve.tau
    eps = prep.eps[0]
    return prep.value - eps * prep.b_periods_omega[0] \
        + 1j * np.pi * eps * eps * tau


# -- canonical basis and decomposition ----------------------------------------------

def basis_form(curve, rec_or_center, j, basepoint=None):
    """omega_{p,j}: dS_{p,o} for j = 0, second kind for j >= 1."""
    if isinstance(rec_or_center, (str, complex, float, int)):
        center = rec_or_center
    else:
        center = rec_or_center.center
    if j == 0:
        o = basepoint if basepoint is not None else default_basepoint(curve)
        if center == "inf":
            return _InfThirdKind(curve, o)
        return ThirdKind(curve, center, o)
    return SecondKindBasis(curve, pole_frame(curve, center), j)


class _InfThirdKind(ThirdKind):
    """dS_{inf,o} on the sphere: -dz/(z - o)."""

    def __init__(self, curve, o):
        self.curve = curve
        self.z1, self.z2 = None, complex(o)

    def value(self, z):
        return -1.0 / (z - self.z2)

    def local_series(self, center, order):
        if center == "inf":
            den = TruncSeries(np.concatenate(
                [[1.0, -self.z2], np.zeros(order + 4)]), 0)
            return den.invert().shift(-1)
        return -self.curve.bergman_primitive_series(center - self.z2,
                                                    order + 3)

    def poles(self):
        return [("inf", 1), (self.z2, 1)]


def decompose(curve, form, basepoint=None):
    """(records, eps, reconstruction SumForm) in the canonical basis."""
    records, eps = times_and_fillings(curve, form)
    terms = []
    if curve.genus == 1 and abs(eps[0]) > 1e-13:
        terms.append((2j * np.pi * eps[0], DuForm(curve)))
    for rec in records:
        if abs(rec.times[0]) > 1e-13:
            terms.append((rec.times[0],
                          basis_form(curve, rec.center, 0, basepoint)))
        for j in range(1, len(rec.times)):
            if abs(rec.times[j]) > 1e-13:
                terms.append((rec.times[j],
                              basis_form(curve, rec.center, j)))
    return records, eps, SumForm(terms)


# -- identity checkers -----------------------------------------------------------------

def riemann_bilinear_residual(curve, form1, form2, basepoint=None):
    """|sum of residues of phi2 omega1 - period pairing|.

    form2 must be residue-free at all of its poles, and on the torus
    every pole must lie strictly inside the fundamental cell (poles on
    the cell boundary touch the polygon edges where the primitive's
    determination is ambiguous).
    """
    records2, _ = times_and_fillings(curve, form2)
    for rec in records2:
        if abs(rec.times[0]) > 1e-10:
            raise ResidueFreePreconditionViolated(
                f"form2 has residue {rec.times[0]} at {rec.center}")
    o = basepoint if basepoint is not None else default_basepoint(curve)
    obstacles = _pole_translates(curve, form1) \
        + _pole_translates(curve, form2)

    # single-valued primitive of form2 on the cut domain
    def phi2_series(center, order):
        ser = form2.local_series(center, order + 2).antiderivative()
        if center == "inf":
            zq = 1.0 / (0.045 + 0.027j)
            sq = 0.045 + 0.027j
        else:
            p = complex(center)
            dmin = min([abs(p - c) for c in obstacles
                        if abs(p - c) > 1e-9], default=1.0)
            direction = complex(o) - p
            direction /= abs(direction)
            sq = 0.22 * min(1.0, dmin) * direction
            zq = p + sq
        const = line_integral(curve, form2, o, zq) - ser.evaluate(sq)
        return ser + const

    lhs = 0.0 + 0.0j
    centers = {_key(c): c for c, _ in form1.poles()}
    for c, _ in form2.poles():
        centers.setdefault(_key(c), c)
    for center in centers.values():
        order = curve.order
        s1 = form1.local_series(center, order + 4)
        p2 = phi2_series(center, order + 4)
        lhs += (p2 * s1).residue()

    rhs = 0.0 + 0.0j
    if curve.genus == 1:
        # sign matches the concrete marking A = [0,1], B = [0,tau] with a
        # counterclockwise fundamental cell (A B A^-1 B^-1 boundary)
        rhs = -(a_period(curve, form1) * b_period(curve, form2)
                - b_period(curve, form1) * a_period(curve, form2)) \
            / (2j * np.pi)
    return abs(lhs - rhs)


def fay_residual(curve, z1, z2, z3, z4, w):
    """Relative residual of the four-point bilinear theta identity."""
    if curve.genus != 1:
        raise UnsupportedCycle("the four-point identity needs genus 1")
    th = curve.ell.theta
    geo = Geometry(curve)

    def E(a, b):
        return geo.prime_form(a, b)

    def T(v):
        val = th.theta1(v)
        if abs(val) < 1e-12:
            raise ThetaZeroDivision(f"theta factor at {v} on the divisor")
        return val

    u12, u34 = z1 - z2, z3 - z4
    lhs = T(w) * T(u12 + u34 + w) * E(z1, z3) * E(z2, z4) \
        / (E(z1, z4) * E(z2, z3)) / (E(z1, z2) * E(z3, z4))
    rhs = T(w + u12) / E(z1, z2) * T(w + u34) / E(z3, z4) \
        - T(w + (z1 - z4)) / E(z1, z4) * T(w + (z3 - z2)) / E(z3, z2)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
