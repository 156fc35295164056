"""Periods, the prepotential F0 and the identity checks of a spectral curve.

Everything here reads a form through its one expansion in the canonical
basis (``forms.expansion``): its times, dual pairings and regularized
potentials, eps and zeta give F0 and its derivatives, and its B-periods
2 i pi (zeta + eps B).  ``canonical_period`` gives the closed-form A- and
B-periods, and the Riemann bilinear check reads its periods and the
primitive of its second form in closed form too.  ``quadrature_period``
and ``line_integral`` integrate by adaptive quadrature instead: oracles
for those closed forms, called by the tests and, for line_integral, by
the B-loop transport check of ``classical``.  The two-point kernels
(prime form, Bergman kernel, Szego factor) are the curve's own
(``SpectralCurve.prime_form``, ``bergman``, ``szego_grid``), reported
with the chart legs stripped: on the sphere E(z1, z2) sqrt(dz1 dz2) =
z1 - z2, on the torus theta1(u1 - u2)/theta1'(0).
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .errors import (
    BadIndex,
    DivergentRegularization,
    ResidueFreePreconditionViolated,
    UnsupportedCycle,
)
from .forms import (
    KernelForm,
    SecondKindBasis,
    SumForm,
    ThirdKind,
    _basepoints,
    _pole_translates,
    _same_center,
    expansion,
    pole_frame,
)
from .series import TruncSeries, truncate


# -- cycle periods --------------------------------------------------------------

def _best_offset(pts, step, across):
    """The offset c in (0, 1) whose cycle line [c across, c across + step]
    keeps farthest from pts."""
    cs = np.linspace(0.07, 0.93, 29)
    a0 = (cs * across)[:, None]
    v = a0 + step - a0
    p = np.asarray(pts, dtype=complex)
    t = np.clip(((p - a0) / v).real, 0.0, 1.0)
    return cs[np.argmax(np.min(np.abs(a0 + t * v - p), axis=1,
                               initial=np.inf))]


def quadrature_period(curve, form, which):
    """The A- (``which`` "a") or B-period of the form by quadrature, an
    oracle for ``canonical_period`` that only the tests call: the A line is
    [c B, c B + A] and the B line [c A, c A + B] for the curve's cycle
    periods (A, B) and the offset c that keeps the line farthest from
    the form's poles."""
    if curve.genus == 0:
        raise UnsupportedCycle(f"no {which.upper()}-cycle at genus 0")
    (a, b), = curve.cycles
    step, across = (a, b) if which == "a" else (b, a)
    c = _best_offset(_pole_translates(curve, form), step, across)
    return quadrature.integrate_path(form.value,
                                     [c * across, c * across + step])


def canonical_period(curve, form, which):
    """A/B-period coherent with in-cell path conventions, in closed form:
    each atom of the canonical basis has its own, a sum sums them, and
    any other form takes that of its expansion in the basis."""
    if curve.genus == 0:
        raise UnsupportedCycle("no cycles at genus 0")
    if isinstance(form, SumForm):
        return sum(c * canonical_period(curve, f, which)
                   for c, f in form.terms)
    closed = form.cycle_period(which)
    return closed if closed is not None \
        else canonical_period(curve, expansion(curve, form).with_du, which)


def line_integral(curve, form, z_from, z_to):
    """Integral of the form along the straight segment from z_from to
    z_to, the path of the closed-form primitives, by adaptive quadrature:
    their oracle.

    Either endpoint may be a sequence (the other one is broadcast
    against it): then every segment is integrated in one quadrature
    batch and an array of values, one per segment, is returned."""
    out = np.array(quadrature.integrate_segments(
        form.value, list(np.broadcast(z_from, z_to))))
    return out if np.ndim(z_from) or np.ndim(z_to) else out[0]


# -- prepotential ------------------------------------------------------------------

class Prepotential:
    """Value and derivative lookups for one form."""

    def __init__(self, curve, value, expansion, b_periods):
        self.curve = curve
        self.value = value
        self.expansion = expansion       # the form's forms.Expansion
        self.b_periods_omega = b_periods

    def dF_dt(self, center, j):
        """dF0/dt_{p,j} for j >= 1: (1/j) Res_p xi^-j omega.

        The 1/j matches the time normalization t_{p,j} = Res omega xi^j
        used throughout; it is pinned by the finite-difference oracle in
        the tests.
        """
        return self._rec(center).pairing(j)

    def dF_deps(self, i=0):
        """dF0/deps_i, the B-period of the form on handle i."""
        if i not in range(self.curve.genus):
            raise UnsupportedCycle(f"no filling fraction eps_{i}")
        return self.b_periods_omega[i]

    def _rec(self, center):
        for r in self.expansion.records:
            if _same_center(r.center, center):
                return r
        raise BadIndex(f"{center} is not a pole of the form")


def prepotential(curve, form, basepoint=None):
    """F0 from the regularized pairing of the form with itself.

    The second-kind block enters as Res_p[(sum_j t_j/j xi^-j) omega]/2,
    the sign fixed by finite-difference oracles against the first
    derivative identities (dF0/dt_{p,j} = (1/j) Res xi^-j omega,
    dF0/deps = B-period, homogeneity of degree two).  The primitives of
    the chemical potentials and the B-periods are read off the form's
    expansion in the canonical basis.
    """
    return _prepotential(curve, form, expansion(curve, form), basepoint)


def _prepotential(curve, form, exp, basepoint):
    """The Prepotential of ``form`` read off ``exp``, its Expansion: the
    B-period on each handle (A, B) is 2 i pi (zeta + eps B)."""
    o = basepoint if basepoint is not None else exp.basepoint
    obstacles = _pole_translates(curve, form)

    res_v = t0mu = 0.0 + 0.0j
    for rec in exp.records:
        # Res_p V_p omega with V_p = sum_{j>=1} (t_j / j) xi^-j
        res_v += sum(t * rec.pairing(j) for j, t in enumerate(rec.times)
                     if j and t != 0)
        # t_p0 times the regularized potential mu_p
        _, mu = _regular_primitive(exp.with_du, o, rec, *_matching_step(
            rec.center, o, obstacles))
        t0mu += rec.times[0] * mu

    bper = [2j * np.pi * (exp.zeta + e * b)
            for e, (_, b) in zip(exp.eps, curve.cycles)]
    eps_term = sum(e * b for e, b in zip(exp.eps, bper))
    value = 0.5 * (res_v + t0mu + eps_term)
    return Prepotential(curve, value, exp, bper)


def _matching_step(center, o, obstacles):
    """(s_dir, scale): a primitive is matched to its series at the pole
    ``center`` at the chart offset s = scale s_dir, a fifth of the way to
    the nearest obstacle (at most 0.2) towards the basepoint o; at inf on
    the sphere, at w = 0.2 (0.05 + 0.031 i)."""
    if center == "inf":
        return 0.05 + 0.031j, 0.2
    p = complex(center)
    dmin = min([abs(p - c) for c in obstacles if abs(p - c) > 1e-9],
               default=1.0)
    return (complex(o) - p) / abs(complex(o) - p), 0.2 * min(1.0, dmin)


def _regular_primitive(basis, o, rec, s_dir, scale):
    """(W, K) for the form ``basis``, written in the canonical basis, at
    the pole of its PoleTimes ``rec``.

    Near the pole, form = dV + t_0 dlog(xi) + w(xi) dxi with
    V = -sum_{j>=1} t_j/j xi^-j; w is the regular part of ``rec.local``, W
    its zero-based primitive and K = int_o^p (form - dV - t_0 dlog xi), the
    regularized potential, with int_o^z form from the atoms of the basis.
    K is matched at s = scale * s_dir, halving the scale (up to 10 times)
    until the series of W has converged there.
    """
    frame, times, local = rec.frame, rec.times, rec.local
    lo = max(-local.k_min, 0)
    W = TruncSeries(local.coeffs[lo:], local.k_min + lo,
                    local.var_tag).antiderivative()
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
    K = basis.primitive(o, np.array([z_q]))[0] - V_q \
        - times[0] * np.log(xi_q) - w_q
    if not np.isfinite(K):
        raise DivergentRegularization(
            f"regularized primitive at {frame.location} not finite")
    return W, K


def shifted_prepotential_value(prep: Prepotential):
    """F0 - sum eps dF0/deps + i pi eps.tau.eps, tau = B/A over the
    cycles: F0 itself on the sphere."""
    value = prep.value
    for e, bp, (a, b) in zip(prep.expansion.eps, prep.b_periods_omega,
                             prep.curve.cycles):
        value = value - e * bp + 1j * np.pi * e * e * (b / a)
    return value


# -- canonical basis ----------------------------------------------------------------

def basis_form(curve, center, j, basepoint=None):
    """omega_{p,j}: dS_{p,o} for j = 0 (-dz/(z - o) for p = inf on the
    sphere), second kind for j >= 1."""
    if j == 0:
        o = basepoint if basepoint is not None else _basepoints(curve)[0]
        if center == "inf":
            return KernelForm(curve, [(o, [-1.0])])
        return ThirdKind(curve, center, o)
    return SecondKindBasis(curve, pole_frame(curve, center), j)


# -- identity checkers -----------------------------------------------------------------

def riemann_bilinear_residual(curve, form1, form2, basepoint=None):
    """|sum of residues of phi2 omega1 - period pairing|, phi2 = int_o^z
    form2.

    form2 must be residue-free at all of its poles, and on the torus
    every pole must lie strictly inside the fundamental cell (poles on
    the cell boundary touch the polygon edges where the primitive's
    determination is ambiguous).  Everything is in closed form: phi2 near
    each pole is the primitive of form2's local series, its constant read
    off the primitive of form2's expansion at the matching point of
    ``_matching_step``, and the periods are ``canonical_period``'s.  o is
    that expansion's basepoint unless given.
    """
    exp2 = expansion(curve, form2)
    for rec in exp2.records:
        res = rec.series.residue()
        if abs(res) > 1e-10:
            raise ResidueFreePreconditionViolated(
                f"form2 has residue {res} at {rec.center}")
    o = basepoint if basepoint is not None else exp2.basepoint
    obstacles = _pole_translates(curve, form1) \
        + _pole_translates(curve, form2)

    lhs = 0.0 + 0.0j
    for center in (form1 + form2).poles():
        s_dir, scale = _matching_step(center, o, obstacles)
        s_q = scale * s_dir
        z_q = 1.0 / s_q if center == "inf" else complex(center) + s_q
        phi2 = form2.local_series(center, curve.order + 6).antiderivative()
        phi2 = phi2 + (exp2.with_du.primitive(o, np.array([z_q]))[0]
                       - phi2.evaluate(s_q))
        lhs += (phi2 * form1.local_series(center, curve.order + 4)).residue()

    # sign matches the marking of curve.cycles with a counterclockwise
    # fundamental cell (A B A^-1 B^-1 boundary)
    rhs = sum(canonical_period(curve, form1, "b")
              * canonical_period(curve, form2, "a")
              - canonical_period(curve, form1, "a")
              * canonical_period(curve, form2, "b")
              for _ in curve.cycles) / (2j * np.pi)
    return abs(lhs - rhs)


def fay_residual(curve, z1, z2, z3, z4, w):
    """Relative residual of Fay's four-point bilinear theta identity;
    theta factors on the theta divisor are refused.  At genus 0 (theta = 1,
    E = z1 - z2) it is a rational identity."""
    T = curve.theta_off_divisor

    def E(a, b):
        return curve.prime_form(a - b)

    u12, u34 = z1 - z2, z3 - z4
    lhs = T(w) * T(u12 + u34 + w) * E(z1, z3) * E(z2, z4) \
        / (E(z1, z4) * E(z2, z3)) / (E(z1, z2) * E(z3, z4))
    rhs = T(w + u12) / E(z1, z2) * T(w + u34) / E(z3, z4) \
        - T(w + (z1 - z4)) / E(z1, z4) * T(w + (z3 - z2)) / E(z3, z2)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
