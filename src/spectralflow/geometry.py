"""Periods, the canonical basis and the identity checks of a spectral curve.

F0 and its derivatives are read off a form's one expansion in the
canonical basis (``forms.Expansion``).  ``canonical_period`` gives the
closed-form A- and B-periods; the Riemann bilinear check reads them and
its second form's potentials at the poles in closed form too.
``line_integral`` integrates by adaptive quadrature instead: an oracle
for the closed-form primitives, called by the tests and by the B-loop
transport check of ``classical``.
The two-point kernels (prime form, Bergman kernel, Szego factor) are the
curve's own (``SpectralCurve.prime_form``, ``bergman``, ``szego_grid``),
reported with the chart legs stripped: on the sphere E(z1, z2) sqrt(dz1
dz2) = z1 - z2, on the torus theta1(u1 - u2)/theta1'(0).
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .errors import ResidueFreePreconditionViolated, UnsupportedCycle
from .forms import (
    KernelForm,
    SecondKindBasis,
    SumForm,
    ThirdKind,
    _basepoints,
    expansion,
    pole_frame,
)


# -- cycle periods --------------------------------------------------------------

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
    each pole is the primitive of form2's local series plus the potential
    there of form2's expansion, its limit less the polar part, and the
    periods are ``canonical_period``'s.  o is that expansion's basepoint
    unless given.
    """
    exp2 = expansion(curve, form2)
    for rec in exp2.records:
        res = rec.series.residue()
        if abs(res) > 1e-10:
            raise ResidueFreePreconditionViolated(
                f"form2 has residue {res} at {rec.center}")
    o = basepoint if basepoint is not None else exp2.basepoint

    lhs = 0.0 + 0.0j
    for center in (form1 + form2).poles():
        phi2 = form2.local_series(center, curve.order + 6).antiderivative() \
            + exp2.with_du.potential(center, o)
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
