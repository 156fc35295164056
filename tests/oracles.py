"""Oracles kept on the test side.

``quadrature_period`` integrates a form over an A- or B-cycle by
adaptive quadrature, an oracle for ``geometry.canonical_period``;
``continue_sheets`` tracks the preimages of x along a path by Newton.

``leg_matrix`` reads B_{a,k}(z)/dchart in one ``bergman_leg`` call, past
the engine's leg memo; ``residue_at_point`` is a contour quadrature of
the residue of a form at a ramification point, from those legs.  The
difference probes: ``ode_matrix_fd`` takes the Lax ODE's x-derivative by
Richardson-extrapolated central differences, ``ode_growth_probe`` reads a
log-log growth exponent of the closed-form ODE matrix, and
``heat_equation_residual`` differences theta1 in tau.

``torus_chart_by_series`` solves a torus frame's chart by series
arithmetic, an oracle for ``Genus1Curve._frame_chart``'s closed form.
``rows_by_pair`` builds the row tables of one pair (b, a) alone, an
oracle for ``RecursionEngine._rows``, which builds a list of pairs
together.
"""

import numpy as np

from spectralflow import quadrature
from spectralflow.classical import ode_matrix
from spectralflow.curve import _solve_x
from spectralflow.errors import UnsupportedCycle
from spectralflow.forms import _translates
from spectralflow.recursion import _head, _log_derivative
from spectralflow.series import TruncSeries, truncate
from spectralflow.theta import ThetaEvaluator


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
    """The A- (``which`` "a") or B-period of the form by quadrature: the A
    line is [c B, c B + A] and the B line [c A, c A + B] for the curve's
    cycle periods (A, B) and the offset c that keeps the line farthest
    from the form's poles."""
    if curve.genus == 0:
        raise UnsupportedCycle(f"no {which.upper()}-cycle at genus 0")
    (a, b), = curve.cycles
    step, across = (a, b) if which == "a" else (b, a)
    c = _best_offset(_translates(curve, form.poles()), step, across)
    return quadrature.integrate_path(form.value,
                                     [c * across, c * across + step])


def continue_sheets(curve, x_path, preimages):
    """Track preimages along a discrete x-path by nearest Newton basin;
    RootFindingFailed where a step's Newton misses its x."""
    current = list(preimages)
    for x in x_path:
        current = [curve.to_cell(_solve_x(curve.x_value, curve.dx_value, x, z))
                   for z in current]
    return current


def torus_chart_by_series(curve, frame, n):
    """(s(xi), Y(p + s(xi)) or None) through xi^n at a frame of the torus
    by series arithmetic: s'(xi) = (dwp/dxi)/wp' with wp'^2 = 4 prod_i (wp
    - e_i), on the branch s'(0) xi'(0) = 1, where wp = xi^-d/x_scale at
    the pole u = 0 and wp(p) + xi^e/x_scale elsewhere; at a ramification
    point Y = R1(wp) + R2(wp) wp'."""
    # n terms of wp give s through xi^n at every kind of frame
    head = np.zeros(n, dtype=complex)
    head[0] = 1.0 / curve.x_scale
    wp = TruncSeries(head, -frame.order, frame.tag)
    if frame.order < 0:
        wp = wp + curve.ell.wp(frame.location)
    root = wp - curve._e[0]
    for e in curve._e[1:]:
        root = root * (wp - e)
    root = (root * 4.0).sqrt()
    ds = wp.differentiate() * root.invert()
    if (ds.coeff(0) * frame.xi_prime).real < 0:
        ds, root = -ds, -root
    s = ds.antiderivative()
    if frame.order != -2:
        return s, None
    return s, truncate(curve.R1.of(wp) + curve.R2.of(wp) * root, n,
                       absolute=True)


def rows_by_pair(eng, b, a):
    """The row tables (b, a) and, off the diagonal, (a, b) of an engine,
    from one expansion of log E(c + V), c = r_b - r_a, V = s_b(zeta1) -
    s_a(zeta2), for the pair alone: one kernel jet at the scalar c and
    the 2-D products of each step (see ``RecursionEngine._rows``)."""
    n1 = eng.m_rows + 1
    n2 = n1 + 6
    box = n1 if b == a else n2
    e = np.add.outer(np.arange(box), np.arange(n2))
    o, rho = eng.curve._regular_jet(
        eng.rams[b].location - eng.rams[a].location, box + n2 - 2)
    P = eng._powers(n2 - 1)
    Pb, Pa = P[b, :box, :box], P[a]
    if b == a:
        W = eng._s[a][e + 1]
    else:
        W = np.zeros((box, n2), dtype=complex)
        W[:, 0], W[0] = Pb[1], -Pa[1]
        W[0, 0] = o
    fact = np.cumprod(np.append(1.0, np.arange(1.0, box + n2 - 1)))
    H = rho[e] * fact[e] / np.outer(fact[:box], fact[:n2]) \
        * (-1.0) ** np.arange(n2)
    D = _log_derivative(W[None])[0] + np.arange(box)[:, None] \
        * (Pb.T @ H @ Pa)
    out = {(b, a): D[1:n1, 1:] * np.arange(1, n2)}
    if b != a:
        out[a, b] = D.T[1:n1, 1:] * np.arange(1, n1)[:, None]
    return out


def leg_matrix(eng, basis, points):
    """B_{a,k}(z)/dchart for (a, k) in ``basis`` (rows) and z in
    ``points`` (columns), every point read afresh to the basis's top k."""
    owner, ks = np.array(basis, dtype=int).reshape(-1, 2).T
    top = int(ks.max())
    c = np.array([r.location for r in eng.rams])[:, None] \
        - np.asarray(points, dtype=complex)
    legs = eng.curve.bergman_leg(c, eng._powers(top)[:, 1], eng._gamma(top))
    return legs[owner, ks - 1]


def residue_at_point(eng, form, a, other_points, radius=5e-2, samples=600):
    """Contour-quadrature oracle for the residue at ramification point a
    in the first slot, remaining slots frozen.  The contour samples and
    the spectators are one ``leg_matrix`` read, and the spectators are
    contracted once."""
    s = eng.s_of[a]
    zeta = radius * np.exp(2j * np.pi * (np.arange(samples) + 0.5)
                           / samples)
    z = eng.rams[a].location + s.evaluate(zeta)
    dz = s.differentiate().evaluate(zeta)
    M = leg_matrix(eng, form.basis,
                   np.concatenate([z, np.ravel(other_points)]))
    head = _head(form, M[:, samples:])
    return complex(np.mean((head @ M[:, :samples]) * dz * zeta))


def ode_matrix_fd(system, x1, x, h=3e-4):
    """``classical.ode_matrix`` with dG/dx of the factored sheet matrix
    taken by central differences at the steps h max(1, |x|) and half it,
    Richardson-extrapolated."""
    h *= max(1.0, abs(x))
    Gp, Gm, Gp2, Gm2, G = (g for _, g, _ in system._blocks(
        [(x1, x + h), (x1, x - h), (x1, x + h / 2), (x1, x - h / 2),
         (x1, x)]))
    d1, d2 = (Gp - Gm) / (2 * h), (Gp2 - Gm2) / h
    sh, _ = system.sheet_data(x)
    rate = np.array([(system.chi.value(z) - 2j * np.pi * system._turns)
                     / system.curve.dx_value(z) for z in sh.preimages])
    Ginv = np.linalg.inv(G)
    return ((4 * d2 - d1) / 3 - G * rate) @ Ginv \
        + np.eye(len(G)) / (x - x1)


def ode_growth_probe(system, x1, target, dists=(1e-2, 1e-3), direction=1.0):
    """log-log growth exponent of |M(x)| as x -> target."""
    vals = []
    for d in dists:
        x = target + direction * d
        vals.append(np.abs(ode_matrix(system, x1, x)).max())
    return np.log(vals[1] / vals[0]) / np.log(dists[1] / dists[0])


def heat_equation_residual(tau, u, h=1e-4):
    """|d_tau theta1 - (1/4 i pi) d_u^2 theta1| by central differences."""
    up = ThetaEvaluator(tau + h)
    dn = ThetaEvaluator(tau - h)
    mid = ThetaEvaluator(tau)
    dtau = (up.theta1(u) - dn.theta1(u)) / (2 * h)
    return abs(dtau - mid.theta1(u, 2) / (4j * np.pi))
