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

from . import quadrature
from .errors import (
    BadIndex,
    CoincidentPoints,
    DivergentRegularization,
    ResidueFreePreconditionViolated,
    TruncationTooShort,
    UnsupportedCycle,
)
from .forms import (
    DuForm,
    KernelForm,
    PoleTimes,
    SecondKindBasis,
    SumForm,
    ThirdKind,
    _label,
    _same_center,
    expansion,
    pole_frame,
    times_and_fillings,
)
from .series import _monomial, truncate

# a clear basepoint keeps this distance from poles and branch points
_BASEPOINT_CLEARANCE = 0.2
# the form less its expansion in the basis, c du, may differ between two
# points by this much of the values there before the expansion is refused
_EPS_GAP = 1e-10


# -- cycle periods --------------------------------------------------------------

def _translates(curve, pts):
    """The points, then their translates by the cycles into the
    neighbouring cells: the obstacles of cycle lines and clearances."""
    out = list(pts)
    for a, b in curve.cycles:
        out += [p + m * a + n * b for p in pts
                for m in (-1, 0, 1) for n in (-1, 0, 1) if m or n]
    return out


def _pole_translates(curve, form):
    """The form's finite poles and their translates."""
    return _translates(curve, [complex(c) for c, _ in form.poles()
                               if not isinstance(c, str)])


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
    oracle for riemann_bilinear_residual and the tests: the A line is
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
        else canonical_period(curve, decompose(curve, form)[2], which)


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


# -- two-point kernels ------------------------------------------------------------

def _apart(curve, z1, z2):
    """z1 - z2, refused where the prime form vanishes: on the diagonal,
    modulo the curve's lattice (whose only point is 0 on the sphere)."""
    v = z1 - z2
    if np.any(np.abs(v - curve._lattice_point(v)) < 1e-14):
        raise CoincidentPoints("prime form vanishes on the diagonal")
    return v


class Geometry:
    """Prime form, Bergman kernel and third-kind form for one curve."""

    def __init__(self, curve):
        self.curve = curve

    # prime form, reduced by sqrt(chart legs), broadcast over arrays
    def prime_form(self, z1, z2):
        return self.curve.prime_form(_apart(self.curve, z1, z2))

    def szego(self, z1, z2, zeta):
        """theta(z1 - z2 + zeta)/(theta(zeta) E(z1, z2)), broadcast over
        arrays."""
        return self.curve.szego_grid(_apart(self.curve, z1, z2), zeta)

    def bergman(self, z1, z2):
        """B(z1, z2)/(dchart dchart)."""
        return self.curve.bergman(_apart(self.curve, z1, z2))

    def third_kind(self, z1, z2, z):
        """dS_{z1,z2}(z)/dchart."""
        return ThirdKind(self.curve, z1, z2).value(z)


# -- prepotential ------------------------------------------------------------------

def _basepoints(curve):
    """The basepoint candidates, in the order they are tried."""
    if curve.genus == 1:
        return [0.37 + 0.21 * curve.tau, 0.61 + 0.43 * curve.tau,
                0.23 + 0.69 * curve.tau, 0.81 + 0.17 * curve.tau,
                0.13 + 0.57 * curve.tau]
    return [0.73 + 0.58j, -0.64 + 0.81j, 1.27 - 0.93j, -1.41 - 0.52j,
            0.31 + 1.62j]


def default_basepoint(curve):
    return _basepoints(curve)[0]


def clear_basepoint(curve, form):
    """A basepoint staying away from the form's poles and branch points.

    Only differences of chemical potentials are canonical, so any clear
    point will do; candidates are tried in a fixed order to keep runs
    reproducible.
    """
    cands = _basepoints(curve)
    rams = [r.location for r in curve.ramification_points]
    special = _pole_translates(curve, form) + _translates(curve, rams)
    for o in cands:
        if all(abs(o - p) > _BASEPOINT_CLEARANCE for p in special):
            return o
    return cands[0]


class Prepotential:
    """Value, chemical potentials and derivative lookups for one form."""

    def __init__(self, curve, form, value, mu, records, eps, basis,
                 b_periods):
        self.curve = curve
        self.form = form
        self.value = value
        self.mu = mu                     # {pole label: regularized potential}
        self.records = records          # PoleTimes list
        self.eps = eps
        self.basis = basis              # the form less 2 i pi eps du
        self.b_periods_omega = b_periods

    def dF_dt(self, center, j):
        """dF0/dt_{p,j} for j >= 1: (1/j) Res_p xi^-j omega.

        The 1/j matches the time normalization t_{p,j} = Res omega xi^j
        used throughout; it is pinned by the finite-difference oracle in
        the tests.
        """
        return _pairing(self._rec(center), j)

    def dF_deps(self, i=0):
        """dF0/deps_i, the B-period of the form on handle i."""
        if i not in range(self.curve.genus):
            raise UnsupportedCycle(f"no filling fraction eps_{i}")
        return self.b_periods_omega[i]

    def _rec(self, center):
        for r in self.records:
            if _same_center(r.center, center):
                return r
        raise BadIndex(f"{center} is not a pole of the form")

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


def _pairing(rec, j):
    """(1/j) Res_p xi^-j omega at the pole of a PoleTimes record."""
    xi = rec.frame.xi_of_s.retag(rec.series.var_tag)
    return (rec.series * xi.invert() ** j).residue() / j


def _key(center):
    return center if isinstance(center, str) else \
        (round(complex(center).real, 9), round(complex(center).imag, 9))


def prepotential(curve, form, basepoint=None):
    """F0 from the regularized pairing of the form with itself.

    The second-kind block enters as Res_p[(sum_j t_j/j xi^-j) omega]/2,
    the sign fixed by finite-difference oracles against the first
    derivative identities (dF0/dt_{p,j} = (1/j) Res xi^-j omega,
    dF0/deps = B-period, homogeneity of degree two).  The primitives of
    the chemical potentials and the B-periods are read off the form's
    expansion in the canonical basis.
    """
    o = basepoint if basepoint is not None else clear_basepoint(curve, form)
    records, eps, chi_basis = expansion(curve, form)
    basis = _with_du(curve, chi_basis, eps)
    obstacles = _pole_translates(curve, form)

    res_v = 0.0 + 0.0j
    mu = {}
    t0mu = 0.0 + 0.0j
    for rec in records:
        # Res_p V_p omega with V_p = sum_{j>=1} (t_j / j) xi^-j
        res_v += sum(t * _pairing(rec, j) for j, t in enumerate(rec.times)
                     if j and t != 0)
        mu[_key(rec.center)] = _mu_of(rec, basis, o, obstacles)
        t0mu += rec.times[0] * mu[_key(rec.center)]

    bper = [canonical_period(curve, basis, "b") for _ in curve.cycles]
    eps_term = sum(e * b for e, b in zip(eps, bper))
    value = 0.5 * (res_v + t0mu + eps_term)
    return Prepotential(curve, form, value, mu, records, eps, chi_basis,
                        bper)


def _mu_of(rec, basis, o, obstacles):
    """Regularized int_o^p (omega - dV_p - t_p0 dlog xi), matched on the
    way from p towards the basepoint; ``basis`` is omega in the canonical
    basis."""
    if rec.center == "inf":
        s_dir, dmin = 0.05 + 0.031j, 1.0
    else:
        p = complex(rec.center)
        dmin = min([abs(p - c) for c in obstacles if abs(p - c) > 1e-9],
                   default=1.0)
        s_dir = (complex(o) - p)
        s_dir /= abs(s_dir)
    _, mu = _regular_primitive(basis, o, rec.frame, rec.series, rec.times,
                               s_dir, 0.2 * min(1.0, dmin))
    return mu


def _regular_primitive(basis, o, frame, h, times, s_dir, scale):
    """(W, K) for a form with series h at the pole ``frame.location``
    and times t_j there, written ``basis`` in the canonical basis.

    Near the pole, form = dV + t_0 dlog(xi) + w(xi) dxi with
    V = -sum_{j>=1} t_j/j xi^-j; W is the zero-based primitive of w and
    K = int_o^p (form - dV - t_0 dlog xi), with int_o^z form from the
    atoms of the basis.  K is matched at s = scale * s_dir, halving the
    scale (up to 10 times) until the series of W has converged there.
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
    for e, bp, (a, b) in zip(prep.eps, prep.b_periods_omega,
                             prep.curve.cycles):
        value = value - e * bp + 1j * np.pi * e * e * (b / a)
    return value


# -- canonical basis and decomposition ----------------------------------------------

def basis_form(curve, rec_or_center, j, basepoint=None):
    """omega_{p,j}: dS_{p,o} for j = 0 (-dz/(z - o) for p = inf on the
    sphere), second kind for j >= 1."""
    center = rec_or_center.center if isinstance(rec_or_center, PoleTimes) \
        else rec_or_center
    if j == 0:
        o = basepoint if basepoint is not None else default_basepoint(curve)
        if center == "inf":
            return KernelForm(curve, [(o, [-1.0])])
        return ThirdKind(curve, center, o)
    return SecondKindBasis(curve, pole_frame(curve, center), j)


def _with_du(curve, basis, eps):
    """basis + sum 2 i pi eps du."""
    return SumForm([(1.0, basis)] + [(2j * np.pi * e, DuForm(curve))
                                     for e in eps if abs(e) > 1e-13])


def decompose(curve, form):
    """(records, eps, the form rebuilt in the canonical basis)."""
    records, eps, basis = expansion(curve, form)
    return records, eps, _with_du(curve, basis, eps)


def _filling_fractions(curve, form, basis, records, j_cap):
    """eps of the form with ``basis`` its expansion less c du: the basis
    forms have no A-periods, so the form less ``basis`` is c du, c = 2 i pi
    eps, read at the clear basepoint (0 on the sphere).  Read at the next
    candidate, c differs by at most 2.7e-15 of the values there over the
    forms of the tests; past _EPS_GAP of them, TruncationTooShort backs up
    the refusal of a pole deeper than j_cap."""
    cands = _basepoints(curve)
    o = clear_basepoint(curve, form)
    vals = [(form.value(z), basis.value(z))
            for z in (o, cands[(cands.index(o) + 1) % len(cands)])]
    (c1, c2), scale = [f - b for f, b in vals], max(map(abs, sum(vals, ())))
    if not abs(c1 - c2) <= _EPS_GAP * max(1.0, scale):
        deep = max(records, key=lambda r: len(r.times))
        raise TruncationTooShort(
            f"the times at {_label(deep.center)} stop after {len(deep.times)} "
            f"terms (j_cap = {j_cap}): the form less its expansion is "
            f"{c1:.6g} du at one basepoint and {c2:.6g} du at the next")
    return np.array([c1 / (2j * np.pi) for _ in curve.cycles],
                    dtype=complex)


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

    # sign matches the marking of curve.cycles with a counterclockwise
    # fundamental cell (A B A^-1 B^-1 boundary)
    period = quadrature_period
    rhs = sum(period(curve, form1, "b") * period(curve, form2, "a")
              - period(curve, form1, "a") * period(curve, form2, "b")
              for _ in curve.cycles) / (2j * np.pi)
    return abs(lhs - rhs)


def fay_residual(curve, z1, z2, z3, z4, w):
    """Relative residual of Fay's four-point bilinear theta identity;
    theta factors on the theta divisor are refused.  At genus 0 (theta = 1,
    E = z1 - z2) it is a rational identity."""
    geo = Geometry(curve)
    E, T = geo.prime_form, curve.theta_off_divisor

    u12, u34 = z1 - z2, z3 - z4
    lhs = T(w) * T(u12 + u34 + w) * E(z1, z3) * E(z2, z4) \
        / (E(z1, z4) * E(z2, z3)) / (E(z1, z2) * E(z3, z4))
    rhs = T(w + u12) / E(z1, z2) * T(w + u34) / E(z3, z4) \
        - T(w + (z1 - z4)) / E(z1, z4) * T(w + (z3 - z2)) / E(z3, z2)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
