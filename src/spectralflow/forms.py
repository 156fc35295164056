"""Meromorphic 1-forms on a spectral curve.

Forms are represented against the global chart (z on the sphere, u on
the torus): ``value(z)`` returns g with omega = g dz, elementwise over
an ndarray of points (a constant form may return its scalar, which
broadcasts), and ``local_series(center, order)`` the series of g in the
chart offset (``series_at`` at a list of centers); ``center`` may be the
string "inf" on the sphere, where the series is taken in w = 1/z and
omega = h(w) dw.  The canonical basis and its sums also give
``primitive(o, zs)``: [int_o^z for z in zs] along the straight segments,
in closed form from the curve's log E, and ``potential(q, o)``: the limit
of int_o^(q+s) less its polar part and residue times Log s as s -> 0.

Every form built from the prime form is one KernelForm: a sum over
finite poles of residues of the Bergman kernel, whose series an expansion
reads off one batched jet of log E.  ThirdKind (dS), BergmanLeg and
SecondKindBasis (omega_{p,j}) construct it.  Besides, Y dX, c du, sums,
and R(z) dz for a rational R, whose series is R.of the chart variable
(w^-1 at inf; ``RationalFunction.of``).

``expansion(curve, form)`` reads any form once into an Expansion record:
a PoleTimes at each pole, whose times and dual pairings are coefficients
of the form in the pole's coordinate, its filling fractions eps, the form
less 2 i pi eps du in the canonical basis (one KernelForm, plus a
polynomial at inf on the sphere), that with its du terms, zeta (the
B-period over 2 i pi) and the basepoint at which eps was read.  The
record gives F0 and its derivatives, and the classical system keeps it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .curve import Frame, RationalFunction, _about
from .errors import (
    BadIndex,
    DivergentRegularization,
    NotRepresentable,
    PoleAtRamificationPoint,
    ResidueSumNonzero,
    TruncationTooShort,
    UnsupportedCycle,
)
from .series import TruncSeries, _horner, constant, truncate


class Form1:
    """Base class; subclasses provide value, poles and local_series, or
    series_at where the reads at several centers share work."""

    def value(self, z):  # pragma: no cover
        """g(z) with omega = g dz, for a point or elementwise over an
        ndarray of points; a constant may come back as a scalar."""
        raise NotImplementedError

    def local_series(self, center, order):
        return self.series_at([center], order)[0]

    def series_at(self, centers, order):
        """[local_series(c, order) for c in centers]."""
        return [self.local_series(c, order) for c in centers]

    def poles(self):
        """The centres of the form's poles: chart values, or "inf"."""
        return []

    def potential(self, q, o):
        """P at q: the limit of int_o^(q+s) less its polar part in s and
        r_q Log s as s -> 0 along ``_ray(q, o)``, r_q the residue at q;
        where the form is regular, its primitive at q."""
        return self.primitive(o, np.array([q]))[0]

    def cycle_period(self, which):
        """Closed-form A/B-period coherent with in-cell paths, or None.

        ``canonical_period`` and Expansion's zeta call it, on a curve with
        cycles and on one atom at a time: they expand a SumForm into its
        terms themselves."""
        return None

    def __add__(self, other):
        return SumForm([(1.0, self), (1.0, other)])

    def __mul__(self, c):
        return SumForm([(complex(c), self)])

    __rmul__ = __mul__

    def __sub__(self, other):
        return SumForm([(1.0, self), (-1.0, other)])


class SumForm(Form1):
    def __init__(self, terms):
        flat = []
        for c, f in terms:
            if isinstance(f, SumForm):
                flat.extend((c * c2, f2) for c2, f2 in f.terms)
            else:
                flat.append((complex(c), f))
        self.terms = flat

    def value(self, z):
        return sum(c * f.value(z) for c, f in self.terms)

    def series_at(self, centers, order):
        """Each term's series at every center, those of its KernelForms in
        one batched read, summed in the order of the terms."""
        kernels = [f for _, f in self.terms if isinstance(f, KernelForm)]
        batch = iter(_kernel_series(kernels, centers, order))
        each = [[s * c for s in (next(batch) if isinstance(f, KernelForm)
                                 else f.series_at(centers, order))]
                for c, f in self.terms]
        return [sum(row[1:], row[0]) for row in zip(*each)]

    def primitive(self, o, zs):
        return sum((c * f.primitive(o, zs) for c, f in self.terms),
                   np.zeros(len(zs), dtype=complex))

    def potential(self, q, o):
        return sum(c * f.potential(q, o) for c, f in self.terms)

    def poles(self):
        seen = []
        for _, f in self.terms:
            seen += [p for p in f.poles()
                     if not any(_same_center(p, q) for q in seen)]
        return seen


def _label(center):
    return center if isinstance(center, str) else f"{complex(center):.6g}"


def _same_center(a, b, tol=1e-9):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(complex(a) - complex(b)) < tol


class RationalDz(Form1):
    """R(z) dz on the sphere."""

    def __init__(self, R):
        self.R = R

    def value(self, z):
        return self.R(z)

    def local_series(self, center, order):
        if center == "inf":
            # omega = R(1/w) d(1/w) = -R(1/w) w^-2 dw
            return -_about(self.R, "inf", order + 4).shift(-2)
        # untagged, as the kernel forms' series are
        return _about(self.R, center, order).retag("")

    def primitive(self, o, zs):
        """int_o^z R dz for a polynomial R (the second-kind atoms at inf)."""
        if len(self.R.den) > 1:
            raise NotRepresentable("a primitive needs a polynomial R")
        integral = np.polynomial.polynomial.polyint(self.R.num / self.R.den[0])
        vals = np.polynomial.polynomial.polyval(np.append(zs, o), integral)
        return vals[:-1] - vals[-1]

    def potential(self, q, o):
        # at inf, Q(1/w) - Q(o) less its polar part is Q(0) - Q(o)
        return self.primitive(o, np.array([0.0 if q == "inf" else q]))[0]

    def poles(self):
        out = [p for p, _ in self.R.finite_poles()]
        # R ~ z^-1 or larger at inf: R dz = -R(1/w) w^-2 dw has a pole
        return out + ["inf"] if len(self.R.num) + 1 >= len(self.R.den) \
            else out


class YdX(Form1):
    """The distinguished form Y dX of the curve."""

    def __init__(self, curve):
        self.curve = curve

    def value(self, z):
        return self.curve.ydx_value(z)

    def local_series(self, center, order):
        cv = self.curve
        depth = 2 * max(p.order for p in cv.x_poles) + 4
        y = cv.y_series(center, order + depth)
        dx = cv.x_series(center, order + depth).differentiate()
        return y * dx

    def poles(self):
        cv = self.curve
        out = [p.location for p in cv.x_poles]
        if cv.genus == 0:
            more = [p for p, _ in cv.Y.finite_poles()]
        else:
            more = [u for R in (cv.R1, cv.R2) for root, _ in R.finite_poles()
                    for u in cv.sheets_above(cv.x_scale * root,
                                             allow_near_branch=True).preimages]
        for p in more:
            if not any(_same_center(p, q) for q in out):
                out.append(p)
        return out


class DuForm(Form1):
    """c du, the holomorphic form on the torus."""

    def __init__(self, curve, c=1.0):
        if curve.genus != 1:
            raise UnsupportedCycle("holomorphic forms need genus 1")
        self.curve = curve
        self.c = complex(c)

    def value(self, z):
        return self.c

    def local_series(self, center, order):
        return constant(self.c, order=order)

    def primitive(self, o, zs):
        return self.c * (zs - o)

    def poles(self):
        return []

    def cycle_period(self, which):
        (a, b), = self.curve.cycles
        return self.c * (a if which == "a" else b)


class KernelForm(Form1):
    """sum_p sum_k head_p[k] K_k(z - p) dz over finite poles p, K_k the
    residue of B = d1 d2 log E with principal part (z - p)^-(k+1) dz and no
    A-period.  With L_n(v) = [t^n] log E(v + t), d/dz L_n(z - p) = (n + 1)
    L_(n+1)(z - p) gives K_k = (-1)^k (k + 1) L_(k+1) and the primitive
    sum_k (-1)^k head_p[k] L_k(z - p), L_0 = log E continued along the
    segment: head_p[0] = r_p is the residue (K_0 = P = (log E)'), head_p[m+1]
    = (m + 1) a_(p,m) weighs F^(m)(p - z)/m! (F = -(log E)''), and the
    B-period is 2 i pi sum_p (r_p p + a_(p,0)), p reduced to the cell, where
    log E(z - p) has no A-period.  Each quantity reads one batched jet of
    log E: ``series_at`` one over every offset c - p off the pole.  On the
    sphere, residues that do not sum to 0 leave a simple pole at inf."""

    def __init__(self, curve, parts):
        self.curve = curve
        self.parts = [(complex(curve.to_cell(p)),
                       np.asarray(h, dtype=complex)) for p, h in parts]
        self.centers = np.array([p for p, _ in self.parts])
        width = max(len(h) for _, h in self.parts)
        # row p: (-1)^k head_p[k], the weight of L_k(z - p) in the primitive
        self.signed = np.array([np.pad(h, (0, width - len(h)))
                                for _, h in self.parts]) \
            * (-1.0) ** np.arange(width)

    def _sum(self, weights, z, poles):
        """sum_(k>=1) weights[p, k-1] L_k(z - p) over the poles selected, from
        one jet, summed in order: a z gets the same bits in any batch."""
        if not weights.size:
            return 0.0
        shape = (-1,) + (1,) * np.ndim(z)
        jet = self.curve._log_prime_jet(z - self.centers[poles].reshape(
            shape), weights.shape[1])[1:]
        return (weights.T.reshape(jet.shape[:2] + shape[1:]) * jet).sum((0, 1))

    def value(self, z):
        return self._sum(self.signed * np.arange(1, self.signed.shape[1] + 1),
                         z, Ellipsis)

    def primitive(self, o, zs):
        r, deep = self.signed[:, 0], np.any(self.signed[:, 1:], axis=1)
        out = np.zeros(len(zs), dtype=complex)
        if np.any(r):
            p = self.centers[r != 0, None]
            out += r[r != 0] @ self.curve._log_prime_rise(o - p, zs - p)
        if np.any(deep):
            vals = self._sum(self.signed[deep, 1:], np.append(zs, o), deep)
            out += vals[:-1] - vals[-1]
        return out

    def potential(self, q, o):
        """The primitive's terms at q, but at a pole p = q their limits: log E
        rises from o - p to s1 = d/10 on the ray, less Log s1 and rho(s1) =
        Log(E(s1)/s1), rho(0) = 0 (nearer 0, log(1 - e^(-2 i pi s1)) loses
        digits), and L_k less its pole is rho_k, the lattice jet of
        log(E(t)/t).  At inf on the sphere L_k -> 0, and the rise from o - p
        to 1/w - p plus Log w tends to Log d - Log(d (o - p))."""
        p, r, deep, cv = self.centers, self.signed[:, 0], self.signed[:, 1:], \
            self.curve
        d, out = _ray(q, o), -self._sum(deep, o, Ellipsis)
        if q == "inf":
            return out + r @ (np.log(d) - np.log(d * (o - p)))
        at, s1 = np.abs(p - q) < 1e-9, 0.1 * d
        rho = cv._log_prime_jet(0.0, deep.shape[1], 0.0)[1:]
        return out + r @ cv._log_prime_rise(o - p, np.where(at, s1, q - p)) \
            - r @ at * (np.log(s1) + np.log(cv.prime_form(s1) / s1)) \
            + at @ deep @ rho + self._sum(deep[~at], q, ~at)

    def series_at(self, centers, order):
        return _kernel_series([self], centers, order)[0]

    def poles(self):
        out = [p for p, _ in self.parts]
        return out + ["inf"] if abs(np.sum(self.signed[:, 0])) > 1e-10 \
            else out

    def cycle_period(self, which):
        return 0.0 if which == "a" else 2j * np.pi * sum(
            h[0] * p + (h[1] if len(h) > 1 else 0)
            for p, h in self.parts)


def _kernel_series(forms, centers, order):
    """[[the series of f at c for c in centers] for f in forms], KernelForms
    of one curve: every finite offset c - p of every form from one
    curve.kernel_series read, at "inf" kernel_at_infinity per pole."""
    reads = [(c - p, h) for f in forms for c in centers
             if not isinstance(c, str) for p, h in f.parts]
    got = iter(forms[0].curve.kernel_series(*zip(*reads), order)
               if reads else ())

    def at(f, c):
        terms = [f.curve.kernel_at_infinity(p, h, order) if isinstance(c, str)
                 else next(got) for p, h in f.parts]
        return sum(terms[1:], terms[0])
    return [[at(f, c) for c in centers] for f in forms]


def ThirdKind(curve, z1, z2):
    """dS_{z1,z2}: simple poles +1 at z1 and -1 at z2."""
    return KernelForm(curve, [(z1, [1.0]), (z2, [-1.0])])


def BergmanLeg(curve, z0, scale=1.0):
    """scale * B(z0, .) with one leg frozen at z0."""
    return KernelForm(curve, [(z0, [0.0, scale])])


def SecondKindBasis(curve, pole, j):
    """omega_{p,j} at the Frame ``pole``: principal part xi^-(j+1) dxi =
    -(1/j) d(xi^-j) at p and no other pole; at inf on the sphere the
    polynomial -sum_m head[m+1] z^m dz (z^m dz = -w^-(m+2) dw)."""
    if j < 1:
        raise BadIndex(f"second-kind index j = {j} must be >= 1")
    head = _principal_part((pole.xi_of_s.invert() ** j).differentiate()
                           * (-1.0 / j))
    if pole.location == "inf":
        return RationalDz(RationalFunction(-head[1:]))
    return KernelForm(curve, [(pole.location, head)])


def _principal_part(h, tol=0.0):
    """[h_(-1), h_(-2), ...], the coefficients of a series h at its negative
    powers, without the trailing ones of modulus <= tol."""
    head = h.coeffs[:max(-h.k_min, 0)][::-1]
    return head[:np.flatnonzero(np.abs(head) > tol).max(initial=-1) + 1]


# -- times, filling fractions and the canonical basis -----------------------------

# principal-part coefficients this small in modulus are 0
_HEAD_TOL = 1e-10
# a clear basepoint keeps this distance from poles and branch points
_BASEPOINT_CLEARANCE = 0.2
# the form less its expansion in the basis, c du, may differ between two
# points by this much of the values there before the expansion is refused
_EPS_GAP = 1e-10


class PoleTimes:
    """Laurent data of a form at one pole, in the local coordinate xi of
    ``frame`` (its order d_p): the form's series there in the chart and its
    principal part, and, read on first use, ``local``, the form in xi, whose
    coefficients are its times and its dual pairings."""

    def __init__(self, center, frame, series, head):
        self.center = center
        self.frame = frame
        self.series = series        # the form's local series at center
        self.head = head            # _principal_part of the series

    @cached_property
    def local(self):
        """h(s(xi)) s'(xi), the form as local dxi."""
        s = self.frame.s_of_xi
        return self.series.compose(s) * s.differentiate()

    @cached_property
    def times(self):
        """t_j = Res omega xi^j = [xi^(-j-1)] local, j below the pole's
        order (t_0 alone where the principal part vanishes)."""
        return np.array([self.local.coeff(-j - 1)
                         for j in range(max(len(self.head), 1))])

    def pairing(self, j):
        """(1/j) Res xi^-j omega = [xi^(j-1)] local / j, for j >= 1."""
        return self.local.coeff(j - 1) / j

    def regularized(self, form, o):
        """(W, K) at this pole for ``form``, the record's form written in
        the canonical basis.

        Near the pole, form = dV + t_0 dlog(xi) + w(xi) dxi with
        V = -sum_{j>=1} t_j/j xi^-j; w is the regular part of ``local``, W
        its zero-based primitive and K = int_o^p (form - dV - t_0 dlog xi),
        the regularized potential: the limit of int_o^(p+s) form - V - t_0
        Log xi as s -> 0 along d = ``_ray(p, o)``, in closed form P - [s^0]
        V(xi(s)) + t_0 (Log d - Log(xi'(0) d)), P the form's ``potential``
        at p.  A K that is not finite is refused.
        """
        frame, times, local = self.frame, self.times, self.local
        lo = max(-local.k_min, 0)
        W = TruncSeries(local.coeffs[lo:], local.k_min + lo,
                        local.var_tag).antiderivative()
        d = _ray(self.center, o)
        # [s^0] xi^-j reads xi through s^(j+1) only
        V0 = _horner(np.append(0.0, -times[1:] / np.arange(1, len(times))),
                     truncate(frame.xi_of_s, len(times)).invert()).coeff(0)
        K = form.potential(self.center, o) - V0 \
            + times[0] * (np.log(d) - np.log(frame.xi_prime * d))
        if not np.isfinite(K):
            raise DivergentRegularization(
                f"regularized potential at {frame.location} not finite")
        return W, K

    @property
    def kind(self):
        """'x_pole' at a pole of X (frame order d_p > 0), else 'omega_pole'."""
        return "x_pole" if self.frame.order > 0 else "omega_pole"

    def __repr__(self):
        return f"PoleTimes({self.center}, kind={self.kind}, t={self.times})"


def _ray(center, o):
    """The direction d of the offset s at ``center`` towards o; at inf on
    the sphere, the fixed 0.05 + 0.031 i of w."""
    return 0.05 + 0.031j if center == "inf" \
        else (o - center) / abs(o - center)


class Expansion:
    """One form read once in the canonical basis.

    ``records``: its PoleTimes, one per pole of the form or of X;
    ``eps``: its filling fractions, one per handle;
    ``basis``: the form less 2 i pi eps du, the sum of its principal parts
    (t_(p,0) dS + sum_j t_(p,j) omega_(p,j)), whose A-periods vanish;
    ``with_du``: basis + 2 i pi eps du, the form itself;
    ``zeta``: the B-period of ``basis`` over 2 i pi (0 on the sphere);
    ``b_periods``: the form's B-period 2 i pi (zeta + eps B) on each handle
    (A, B), dF0/deps;
    ``basepoint``: the clear point at which eps was read."""

    def __init__(self, curve, records, eps, basis, basepoint):
        self.curve = curve
        self.records = records
        self.eps = eps
        self.basis = basis
        self.with_du = SumForm([(1.0, basis)] + [
            (2j * np.pi * e, DuForm(curve)) for e in eps if abs(e) > 1e-13])
        self.zeta = sum(sum(c * f.cycle_period("b") for c, f in basis.terms)
                        for _ in curve.cycles) / (2j * np.pi)
        self.b_periods = [2j * np.pi * (self.zeta + e * b)
                          for e, (_, b) in zip(eps, curve.cycles)]
        self.basepoint = basepoint

    def F0(self, basepoint=None):
        """F0 from the regularized pairing of the form with itself.

        The second-kind block enters as Res_p[(sum_j t_j/j xi^-j) omega]/2,
        the sign fixed by finite-difference oracles against the first
        derivative identities (dF0/dt_{p,j} = (1/j) Res xi^-j omega,
        dF0/deps = B-period, homogeneity of degree two), and each t_(p,0)
        pairs with the form's regularized potential at p, from ``basepoint``,
        on the principal branch of Log (``PoleTimes.regularized``): F0 is
        defined modulo pi i t_(p,0) t_(q,0), and moves by one such multiple
        where xi'(0) d crosses the cut of Log as the basepoint moves.
        """
        o = basepoint if basepoint is not None else self.basepoint
        res_v = t0mu = 0.0 + 0.0j
        for rec in self.records:
            # Res_p V_p omega with V_p = sum_{j>=1} (t_j / j) xi^-j
            res_v += sum(t * rec.pairing(j) for j, t in enumerate(rec.times)
                         if j and t != 0)
            # t_p0 times the regularized potential mu_p
            t0mu += rec.times[0] * rec.regularized(self.with_du, o)[1]
        eps_term = sum(e * b for e, b in zip(self.eps, self.b_periods))
        return 0.5 * (res_v + t0mu + eps_term)

    def shifted_F0(self, basepoint=None):
        """F0 - sum eps dF0/deps + i pi eps.tau.eps, tau = B/A over the
        cycles: F0 itself on the sphere."""
        value = self.F0(basepoint)
        for e, bp, (a, b) in zip(self.eps, self.b_periods,
                                 self.curve.cycles):
            value = value - e * bp + 1j * np.pi * e * e * (b / a)
        return value

    def dF_dt(self, center, j):
        """dF0/dt_{p,j} = (1/j) Res_p xi^-j omega for j >= 1, the 1/j that of
        the times t_{p,j} = Res omega xi^j (pinned by the finite-difference
        oracle in the tests); refused at a center that is no pole."""
        for rec in self.records:
            if _same_center(rec.center, center):
                return rec.pairing(j)
        raise BadIndex(f"{center} is not a pole of the form")

    def dF_deps(self, i=0):
        """dF0/deps_i, the B-period of the form on handle i."""
        if i not in range(len(self.eps)):
            raise UnsupportedCycle(f"no filling fraction eps_{i}")
        return self.b_periods[i]


def pole_frame(curve, center):
    """The Frame at ``center``: the curve's own at a pole of X, which a
    chart value matches once reduced to the cell, else a regular frame
    xi = X - X(center) (order -1), built once per point and curve and held
    in its ``frame_cache``, refused where X - X(center) vanishes to second
    order."""
    cell = curve.to_cell(center)
    xp = next((p for p in curve.x_poles
               if _same_center(p.location, cell)), None)
    if xp is not None:
        return xp
    if center not in curve.frame_cache:
        frame = Frame(curve, center, -1)
        if abs(frame.xi_prime) < 1e-12:
            raise PoleAtRamificationPoint(
                f"coordinate X - X(p) degenerate at {center}")
        curve.frame_cache[center] = frame
    return curve.frame_cache[center]


def expansion(curve, form: Form1) -> Expansion:
    """The form's Expansion: a record at every pole, its filling fractions
    and its canonical basis, built once.

    A pole at a ramification point is refused, and so is one deeper than
    j_cap = curve order - 4; the residue theorem is enforced as a check.
    The filling fractions are read off a point value of the form less its
    expansion in the canonical basis.
    """
    j_cap = curve.order - 4
    records = []
    centers = list(form.poles())
    # poles of X always get a record, even if all times vanish
    for xp in curve.x_poles:
        if not any(_same_center(xp.location, c) for c in centers):
            centers.append(xp.location)

    for r in curve.ramification_points:
        if any(_same_center(c, r.location) for c in centers):
            raise PoleAtRamificationPoint(
                f"form has a pole at ramification point {r.location}")
    for center, h in zip(centers, form.series_at(centers, curve.order + 6)):
        head = _principal_part(h, _HEAD_TOL)
        if len(head) > j_cap:
            raise TruncationTooShort(
                f"the pole at {_label(center)} has order {len(head)}, past "
                f"j_cap = {j_cap}")
        rec = PoleTimes(center, pole_frame(curve, center), h, head)
        if rec.kind == "x_pole" or len(head):   # else cancelled in a SumForm
            records.append(rec)

    total = sum(r.series.residue() for r in records)
    if abs(total) > 1e-8:
        raise ResidueSumNonzero(f"sum of residues = {total:.6g}: " + ", ".join(
            f"{r.series.residue():.3g} at {_label(r.center)}"
            for r in records))

    basis = _basis(curve, records)
    o, eps = _filling_fractions(curve, form, basis, records, j_cap)
    return Expansion(curve, records, eps, basis, o)


def _basis(curve, records):
    """The form less its c du in the canonical basis: one KernelForm with
    the principal part of each finite pole (t_(p,0) dS + sum_j t_(p,j)
    omega_(p,j)), and the polynomial -sum_m head[m+1] z^m dz at inf on the
    sphere, where the kernel form has the residue."""
    finite = [(r.center, r.head) for r in records
              if r.center != "inf" and len(r.head)]
    terms = [(1.0, KernelForm(curve, finite))] if finite else []
    terms += [(1.0, RationalDz(RationalFunction(-r.head[1:])))
              for r in records if r.center == "inf" and len(r.head) > 1]
    return SumForm(terms)


def _filling_fractions(curve, form, basis, records, j_cap):
    """(o, eps) for the form with ``basis`` its expansion less c du: the
    basis forms have no A-periods, so the form less ``basis`` is c du, c =
    2 i pi eps (0 on the sphere), read at the first candidate o clear of
    the form's finite poles and the branch points (any clear point will do; a
    fixed order keeps runs reproducible).  Read at the next candidate, c
    differs by at most 2.7e-15 of the values there over the forms of the
    tests; past _EPS_GAP of them, the principal parts miss some of the
    form (a pole read short, say a root cluster split apart), and
    TruncationTooShort names the deepest pole, unless the form is not
    periodic over the cycles (a form of the sphere's chart on the torus):
    that form is NotRepresentable."""
    cands = _basepoints(curve)
    special = _translates(curve, [c for c in form.poles() if not isinstance(
        c, str)] + [r.location for r in curve.ramification_points])
    o = next((c for c in cands if all(abs(c - p) > _BASEPOINT_CLEARANCE
                                      for p in special)), cands[0])
    zs = np.array([o, cands[(cands.index(o) + 1) % len(cands)]])
    F, B = (np.broadcast_to(g.value(zs), 2) for g in (form, basis))
    (c1, c2), scale = F - B, max(np.abs(F).max(), np.abs(B).max())
    if not abs(c1 - c2) <= _EPS_GAP * max(1.0, scale):
        shift = max((abs(form.value(o + w) - F[0]) for cycle in curve.cycles
                     for w in cycle), default=0.0)
        if shift > _EPS_GAP * max(1.0, abs(F[0])):
            raise NotRepresentable(
                f"the form changes by {shift:.3g} over a cycle of the "
                f"curve: it is not a form on it")
        deep = max(records, key=lambda r: len(r.head))
        raise TruncationTooShort(
            f"the form less its expansion is {c1:.6g} du at one basepoint "
            f"and {c2:.6g} du at the next: its principal parts miss some of "
            f"it (the deepest, at {_label(deep.center)}, has order "
            f"{len(deep.head)}; j_cap = {j_cap})")
    return o, np.array([c1 / (2j * np.pi) for _ in curve.cycles],
                       dtype=complex)


def _basepoints(curve):
    """The basepoint candidates, in the order they are tried."""
    if curve.genus == 1:
        return [0.37 + 0.21 * curve.tau, 0.61 + 0.43 * curve.tau,
                0.23 + 0.69 * curve.tau, 0.81 + 0.17 * curve.tau,
                0.13 + 0.57 * curve.tau]
    return [0.73 + 0.58j, -0.64 + 0.81j, 1.27 - 0.93j, -1.41 - 0.52j,
            0.31 + 1.62j]


def _translates(curve, pts):
    """The points, then their translates by the cycles into the
    neighbouring cells: the obstacles of cycle lines and clearances."""
    out = list(pts)
    for a, b in curve.cycles:
        out += [p + m * a + n * b for p in pts
                for m in (-1, 0, 1) for n in (-1, 0, 1) if m or n]
    return out
