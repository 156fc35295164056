"""Residue recursion for the symplectic covariant forms and invariants.

A form with 2 - 2g - n < 0 is stored as a fully contracted tensor over
the basis

    B_{a,k}(z) = Res_{z'->a} zeta_a(z')^{-k} B(z', z),   k odd,

one index per variable.  The generating property
B(z_a(zeta), w) = sum_k B_{a,k}(w) zeta^{k-1} dzeta closes the
recursion on these tensors, and quadrature exists only as a test
oracle.  Every residue is read off with one contraction: with c the
coefficients of 1/(y(zeta) - y(-zeta)) (or of the primitive of Y dX
for F_g), the Hankel slice R[k, e] = c_{-k-e} gives the zeta^-k
coefficients of a window d over zeta^e as R @ d, and
R2[k, e1, e2] = R[k, e1 + e2] those of a product of two windows.
Even-k slots are structurally absent (the forms have no residues),
which the quadrature cross-checks confirm.

Every series of the basis forms is one contraction with the curve's
reduced Bergman kernel F (B(z, w) = F(z - w) dz dw):

    B_{b,m}(z) = sum_q gamma^{b,m}_{-1-q} F^(q)(r_b - z)/q!,

with gamma^{b,m} the polar coefficients of zeta_b(s)^-m and r_b the
location of ramification point b, so no algorithm here depends on the
genus.  Tensors are immutable once computed; the memo table fills level
by level in increasing 2g + n.
"""

from __future__ import annotations

import itertools

import numpy as np

from .curve import flip_parity
from .errors import PoleAtRamificationPoint, TruncationTooShort
from .forms import pole_frame
from .series import TruncSeries, _combine, identity, truncate


class CorrForm:
    """Coefficient tensor of one (g, n) form over the odd-k basis."""

    def __init__(self, g, n, basis, tensor):
        self.g = int(g)
        self.n = int(n)
        self.basis = basis          # list of (ram_index, k), k odd
        self.tensor = tensor        # ndarray, shape (len(basis),) * n


def k_slots(g, n):
    """Odd orders tracked for (g, n): two slots beyond the sharp bound,
    so the pole-order property is a measurement, not a tautology."""
    return list(range(1, 6 * g + 2 * n, 2))


class RecursionEngine:
    """Topological recursion data for one spectral curve."""

    def __init__(self, curve):
        self.curve = curve
        self.rams = curve.ramification_points
        self.A = len(self.rams)
        self._memo: dict = {}
        self._fg: dict = {}
        self._plg: dict = {}
        self._prepare_local_data()

    # -- local expansions -------------------------------------------------------

    def _prepare_local_data(self):
        cv = self.curve
        mmax = self._row_count()
        # the residue windows and the pole-chart series read far into
        # the local charts, so they are rebuilt much deeper than the
        # curve's validation series
        deep = cv.order + 2 * mmax + 16
        self.deep = deep
        self.s_of, self.zeta_of, self.y_of = [], [], []
        for r in self.rams:
            s_of, zeta_of, y_of = cv.local_chart(r, deep)
            self.s_of.append(s_of)
            self.zeta_of.append(zeta_of)
            self.y_of.append(y_of)
        self.zprime = []            # s'(zeta)
        self.ydiff_inv = []         # 1 / (Y(zeta) - Y(-zeta))
        self.phi = []               # primitive of Y dX in the zeta chart
        self.gamma = []             # [m-1, q]: gamma^{a,m}_{-1-q}
        for a in range(self.A):
            s_of, y_of = self.s_of[a], self.y_of[a]
            self.zprime.append(s_of.differentiate())
            dy = y_of - flip_parity(y_of)
            self.ydiff_inv.append(dy.invert())
            two_zeta = TruncSeries(
                np.concatenate([[2.0], np.zeros(deep + 4)]), 1,
                var_tag=y_of.var_tag)
            self.phi.append((y_of * two_zeta).antiderivative())
            # the polar part of zeta^-m needs zeta(s) through s^(m+1) only
            zin = truncate(self.zeta_of[a], mmax + 2).invert()
            gam = np.zeros((mmax, mmax), dtype=complex)
            acc = zin
            for m in range(1, mmax + 1):
                if m > 1:
                    acc = acc * zin
                gam[m - 1, :m] = [acc.coeff(-1 - q) for q in range(m)]
            self.gamma.append(gam)
        for a in range(self.A):
            self._rows(a, a)

    def max_tracked_k(self):
        return max(k_slots(3, 1))

    def _row_count(self):
        """Largest m of the row tables of ``_rows``."""
        return self.max_tracked_k() + 2

    def _rows(self, b, a):
        """rows[m-1][t]: coefficient of zeta^t, t >= 0, of
        B_{b,m}(z_a(zeta))/dzeta (the polar part at b == a is exact and
        left to the caller).

        With z = r_a + s_a(zeta) the rows are one contraction,
        (gamma . T) s_a'(zeta) with T[q] = F^(q)(r_b - r_a - s_a(zeta))/q!."""
        key = ("rows", b, a)
        if key in self._plg:
            return self._plg[key]
        mmax = self._row_count()
        width = mmax + 6
        # T[q] loses one slot per power of 1/s: keep width + mmax + 4
        s = truncate(self.s_of[a], width + mmax + 4)
        c = self.rams[b].location - self.rams[a].location
        T = self.curve.bergman_taylor(c, -s, mmax)
        lo = min(f.k_min for f in T)
        hi = min(f.trunc_order for f in T)
        stack = np.zeros((mmax, hi - lo + 1), dtype=complex)
        for q, f in enumerate(T):
            stack[q, f.k_min - lo:] = f.coeffs[:hi - f.k_min + 1]
        rows = []
        for r in self.gamma[b] @ stack:
            row = TruncSeries(r, lo) * self.zprime[a]
            rows.append([row.coeff(t) for t in range(width)])
        rows = np.array(rows)
        self._plg[key] = rows
        return rows

    # -- basis series -------------------------------------------------------------

    def ram_basis_series(self, b, m, a, lo, hi, sign=+1):
        """Coefficients of B_{b,m}(z_a(+-zeta))/dzeta on [lo, hi].

        For sign < 0 the form is pulled back through zeta -> -zeta
        including d(-zeta) = -dzeta.  A window that reaches the regular
        part (t >= 0) of a B_{b,m} the row tables do not hold is refused.
        """
        ts = np.arange(lo, hi + 1)
        data = np.zeros(len(ts), dtype=complex)
        if a == b and lo <= -(m + 1) <= hi:
            data[-(m + 1) - lo] = m
        if hi >= 0:
            rows = self._rows(b, a)
            if m > len(rows) or hi >= rows.shape[1]:
                raise TruncationTooShort(
                    f"B_({b},{m}) on zeta^[{lo}, {hi}] lies beyond the row "
                    f"tables (m <= {len(rows)}, t < {rows.shape[1]})")
            t0 = max(lo, 0)
            data[t0 - lo:] += rows[m - 1, t0:hi + 1]
        if sign < 0:
            data = data * (-1.0 + 0j) ** ((ts + 1) % 2)
        return data

    def _window(self, basis, a, sign, lo, hi):
        """[ram_basis_series(b, m, a, lo, hi, sign) for (b, m) in basis]
        as the columns of one (window, len(basis)) matrix."""
        return np.stack([self.ram_basis_series(b, m, a, lo, hi, sign)
                         for b, m in basis], axis=1)

    # -- the recursion ---------------------------------------------------------------

    def omega(self, g, n) -> CorrForm:
        if 2 - 2 * g - n >= 0:
            raise ValueError("only stable (g, n) carry tensors")
        key = (g, n)
        if key in self._memo:
            return self._memo[key]
        self._check_reach(g, n)
        ks = k_slots(g, n)
        basis = [(a, k) for a in range(self.A) for k in ks]
        where = {el: i for i, el in enumerate(basis)}
        tensor = np.zeros((len(basis),) * n, dtype=complex)
        for a in range(self.A):
            self._add_residues(g, n, a, basis, where, tensor)
        form = CorrForm(g, n, basis, tensor)
        self._memo[key] = form
        return form

    def _check_reach(self, g, n):
        """Refuse (g, n) before any work when the curve order or the row
        tables are too short for it.  The requirements shrink with
        6g + 2n down the recursion, so the windows of (g, n) itself bound
        every level below it."""
        top = max(k_slots(g, n))
        # the stable forms whose basis windows (g, n) reads; an
        # omega(0, 2) factor is the Bergman kernel, read without the tables
        forms = [f for _, f1, f2 in _products(g, n - 1) for f in (f1, f2)]
        if g >= 1:
            forms.append((g - 1, n + 1))
        m = max((max(k_slots(h, j)) for h, j in forms if 2 * h + j > 2),
                default=0)
        m_rows = self._row_count()
        if top + 4 > self.curve.order or m > m_rows:
            raise TruncationTooShort(
                f"(g, n) = ({g}, {n}) needs curve order >= {top + 4} and "
                f"B_(b,m) for m <= {m}; this engine has curve order "
                f"{self.curve.order} and row tables m <= {m_rows}")

    def _sub_series(self, form: CorrForm, a, sign, lo, hi):
        """Contract slot 0 of ``form`` with the zeta_a chart: returns an
        array of shape (window, D, ..., D) over the *form's own* basis
        for the remaining slots."""
        return np.tensordot(self._window(form.basis, a, sign, lo, hi),
                            form.tensor, axes=1)

    def _add_residues(self, g, n, a, basis, where, tensor):
        """The residues at ramification point a: for every k in ks,
        tensor[(a, k), ...] += -1/(2k) times the zeta^-k coefficient of
        (sum of the recursion's terms) / (y(zeta) - y(-zeta)), each term
        a window over [lo, hi] read through the slices R and R2."""
        J = n - 1
        ks = k_slots(g, n)
        lo = -(2 * (6 * g + 2 * n - 4) + 10)
        hi = max(ks) + 1
        R = _residue_slice(self.ydiff_inv[a], ks, lo, hi)
        R2 = _pair_slice(R, lo)
        heads = np.array([where[(a, k)] for k in ks])
        # B(z_a(zeta), w) = sum_k B_{a,k}(w) zeta^(k-1) dzeta over this
        # form's own basis; k - 1 is even, so at -zeta only d(-zeta)
        # flips the sign
        bergman = np.zeros((hi - lo + 1, len(basis)), dtype=complex)
        bergman[np.array(ks) - 1 - lo, heads] = 1.0
        terms = []  # (residues for every k, [slot bases], axes in J order)

        # omega^{(g-1)}_{J+2}(z, zbar, J)
        if g >= 1:
            if 2 * (g - 1) + (J + 2) > 2:
                sub = self.omega(g - 1, J + 2)
                first = self._sub_series(sub, a, +1, lo, hi)
                second = self._window(sub.basis, a, -1, lo, hi)
                res = np.tensordot(np.tensordot(R2, second, axes=([2], [0])),
                                   first, axes=([1, 2], [0, 1]))
                terms.append((res, [sub.basis] * J, list(range(J))))
            else:
                terms.append((R @ self._bergman_diagonal(a, lo, hi), [], []))

        # stable products
        for I, (g1, n1), (g2, n2) in _products(g, J):
            s1, bas1 = self._factor(g1, n1, a, +1, lo, hi, bergman, basis)
            s2, bas2 = self._factor(g2, n2, a, -1, lo, hi, bergman, basis)
            res = np.tensordot(np.tensordot(R2, s1, axes=([1], [0])),
                               s2, axes=([1], [0]))
            axes = list(I) + [j for j in range(J) if j not in I]
            terms.append((res, bas1 + bas2, axes))

        scale = (-0.5 / np.array(ks)).reshape((-1,) + (1,) * J)
        for res, slot_bases, axes in terms:
            if axes:
                inv = np.argsort(axes)
                res = np.transpose(res, axes=[0] + [1 + int(p) for p in inv])
                slot_bases = [slot_bases[int(p)] for p in inv]
            idx = [np.array([where[el] for el in sb]) for sb in slot_bases]
            tensor[np.ix_(heads, *idx)] += scale * res

    def _bergman_diagonal(self, a, lo, hi):
        """omega_2^(0)(z_a(zeta), z_a(-zeta))/dzeta on [lo, hi]: the
        polar -1/(4 zeta^2) plus -sum_{i+j=t} rows[i, j] (-1)^j."""
        dat = np.zeros(hi - lo + 1, dtype=complex)
        if lo <= -2 <= hi:
            dat[-2 - lo] = -0.25
        H = self._rows(a, a)
        i, j = np.indices((len(H), len(H)))
        keep = i + j <= min(len(H) - 1, hi)
        np.add.at(dat, (i + j)[keep] - lo, -H[i[keep], j[keep]]
                  * (-1.0) ** j[keep])
        return dat

    def _factor(self, g, n, a, sign, lo, hi, bergman, basis):
        if (g, n) == (0, 2):
            return sign * bergman, [basis]
        sub = self.omega(g, n)
        return self._sub_series(sub, a, sign, lo, hi), \
            [sub.basis] * (n - 1)

    # -- invariants --------------------------------------------------------------------

    def invariant(self, g):
        """F_g, g >= 2, from the primitive pairing at ramification
        points; independent of the primitive's constant because the
        one-point form has no residues."""
        if g < 2:
            raise ValueError("F_g from residues needs g >= 2")
        if g not in self._fg:
            self._fg[g] = self._invariant_with_phi(g, 0.0)
        return self._fg[g]

    def invariant_with_shifted_primitive(self, g, shift):
        return self._invariant_with_phi(g, complex(shift))

    def _invariant_with_phi(self, g, shift):
        w1 = self.omega(g, 1)
        total = 0.0 + 0.0j
        for a in range(self.A):
            phi = self.phi[a] + shift if shift else self.phi[a]
            # phi starts at zeta^k_min: no term above zeta^(-1 - k_min)
            # pairs with it
            lo, hi = -(6 * g + 2) - 2, -1 - phi.k_min
            ser = self._sub_series(w1, a, +1, lo, hi)
            total += _residue_slice(phi, [1], lo, hi)[0] @ ser
        return total / (2 - 2 * g)

    # -- evaluation ---------------------------------------------------------------------

    def leg_series(self, a, z):
        """TruncSeries in eta of B(z_a(eta), z)/(d eta d chart)."""
        kmax = self.max_tracked_k()
        s = truncate(self.s_of[a], kmax + 2)
        F = self.curve.bergman_taylor(self.rams[a].location - z, s, 1)[0]
        return F * self.zprime[a]

    def _check_tracked(self, basis):
        kmax = self.max_tracked_k()
        top = max(k for _, k in basis)
        if top > kmax:
            raise TruncationTooShort(
                f"B_(a,{top}) lies beyond the evaluation cap k <= {kmax} "
                "(RecursionEngine.max_tracked_k)")

    def basis_vector(self, basis, z):
        """[B_{a,k}(z)/dchart for (a, k) in basis]."""
        self._check_tracked(basis)
        legs = {a: self.leg_series(a, z) for a in {a for a, _ in basis}}
        return np.array([legs[a].coeff(k - 1) for a, k in basis])

    def evaluate(self, form: CorrForm, points):
        """omega_n^(g)(points) divided by the chart legs."""
        t = form.tensor
        for z in points:
            t = np.tensordot(t, self.basis_vector(form.basis, z),
                             axes=([0], [0]))
        return complex(t)

    def residue_at_point_oracle(self, form, a, other_points,
                                radius=5e-2, samples=600):
        """Contour-quadrature oracle for the residue at ramification
        point a in the first slot, remaining slots frozen."""
        r = self.rams[a]
        sp = r.s_of_zeta.differentiate()
        total = 0.0 + 0.0j
        for i in range(samples):
            th = 2 * np.pi * (i + 0.5) / samples
            zeta = radius * np.exp(1j * th)
            z = r.location + r.s_of_zeta.evaluate(zeta)
            val = self.evaluate(form, [z] + list(other_points))
            total += val * sp.evaluate(zeta) * zeta
        return total / samples

    # -- cycle contractions -----------------------------------------------------------

    def b_cycle_vector(self, basis):
        """oint_B B_{a,k} per basis element (genus 1; zero at genus 0)."""
        out = np.zeros(len(basis), dtype=complex)
        if self.curve.genus != 1:
            return out
        for i, (a, k) in enumerate(basis):
            out[i] = 2j * np.pi * self.zprime[a].coeff(k - 1)
        return out

    def pole_pairing_vector(self, basis, center, j):
        """(1/j) Res_p xi^-j B_{a,k} per basis element: the dual-cycle
        pairing for the time t_{p,j}."""
        self._check_tracked(basis)
        out = np.zeros(len(basis), dtype=complex)
        xp = pole_frame(self.curve, center)
        xi_inv_j = xp.xi_of_s.invert() ** j
        for i, (a, k) in enumerate(basis):
            leg = self._basis_series_at_pole(a, k, xp)
            prod = leg * xi_inv_j.retag(leg.var_tag)
            out[i] = prod.residue() / j
        return out

    def _basis_series_at_pole(self, a, k, xp):
        """Series in the pole chart of B_{a,k}(z_p(s))/ds.

        The same contraction as the rows, read at z = p + s (or through
        z = 1/w in the sphere's chart at infinity):
        B_{a,k}(z) = sum_q gamma^{a,k}_{-1-q} F^(q)(r_a - z)/q!.
        Built from the kernel's own series, so the conditioning is set
        by true function radii rather than bivariate kernel inverses.
        """
        key = (a, k, str(xp.location))
        if key in self._plg:
            return self._plg[key]
        cv = self.curve
        r = self.rams[a]
        if xp.location == "inf":
            F = cv.bergman_taylor_at_infinity(r.location, k, self.deep)
        else:
            p = complex(xp.location)
            t = identity(var_tag=f"s@{p:.6g}", order=self.deep + 1)
            F = cv.bergman_taylor(r.location - p, -t, k)
            if F[0].k_min < 0:
                raise PoleAtRamificationPoint(
                    "pole frame collides with a ramification point")
        ser = _combine(self.gamma[a][k - 1, :k], F)
        self._plg[key] = ser
        return ser


# -- the recursion's terms -------------------------------------------------------------

def _products(g, J):
    """(I, (g1, n1), (g2, n2)) for each product term of the recursion at
    (g, J + 1): the first factor takes the slots I of the J spectators;
    splits with an omega(0, 1) factor carry no term."""
    for h in range(g + 1):
        for r in range(J + 1):
            for I in itertools.combinations(range(J), r):
                f1, f2 = (h, 1 + r), (g - h, 1 + J - r)
                if (0, 1) not in (f1, f2):
                    yield I, f1, f2


# -- residue slices --------------------------------------------------------------------

def _residue_slice(f: TruncSeries, ks, lo, hi):
    """R[i, e - lo] = coefficient of zeta^(-ks[i] - e) in ``f`` for e in
    [lo, hi], so that R @ d is the zeta^(-k) coefficient of
    (sum_e d[e] zeta^e) f(zeta) for every k in ``ks`` at once."""
    idx = -np.array(ks)[:, None] - np.arange(lo, hi + 1)[None, :]
    if idx.max() > f.trunc_order:
        raise TruncationTooShort(
            f"residue slice needs zeta^{idx.max()} beyond truncation order "
            f"{f.trunc_order} (tag {f.var_tag!r})")
    pos = idx - f.k_min
    out = np.zeros(idx.shape, dtype=complex)
    out[pos >= 0] = f.coeffs[pos[pos >= 0]]
    return out


def _pair_slice(R, lo):
    """R2[i, e1 - lo, e2 - lo] = R[i, e1 + e2 - lo] where e1 + e2 lies in
    the window [lo, hi] of R, else zero: contracting R2 against two
    windows reads off the residues of their product clipped to [lo, hi]."""
    W = R.shape[1]
    t = np.add.outer(np.arange(W), np.arange(W)) + lo
    inside = (t >= 0) & (t < W)
    return np.where(inside, R[:, np.clip(t, 0, W - 1)], 0.0)


# -- special geometry ------------------------------------------------------------

def dF_dt(engine: RecursionEngine, g, center, j):
    """dF_g/dt_{p,j} (g >= 2): the dual-cycle pairing of the one-point
    form; sign pinned by the finite-difference oracles."""
    w1 = engine.omega(g, 1)
    pv = engine.pole_pairing_vector(w1.basis, center, j)
    return complex(w1.tensor @ pv)


def dF_deps(engine: RecursionEngine, g):
    """dF_g/deps (g >= 2, genus 1)."""
    w1 = engine.omega(g, 1)
    return complex(w1.tensor @ engine.b_cycle_vector(w1.basis))


def domega_dt(engine: RecursionEngine, g, n, center, j, points):
    """d omega_n^(g)(points)/dt_{p,j} at fixed X: the (n+1)-point form
    contracted with the dual cycle in its first slot.  The sign is
    opposite to the F_g case in this time normalization (pinned by the
    finite-difference oracles; the dilaton shift in F_g's definition
    flips the pairing)."""
    w = engine.omega(g, n + 1)
    pv = engine.pole_pairing_vector(w.basis, center, j)
    t = np.tensordot(w.tensor, pv, axes=([0], [0]))
    for z in points:
        t = np.tensordot(t, engine.basis_vector(w.basis, z), axes=([0], [0]))
    return -complex(t)
