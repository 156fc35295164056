"""Residue recursion for the symplectic covariant forms and invariants.

A form with 2 - 2g - n < 0 is stored over the basis

    B_{a,k}(z) = Res_{z'->a} zeta_a(z')^{-k} B(z', z),   k odd,

ordered k-major, as a matrix over its degree-bounded support
(``CorrForm``): with d = (k - 1)/2, each coefficient with sum d >
3g - 3 + n is 0 (Eynard-Orantin, math-ph/0702045).  The generating
property B(z_a(zeta), w) = sum_k B_{a,k}(w) zeta^{k-1} dzeta closes the
recursion on these matrices, and quadrature exists only as a test
oracle.  The residue kernel at a ramification point a is the same for
every level, so it is built once per engine as the quadratic tensor

    P^a[k, i, j] = -1/(2k) [zeta^-k] W_i(zeta) W_j(-zeta) / (y(zeta) - y(-zeta)),

the "ABCD" or Airy-structure form of the recursion (Kontsevich-
Soibelman, arXiv:1701.09137; Andersen-Borot-Chekhov-Orantin,
arXiv:1703.03307).  W_i runs over the windows of the basis forms
B_{b,m}(z_a(zeta)), then over Bergman slots h_{k'} = zeta^(k'-1), which
carry an omega(0, 2)(zeta, z_j) factor.  Each term of a level is then
M1^T P^a M2 for its two factors and every a at once, and as P^a is
symmetric in its columns, a product term and its mirror are one
contraction.  Even-k slots are structurally absent (the forms have no
residues), which the quadrature cross-checks confirm.  F_g is the
dilaton pairing 1/(2 - 2g) sum_a Res_a Phi omega(g, 1) (Eynard-Orantin,
math-ph/0702045), Phi = int Y dX = int 2 zeta y_a dzeta, which only the
pole k zeta^-(k+1) dzeta of B_{a,k} at a meets: F_g = 1/(1 - g)
sum_(a,k) omega(g, 1)[(a, k)] [zeta^(k-2)] y_a, read off the chart of Y.

Off the row tables, a series of the basis forms is one contraction
with the curve's reduced Bergman kernel F (B(z, w) = F(z - w) dz dw):

    B_{b,m}(z) = sum_q gamma^{b,m}_{-1-q} F^(q)(r_b - z)/q!,

with gamma^{b,m}_{-1-q} the coefficient of s^(-1-q) in zeta_b(s)^-m
and r_b the location of ramification point b, so no algorithm here
depends on the genus.  The engine holds only the chart s_b(zeta): by
Lagrange inversion gamma^{b,m}_{-1-q} = m/(q+1) [zeta^m] s_b(zeta)^(q+1),
so zeta_b(s) is never built.  A window W_i is the exact pole
m zeta^-(m+1) at b == a plus a slice of a row table, the Taylor
coefficients of B_{b,m}(z_a(zeta))/dzeta below zeta^width.  As
B = d1 d2 log E, a table, diagonal or cross, is m (t+1) times the
coefficient of zeta1^m zeta2^(t+1) of log E(r_b - r_a + s_b(zeta1) -
s_a(zeta2)), less log(zeta1 - zeta2) on the diagonal (the Grunsky
coefficients; Pommerenke, *Univalent Functions*, 1975), exact on the
table's box as indices only add.  E is odd, so the tables (a, b) and
(b, a) are transposes, read off one expansion per pair.  The memo of
immutable levels fills in increasing 2g + n.

One reach rule (``_check_reach``), the curve order and a bound on a
level's dense size, admits the levels before any work and sizes the
engine when it is built: the row tables and P^a reach the largest m an
admitted level reads (``m_rows``), the charts the deepest coefficient
the tables read.  The charts s_a(zeta) and y_a(zeta) are the curve's
own, read off its frame at each ramification point (``Frame.chart``),
which continues the chart the curve solved to validate itself: the
engine solves none afresh.

Evaluation reads the basis forms off the generating property: with
c = r_a - z, B_{a,k}(z)/dz is the coefficient of zeta^(k-1) of the
leg F(c + s_a(zeta)) s_a'(zeta).  The curve returns the legs of every
ramification point a at every point z not in the engine's bounded leg
memo in one call (``SpectralCurve.bergman_leg``): one kernel jet on the
stacked c, one inversion of o + s_a batched over the stacked charts.
A level's rows and spectator tuples are contracted with their columns,
one per point.  Any k up to the charts' depth is read this way; the row
tables are not used.

The pairings of special geometry (Eynard-Orantin, math-ph/0702045),
with the cycles dual to the times t_{p,j} and to the filling fraction,
are chart coefficients too.  B is symmetric, so exchanging the two
residues gives

    (1/j) Res_p xi^-j B_{a,k} = [zeta^(k-1)] omega_{p,j}(z_a(zeta))/dzeta

for omega_{p,j} (``forms.SecondKindBasis``, a ``forms.KernelForm``), and
the B-period of B_{a,k} is the coefficient of 2 pi i du
(``forms.DuForm``).  ``chart_vector`` reads either as gamma contracted
with the form's Taylor coefficients at r_a, to the charts' depth.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cache import BoundedCache
from .curve import _ON_POLE, _power_rows, _taylor, _toeplitz, flip_parity
from .errors import (
    BadIndex,
    LevelTooLarge,
    PoleAtRamificationPoint,
    TruncationTooShort,
)
from .forms import DuForm, SecondKindBasis, pole_frame
from .series import TruncSeries

# The bound on the dense size, 16 bytes an entry, of the levels a request
# builds, read by an engine when it is built; that size, never stored, sizes
# the row tables and P^a (m <= 39, 27, 21 for 1, 2, 3 points at any order).
# Joukowski omega(0, 6) (48 MB dense) fits, omega(0, 7) (1.7 GB) not.
MAX_LEVEL_BYTES = 1 << 28


class CorrForm:
    """One (g, n) form as a matrix over the odd-k basis: row i the first
    variable's basis element, column s the other n - 1, ``spectators[s]``,
    in lexicographic order with sum d <= 3g - 3 + n (d = (k - 1)/2)."""

    def __init__(self, g, n, basis, tensor, spectators):
        self.g = int(g)
        self.n = int(n)
        self.basis = basis              # [(a, k) for k for a]
        self.tensor = tensor            # ndarray (len(basis), len(spectators))
        self.spectators = spectators    # int ndarray (S, n - 1)


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
        self._max_bytes = MAX_LEVEL_BYTES
        self._memo, self._plg = {}, {}
        self._legs = BoundedCache()
        self._P = self._diag = None
        self._prepare_local_data()

    # -- local expansions -------------------------------------------------------

    def _prepare_local_data(self):
        cv = self.curve
        # the largest m that an admitted level reads, the top k of its
        # deepest factor (refusals grow with n)
        self.m_rows = 0
        for g in range(cv.order // 6 + 1):
            for n in itertools.count(max(1, 3 - 2 * g)):
                try:
                    self._check_reach(g, n)
                except (TruncationTooShort, LevelTooLarge):
                    break
                deepest = (g, n - 1) if n > 1 else (g - 1, 2)
                self.m_rows = max(self.m_rows, *k_slots(*deepest))
        # the diagonal row tables read the charts through zeta^(2 m + 7),
        # continued from those the curve validated
        self.deep = deep = 2 * self.m_rows + 7
        charts = [r.chart(deep) for r in self.rams]
        self.s_of, self.y_of = [s for s, _ in charts], [y for _, y in charts]
        # 1 / (Y(zeta) - Y(-zeta))
        self.ydiff_inv = [(y - flip_parity(y)).invert() for y in self.y_of]
        # per chart, deepened on demand: [p, i] = [zeta^i] s^p, and
        # [m-1, q] = gamma^{a,m}_{-1-q}
        self.powers = [np.zeros((0, 0))] * self.A
        self.gamma = [np.zeros((0, 0))] * self.A
        for a in range(self.A):
            self._rows(a, a)

    def _powers(self, a, n):
        """The table [p, i] = [zeta^i] s_a(zeta)^p for p, i <= n."""
        if len(self.powers[a]) <= n:
            self.powers[a] = _power_rows(_taylor(self.s_of[a], n), n)
        return self.powers[a][:n + 1, :n + 1]

    def _gamma(self, a, n):
        """The table [m - 1, q] of gamma^{a,m}_{-1-q} for m <= n and
        q < n: by Lagrange inversion m/(q+1) [zeta^m] s_a^(q+1).
        Evaluation and the pairings read it to the charts' depth."""
        if len(self.gamma[a]) < n:
            ms = np.arange(1, n + 1)
            self.gamma[a] = self._powers(a, n)[1:, 1:].T * (ms[:, None] / ms)
        return self.gamma[a][:n, :n]

    def _top_k(self, ks):
        """The largest k of a basis, refused past the charts' depth."""
        top = int(max(ks, default=0))
        if top > self.deep:
            raise TruncationTooShort(
                f"B_(a,{top}) lies beyond the chart depth k <= {self.deep}")
        return top

    def _rows(self, b, a):
        """rows[m-1][t]: coefficient of zeta^t, t < m_rows + 6, of
        B_{b,m}(z_a(zeta))/dzeta for m up to the largest an admitted level
        reads, m_rows (the polar part at b == a is left to the caller).

        rows[m-1][t] = m (t+1) L[m, t+1], L[i, j] the coefficient of
        zeta1^i zeta2^j of log E(c + V), c = r_b - r_a, V = s_b(zeta1) -
        s_a(zeta2), less log(zeta1 - zeta2) on the diagonal.  With the
        curve's log E(c + v) = log(o + v) + rho(v) (``_regular_jet``),
        L = log W + rho(V): W = o + V off the diagonal, and on it (o = 0)
        W = V/(zeta1 - zeta2), W[i, j] = s_(i+j+1).  rho(V) = P_b^T H P_a,
        P the charts' power tables and H[q, l] = C(q+l, q) rho_(q+l) (-1)^l.
        Indices only add, so both terms are exact on the box.  E is odd, so
        L_ab[i, j] = L_ba[j, i] for i, j >= 1: off the diagonal D = zeta1
        d/dzeta1 L is built once per pair, on a square box, and both tables
        are read off it."""
        if (b, a) in self._plg:
            return self._plg[b, a]
        n1 = self.m_rows + 1
        n2 = n1 + 6
        box = n1 if b == a else n2
        e = np.add.outer(np.arange(box), np.arange(n2))
        o, rho = self.curve._regular_jet(
            self.rams[b].location - self.rams[a].location, box + n2 - 2)
        Pb, Pa = self._powers(b, n2 - 1)[:box, :box], self._powers(a, n2 - 1)
        if b == a:
            W = _taylor(self.s_of[a], n1 + n2 - 1)[e + 1]
        else:
            W = np.zeros((box, n2), dtype=complex)
            W[:, 0], W[0] = Pb[1], -Pa[1]
            W[0, 0] = o
        # C(q+l, q) from the factorials k!
        fact = np.cumprod(np.append(1.0, np.arange(1.0, box + n2 - 1)))
        H = rho[e] * fact[e] / np.outer(fact[:box], fact[:n2]) \
            * (-1.0) ** np.arange(n2)
        D = _log_derivative(W) + np.arange(box)[:, None] * (Pb.T @ H @ Pa)
        self._plg[b, a] = D[1:n1, 1:] * np.arange(1, n2)
        if b != a:
            self._plg[a, b] = D.T[1:n1, 1:] * np.arange(1, n1)[:, None]
        return self._plg[b, a]

    def _window(self, basis, a, lo, hi):
        """The coefficients on zeta^[lo, hi], lo <= 0 <= hi, of
        B_{b,m}(z_a(zeta))/dzeta, one column per (b, m) of ``basis``: the
        pole m zeta^-(m+1) at b == a, plus one slice of each row table."""
        owner, ms = np.array(basis).T
        W = np.zeros((hi - lo + 1, len(ms)), dtype=complex)
        pole = (owner == a) & (lo <= -(ms + 1))
        W[-(ms[pole] + 1) - lo, pole] = ms[pole]
        for b in set(owner.tolist()):
            cols = owner == b
            W[-lo:, cols] = self._rows(b, a)[ms[cols] - 1, :hi + 1].T
        return W

    # -- the residue tensors -------------------------------------------------------

    def _residue_tensors(self):
        """P[a, k, i, j] = -1/(2k) [zeta^-k] W_i(zeta) W_j(-zeta) c_a(zeta)
        for every odd head k <= m_rows + 4, built once per engine from its
        nonzero blocks, and the (1, 1) diagonal term [a, k]: an admitted level
        reads windows m <= m_rows and heads k <= m_rows + 4.

        The columns i, j are the windows of B_{b,m}(z_a(zeta)), m odd
        <= m_rows, in the k-major order of the level bases, then the
        Bergman slots h_{k'}, the unit windows zeta^(k'-1), one per head.
        At -zeta a window includes d(-zeta): (flip W)[e] = (-1)^(e+1) W[e].
        c_a = 1/(y(zeta) - y(-zeta)) is odd from zeta^-1, and a window's
        only negative exponent is the pole m zeta^-(m+1) of a column (a, m),
        so P^a = H + H^T + (pole x pole) + c_-1 W[0] (flip W)[0] at k = 1:
        H[k, (a, m)] = m sum_(e >= 0) [zeta^(m+1-k-e)] c_a (flip W)[e] is
        one product over the regular rows zeta^[0, m_rows + 3], which make
        the sums exact.  The diagonal term pairs c_a with omega(0, 2) at
        (z_a(zeta), z_a(-zeta)), over dzeta -1/(4 zeta^2) - sum rows[i, j]
        (-1)^j zeta^(i+j) on the diagonal table."""
        if self._P is not None:
            return self._P, self._diag
        m_rows = self.m_rows
        heads = np.arange(1, m_rows + 5, 2)
        ms = np.arange(1, m_rows + 1, 2)
        basis = [(b, int(m)) for m in ms for b in range(self.A)]
        lo, hi = -(m_rows + 1), m_rows + 3
        e = np.arange(hi + 1)
        unit = (e[:, None] == heads[None, :] - 1).astype(complex)
        flip = (-1.0) ** (e + 1)[:, None]
        pole = -(ms + 1)            # the poles' exponents, all flipped by -1
        scale = -0.5 / heads
        w = scale[:, None] * ms     # [k, m] the pole's weight in P[k]
        i, j = np.nonzero(np.add.outer(e, e)[:m_rows, :m_rows] < m_rows)
        self._nb = nb = len(basis)
        self._columns = basis + [(None, int(k)) for k in heads]
        self._P = np.zeros((self.A, len(heads)) + (nb + len(heads),) * 2,
                           dtype=complex)
        self._diag = np.zeros((self.A, len(heads)), dtype=complex)
        for a in range(self.A):
            FW = flip * np.hstack([self._window(basis, a, 0, hi), unit])
            # R[k, e - 2 lo] = [zeta^(-k-e)] c_a
            R = _residue_slice(self.ydiff_inv[a], heads, 2 * lo, hi)
            G = w[..., None] * R[:, np.add.outer(pole, e) - 2 * lo]
            H = (G.reshape(-1, hi + 1) @ FW).reshape(len(heads), len(ms), -1)
            own, P = slice(a, nb, self.A), self._P[a]
            P[:, own] = H
            P[:, :, own] += H.transpose(0, 2, 1)
            P[:, own, own] -= w[..., None] * ms \
                * R[:, np.add.outer(pole, pole) - 2 * lo]
            P[0] -= scale[0] * R[0, -2 * lo] * np.outer(FW[0], FW[0])
            rows = self._rows(a, a)[i, j] * (-1.0) ** j
            self._diag[a] = scale * (-0.25 * R[:, -2 - 2 * lo]
                                     - R[:, i + j - 2 * lo] @ rows)
        return self._P, self._diag

    # -- the recursion ---------------------------------------------------------------

    def omega(self, g, n) -> CorrForm:
        if 2 - 2 * g - n >= 0:
            raise BadIndex(f"({g}, {n}) is unstable: only stable (g, n) "
                           "carry tensors")
        key = (g, n)
        if key in self._memo:
            return self._memo[key]
        self._check_reach(g, n)
        P, diag = self._residue_tensors()
        ks = k_slots(g, n)
        # k-major: every level's basis is a prefix of the heads of P
        basis = [(a, k) for k in ks for a in range(self.A)]
        spect = _support(self.A, 3 * g - 3 + n, n - 1)
        acc = np.zeros((len(spect) + 1, self.A, len(ks)), dtype=complex)
        if self.A:
            self._add_residues(g, n, P[:, :len(ks)], diag[:, :len(ks)],
                               spect, acc)
        # rows (k, a) k-major, as the basis
        tensor = acc[:-1].T.reshape(len(basis), len(spect))
        form = CorrForm(g, n, basis, tensor, spect)
        self._memo[key] = form
        return form

    def _check_reach(self, g, n):
        """The one admission rule, which also sizes the tables: (g, n) is
        refused before any work when its top k + 4 passes the curve order,
        or the dense size of a level it builds, 16 bytes an entry, passes the
        byte bound; that size sizes the tables, a level stores less.  Down
        the recursion 6g + 2n falls, the deepest factor being omega(g, n - 1)
        (omega(g - 1, 2) at n = 1), and h + j <= g + n, so for each j the
        chain omega(g - i, n + i) has the most slots: the largest size."""
        top = max(k_slots(g, n))
        if top + 4 > self.curve.order:
            raise TruncationTooShort(
                f"(g, n) = ({g}, {n}) needs curve order >= {top + 4}; this "
                f"engine has curve order {self.curve.order}")
        size, big = max((16 * (self.A * len(k_slots(h, j))) ** j, (h, j))
                        for h, j in zip(range(g, -1, -1), range(n, n + g + 1))
                        if 2 * h + j > 2)
        if size > self._max_bytes:
            raise LevelTooLarge(
                f"(g, n) = ({g}, {n}) builds omega{big}, of dense size "
                f"{size:.3g} bytes, past the bound of {self._max_bytes}")

    def _add_residues(self, g, n, P, diag, spect, acc):
        """The residues at every ramification point a at once: acc[s, a, k]
        += P^a[k] contracted with the two factors of each of the
        recursion's terms, each unordered split once, at the level's
        column s; the last s takes what falls off the support.  A stable
        factor is its matrix M_f on a prefix of P's columns, its spectators
        ranked into the level's; an omega(0, 2) factor is P's Bergman
        slots, whose spectator is the level's own head (a, k')."""
        A, K = diag.shape
        J, nb = n - 1, self._nb
        rank = _ranker(spect, A * K)
        flat = acc.reshape(-1, K)

        def factor(f):
            """P's columns, the matrix (None for the identity) and the
            spectator tuples (S_f, 1 or A, n_f - 1) of a factor."""
            if f == (0, 2):
                own = A * np.arange(K)[:, None] + np.arange(A)
                return slice(nb, nb + K), None, own[..., None]
            w = self.omega(*f)
            return slice(len(w.basis)), w.tensor, w.spectators[:, None]

        # omega^{(g-1)}_{J+2}(z, zbar, J): M_sub gathered at (j, spectators)
        # over the L basis elements under its degree bound 3g - 5 + n, past
        # which its entries are 0
        if (g, n) == (1, 1):
            acc[0] += diag
        elif g >= 1:
            sub, L = self.omega(g - 1, J + 2), A * (3 * g - 4 + n)
            cols = _ranker(sub.spectators, len(sub.basis))(
                (np.arange(L)[:, None, None], [0]), (spect, range(1, n)))
            Z = np.hstack([sub.tensor[:L], np.zeros((L, 1))])[:, cols]
            acc[:-1] += (P[:, :, :L, :L].reshape(A * K, L * L)
                         @ Z.reshape(L * L, -1)).T.reshape(-1, A, K)

        # stable products, one per unordered split: M1^T (w P) M2
        for I, f1, f2, w in _products(g, J):
            (c1, M1, t1), (c2, M2, t2) = factor(f1), factor(f2)
            res = w * P[:, :, c1, c2]
            res = res if M2 is None else res @ M2
            res = res if M1 is None else M1.T @ res
            r = rank((t1[:, None], I),
                     (t2[None], [j for j in range(J) if j not in I]))
            flat[A * r.reshape(-1, r.shape[-1]) + np.arange(A)] += \
                res.transpose(2, 3, 0, 1).reshape(-1, A, K)

    # -- invariants --------------------------------------------------------------------

    def invariant(self, g):
        """F_g, g >= 2, by the dilaton equation: 1/(1 - g) sum_(a,k)
        omega(g, 1)[(a, k)] [zeta^(k-2)] y_a, the pairing of omega(g, 1)
        with Phi = int Y dX at the ramification points, where only the
        pole of B_{a,k} at a meets the regular Phi."""
        if g < 2:
            raise BadIndex(f"F_g from residues needs g >= 2, not {g}")
        w1 = self.omega(g, 1)
        y = [self.y_of[a].coeff(k - 2) for a, k in w1.basis]
        return complex(w1.tensor[:, 0] @ y) / (1 - g)

    def invariant_with_shifted_primitive(self, g, shift):
        """F_g with Phi + shift, which is ``invariant(g)``: the constant
        pairs with the zeta^-1 slot of each B_{a,k} at a, which is 0.  Kept
        for the benchmark's torus-forms check; ROADMAP item 5 deletes both."""
        return self.invariant(g)

    def dilaton_residual(self, g, n):
        """max |2 sum_(a,k) [zeta^(k-2)] y_a omega(g, n+1)[(a, k), J] -
        (2g - 2 + n) omega(g, n)[J]| over the n-tuples J, relative to the
        largest |(2g - 2 + n) omega(g, n)[J]|: the dilaton equation
        (Eynard-Orantin, math-ph/0702045, Theorem 4.7), whose n = 0 case
        is ``invariant``, contracted over omega(g, n+1)'s stored support.
        Entries of the contraction past omega(g, n)'s support must be 0."""
        if n < 1:
            raise BadIndex(f"the dilaton residual needs n >= 1, not {n}")
        low, up = self.omega(g, n), self.omega(g, n + 1)
        y = [self.y_of[a].coeff(k - 2) for a, k in up.basis]
        lhs = 2 * (np.array(y) @ up.tensor)
        rows, rest = up.spectators[:, 0], up.spectators[:, 1:]
        col = _ranker(low.spectators, len(up.basis))((rest, range(n - 1)))
        hit = (rows < len(low.basis)) & (col < len(low.spectators))
        rhs = np.zeros_like(lhs)
        rhs[hit] = (2 * g - 2 + n) * low.tensor[rows[hit], col[hit]]
        return np.abs(lhs - rhs).max() / np.abs(rhs).max()

    # -- evaluation ---------------------------------------------------------------------

    def basis_matrix(self, basis, points):
        """B_{a,k}(z)/dchart for (a, k) in ``basis`` (rows) and z in
        ``points`` (columns): row k - 1 of the leg [zeta^t] F(r_a - z +
        s_a(zeta)) s_a'(zeta), k up to the charts' depth ``deep``.  The legs
        at z of every ramification point, an (A, depth) array, are held in a
        memo of ``cache.CACHE_MAX`` points; those not held, or held short of
        the top k asked, are read in one curve call, and the request takes
        them from that batch.  Depth rule: a fresh point is read to the top
        k asked, a held one read deeper to the deepest level stored.  A
        point on a ramification point is refused and not stored; an empty
        basis (no ramification points) gives an empty matrix."""
        owner, ks = np.array(basis, dtype=int).reshape(-1, 2).T
        top = self._top_k(ks)
        keys = np.asarray(points, dtype=complex).tolist()
        if not len(ks):
            return np.zeros((0, len(keys)), dtype=complex)
        cols = {p: self._legs.get(p) for p in keys}
        todo = [p for p, leg in cols.items()
                if leg is None or leg.shape[1] < top]
        if todo:
            # levels are k-major: a basis's last element has its top k
            depth = top if all(cols[p] is None for p in todo) else \
                max([top] + [f.basis[-1][1] for f in self._memo.values()])
            c = np.array([r.location for r in self.rams])[:, None] - todo
            on = np.abs(c - self.curve._lattice_point(c)) < _ON_POLE
            if on.any():
                raise PoleAtRamificationPoint(
                    "evaluation point on a ramification point: "
                    f"{np.array(todo)[on.any(0)]}")
            s = np.stack([self._powers(a, depth)[1] for a in range(self.A)])
            legs = self.curve.bergman_leg(c, s, np.stack(
                [self._gamma(a, depth) for a in range(self.A)]))
            for p, leg in zip(todo, legs.transpose(2, 0, 1)):
                cols[p] = self._legs[p] = leg.copy()
        M = np.array([cols[p][:, :top] for p in keys])
        return M[:, owner, ks - 1].T

    def evaluate(self, form: CorrForm, points):
        """omega_n^(g)(points) divided by the chart legs, read through the
        leg memo of ``basis_matrix``: levels evaluated at the same points
        read each point's legs once, and once more, to the deepest level
        stored, where a deeper level follows."""
        B = self.basis_matrix(form.basis, points)
        return complex(B[:, 0] @ _head(form, B[:, 1:]))

    # -- pairings ----------------------------------------------------------------------

    def chart_vector(self, form, basis):
        """[zeta_a^(k-1)] form(z_a(zeta))/dzeta per basis element (a, k).

        With h_q the Taylor coefficients of the form at r_a, the
        coefficient is sum_q h_q [zeta^(k-1)] s_a^q s_a' = (gamma . h)[k-1]:
        one local series per ramification point.  A form with a pole
        there is refused."""
        owner, ks = np.array(basis, dtype=int).reshape(-1, 2).T
        top = self._top_k(ks)
        out = np.empty(len(basis), dtype=complex)
        for a in set(owner.tolist()):
            r = self.rams[a].location
            h = form.local_series(r, top)
            if h.k_min < 0:
                raise PoleAtRamificationPoint(
                    f"form has a pole at the ramification point {r}")
            column = self._gamma(a, top) @ [h.coeff(q) for q in range(top)]
            out[owner == a] = column[ks[owner == a] - 1]
        return out

    def b_cycle_vector(self, basis):
        """oint_B B_{a,k} per basis element: the chart coefficients of
        2 pi i du (genus 1; genus 0 has no B-cycle and is refused)."""
        return self.chart_vector(DuForm(self.curve, 2j * np.pi), basis)

    def pole_pairing_vector(self, basis, center, j):
        """(1/j) Res_p xi^-j B_{a,k} per basis element: the dual-cycle
        pairing for the time t_{p,j}, read off the chart coefficients of
        the second-kind form omega_{p,j}."""
        frame = pole_frame(self.curve, center)
        return self.chart_vector(SecondKindBasis(self.curve, frame, j), basis)


# -- the recursion's terms -------------------------------------------------------------

def _products(g, J):
    """(I, (g1, n1), (g2, n2), w) for each product term of the recursion
    at (g, J + 1), the first factor taking the spectator slots I.  P^a is
    symmetric in its columns, so a split and its mirror (I^c, (g2, n2),
    (g1, n1)) are one term of weight w = 2 (1 for the self-mirror split,
    J = 0 and g1 = g2).  Splits with an omega(0, 1) factor carry none."""
    for h in range(g // 2 + 1):
        for r in range(J + 1):
            for I in itertools.combinations(range(J), r):
                f1, f2 = (h, 1 + r), (g - h, 1 + J - r)
                if (0, 1) in (f1, f2) or (2 * h == g and J and 0 not in I):
                    continue
                yield I, f1, f2, 1 if 2 * h == g and not J else 2


def _support(A, D, J):
    """The J-tuples of basis indices b = A d + a with sum d <= D, in
    lexicographic order: the columns of a level."""
    d = np.repeat(np.arange(D + 1), A)
    t, ds = np.zeros((1, 0), dtype=int), np.zeros(1, dtype=int)
    for _ in range(J):
        s, b = np.nonzero(ds[:, None] + d <= D)
        t, ds = np.column_stack([t[s], b]), ds[s] + d[b]
    return t


def _ranker(spect, R):
    """rank(*parts): the column in ``spect`` of each tuple of indices < R
    made of parts (t, positions), broadcast, else len(spect); codes in
    radix R grow with the lexicographic order, so no table is dense."""
    powers = R ** np.arange(spect.shape[1] - 1, -1, -1)
    codes = np.append(spect @ powers, -1)

    def rank(*parts):
        q = sum(t @ powers[list(pos)] for t, pos in parts)
        r = np.searchsorted(codes[:-1], q)
        return np.where(codes[r] == q, r, len(spect))
    return rank


def _head(form, M):
    """A form with its spectator slots contracted, in order, against the
    columns of M: a vector over its basis."""
    return form.tensor @ np.prod(M[form.spectators, np.arange(form.n - 1)],
                                 axis=-1)


def _log_derivative(W):
    """D = zeta1 d/dzeta1 log W, D[i, j] the coefficient of zeta1^i
    zeta2^j, on the box of W (W[0, 0] != 0).  With U = W/W[0], whose row 0
    is 1, the rows of D U = zeta1 dU/dzeta1 give D[i] = i U[i] -
    sum_(0<k<i) D[k] U[i-k], as in ``series.log_jet``; the products in
    zeta2 of row i are one product with the Toeplitz matrices of U
    stacked in reverse."""
    n1, n2 = W.shape
    U = W @ _toeplitz(TruncSeries(W[0]).invert().coeffs)
    T = np.ascontiguousarray(_toeplitz(U)[:0:-1]).reshape(-1, n2)
    D = U * np.arange(n1)[:, None]
    flat = D.reshape(-1)
    for i in range(2, n1):
        D[i] -= flat[n2:i * n2] @ T[(n1 - i) * n2:]
    return D


# -- residue slices --------------------------------------------------------------------

def _residue_slice(f: TruncSeries, ks, lo, hi):
    """R[i, e - lo] = coefficient of zeta^(-ks[i] - e) in ``f`` for e in
    [lo, hi], so that R @ d is the zeta^(-k) coefficient of
    (sum_e d[e] zeta^e) f(zeta) for every k in ``ks`` at once; the reach
    rule solves the charts deep enough for every slice."""
    idx = -np.array(ks)[:, None] - np.arange(lo, hi + 1)[None, :]
    pos = idx - f.k_min
    out = np.zeros(idx.shape, dtype=complex)
    out[pos >= 0] = f.coeffs[pos[pos >= 0]]
    return out


# -- special geometry ------------------------------------------------------------

def dF_dt(engine: RecursionEngine, g, center, j):
    """dF_g/dt_{p,j} (g >= 2): the dual-cycle pairing of the one-point
    form; sign pinned by the finite-difference oracles."""
    w1 = engine.omega(g, 1)
    pv = engine.pole_pairing_vector(w1.basis, center, j)
    return complex(w1.tensor[:, 0] @ pv)


def dF_deps(engine: RecursionEngine, g):
    """dF_g/deps (g >= 2, genus 1)."""
    w1 = engine.omega(g, 1)
    return complex(w1.tensor[:, 0] @ engine.b_cycle_vector(w1.basis))


def domega_dt(engine: RecursionEngine, g, n, center, j, points):
    """d omega_n^(g)(points)/dt_{p,j} at fixed X: the (n+1)-point form
    contracted with the dual cycle in its first slot.  The sign is
    opposite to the F_g case in this time normalization (pinned by the
    finite-difference oracles; the dilaton shift in F_g's definition
    flips the pairing)."""
    w = engine.omega(g, n + 1)
    pv = engine.pole_pairing_vector(w.basis, center, j)
    M = engine.basis_matrix(w.basis, points)
    return -complex(pv @ _head(w, M))
