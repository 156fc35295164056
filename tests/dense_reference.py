"""The dense recursion, kept as a reference for the engine's levels.

Each omega(g, n) is a full tensor over the level's basis, one axis per
variable, built from the engine's own residue tensors P^a by the dense
contraction the engine used before it stored each level on its
degree-bounded support.  ``dense_view`` scatters a stored level back into
that layout.
"""

import numpy as np

from spectralflow.recursion import _products, k_slots


class DenseReference:
    """The dense levels of one engine, in their own memo."""

    def __init__(self, engine):
        self.engine = engine
        self.memo = {}

    def omega(self, g, n):
        if (g, n) not in self.memo:
            eng = self.engine
            P, diag = eng._residue_tensors()
            ks = k_slots(g, n)
            tensor = np.zeros((eng.A * len(ks),) * n, dtype=complex)
            for a in range(eng.A):
                self._add_residues(g, n, P[a][:len(ks)], diag[a][:len(ks)],
                                   slice(a, None, eng.A), tensor)
            self.memo[g, n] = tensor
        return self.memo[g, n]

    def _add_residues(self, g, n, P, diag, heads, tensor):
        """tensor[heads, ...] += P contracted with the two factors of each
        of the recursion's terms at one ramification point."""
        J = n - 1
        nb, K = self.engine._nb, len(diag)

        def slots(f):
            if f == (0, 2):
                return slice(nb, nb + K)
            return slice(len(self.omega(*f)))

        if (g, n) == (1, 1):
            tensor[heads] += diag
        elif g >= 1:
            sub = self.omega(g - 1, J + 2)
            d = slots((g - 1, J + 2))
            res = np.tensordot(P[:, d, d], sub, axes=([1, 2], [0, 1]))
            tensor[(heads,) + (d,) * J] += res

        for I, f1, f2, w in _products(g, J):
            res, spect = w * P[:, slots(f1), slots(f2)], []
            for f in (f1, f2):
                if f == (0, 2):
                    res = np.moveaxis(res, 1, -1)
                    spect.append(heads)
                else:
                    res = np.tensordot(res, self.omega(*f), axes=([1], [0]))
                    spect += [slots(f)] * (f[1] - 1)
            inv = np.argsort(list(I) + [j for j in range(J) if j not in I])
            res = np.transpose(res, [0] + [1 + int(p) for p in inv])
            tensor[(heads,) + tuple(spect[p] for p in inv)] += res


def dense_view(form):
    """A stored level as the full tensor over its basis, one axis per
    variable: the stored rows at each spectator tuple, 0 elsewhere."""
    if form.n == 1:
        return form.tensor[:, 0]
    L = len(form.basis)
    out = np.zeros((L,) * form.n, dtype=complex)
    out[(slice(None),) + tuple(form.spectators.T)] = form.tensor
    return out


def degree_sums(form):
    """sum_i d_i, d = (k - 1)/2, over every entry of the dense view."""
    d = np.array([(k - 1) // 2 for _, k in form.basis])
    return sum(np.ix_(*[d] * form.n))
