"""Oracles for the engine's evaluation, kept on the test side.

``leg_matrix`` reads B_{a,k}(z)/dchart in one ``bergman_leg`` call, past
the engine's leg memo; ``residue_at_point`` is a contour quadrature of
the residue of a form at a ramification point, from those legs.
"""

import numpy as np

from spectralflow.recursion import _head


def leg_matrix(eng, basis, points):
    """B_{a,k}(z)/dchart for (a, k) in ``basis`` (rows) and z in
    ``points`` (columns), every point read afresh to the basis's top k."""
    owner, ks = np.array(basis, dtype=int).reshape(-1, 2).T
    top = int(ks.max())
    c = np.array([r.location for r in eng.rams])[:, None] \
        - np.asarray(points, dtype=complex)
    legs = eng.curve.bergman_leg(
        c, np.stack([eng._powers(a, top)[1] for a in range(eng.A)]),
        np.stack([eng._gamma(a, top) for a in range(eng.A)]))
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
