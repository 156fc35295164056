"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

The library computes its periods and primitives in closed form; this
module is their oracle.  The tests call it directly and through
``geometry.line_integral``, and the library only in
``ClassicalSystem.b_loop_transport_residual``, itself an oracle for
zeta.  The integrand is called once per round over all open panels (at
most MAX_PANELS of them), on the (P, 15) array of their Kronrod nodes,
and must return an array of that shape (or a constant, which is
broadcast).
Each segment sums its accepted panels left to right, so results are
bit-reproducible and, for an integrand evaluated point by point, do not
depend on which other segments share the batch.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNotConverged

# panels are halved at most this many times
MAX_DEPTH = 14
# at most this many panels go into one call of the integrand
MAX_PANELS = 32
# a panel is accepted when its Kronrod-Gauss gap is below TOL * max(1, |value|)
TOL = 1e-12

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1]
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870])


def integrate_segments(f, segments):
    """Integrals of f along the straight segments [a, b] of ``segments``
    (complex paths), one value per segment.

    Each round calls f once, on the (P, 15) array of the Kronrod nodes
    of the open panels across all segments: all of them while there are
    at most MAX_PANELS, else MAX_PANELS of them, the newest halves
    first, so a round stays small and a refusal comes within about
    MAX_DEPTH rounds.  A segment's accepted panels are summed left to
    right, so for an integrand evaluated point by point its value does
    not depend on the rest of the batch.

    Raises QuadratureNotConverged, naming the segment, when a panel
    halved MAX_DEPTH times still misses TOL."""
    ends = np.array(segments, dtype=complex).reshape(-1, 2)
    a, span = ends[:, 0], ends[:, 1] - ends[:, 0]
    # open panels, a stack taken from its end: owning segment and
    # [lo, hi] in the segment's parameter
    seg = np.arange(len(ends))[::-1]
    lo, hi = np.zeros(len(ends)), np.ones(len(ends))
    done = [[] for _ in ends]           # (lo, value) of accepted panels
    while len(seg):
        keep = max(0, len(seg) - MAX_PANELS)
        s, l, h = seg[keep:], lo[keep:], hi[keep:]
        mid, half = 0.5 * (l + h), 0.5 * (h - l)
        ts = mid[:, None] + half[:, None] * _XK
        zs = a[s, None] + span[s, None] * ts
        ys = np.broadcast_to(np.asarray(f(zs), dtype=complex), zs.shape) \
            * span[s, None]
        k = half * np.sum(_WK * ys, axis=-1)
        err = np.abs(k - half * np.sum(_WG * ys[:, 1::2], axis=-1))
        ok = err <= TOL * np.maximum(1.0, np.abs(k))
        for i in np.flatnonzero(ok):
            done[s[i]].append((l[i], k[i]))
        bad = np.flatnonzero(~ok)
        # halving is exact, so MAX_DEPTH halvings leave 2^-MAX_DEPTH
        deep = bad[h[bad] - l[bad] <= 2.0 ** -MAX_DEPTH]
        if len(deep):
            i = deep[-1]
            raise QuadratureNotConverged(
                f"panel [{l[i]:.6g}, {h[i]:.6g}] of the segment "
                f"{ends[s[i], 0]} -> {ends[s[i], 1]} has error "
                f"estimate {err[i]:.3g} after {MAX_DEPTH} halvings")
        # the halves of the failed panels go on top, left half uppermost
        seg = np.concatenate([seg[:keep], np.repeat(s[bad], 2)])
        lo = np.concatenate([lo[:keep],
                             np.stack([mid[bad], l[bad]], -1).ravel()])
        hi = np.concatenate([hi[:keep],
                             np.stack([h[bad], mid[bad]], -1).ravel()])
    return [sum((val for _, val in sorted(panels)), 0.0 + 0.0j)
            for panels in done]


def integrate_segment(f, a, b):
    """Integral of f along the straight segment [a, b]; see
    integrate_segments."""
    return integrate_segments(f, [(a, b)])[0]


def integrate_path(f, points):
    """Integral along the polyline ``points``: one integrate_segments
    batch, its segments summed left to right."""
    return sum(integrate_segments(f, list(zip(points[:-1], points[1:]))))
