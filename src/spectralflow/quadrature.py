"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

The integrand is called once per panel, on the array of its 15 Kronrod
nodes, and must return an array of values (or a constant, which is
broadcast).  Panels are processed in a fixed order, so results are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNotConverged

# panels are halved at most this many times
MAX_DEPTH = 14
# a panel is accepted when its Kronrod-Gauss gap is below TOL * max(1, |value|)
TOL = 1e-12
# obstacles closer than this to a segment get a detour
CLEARANCE = 1e-3

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


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _XK
    ys = np.broadcast_to(np.asarray(f(xs), dtype=complex), xs.shape)
    k = half * np.sum(_WK * ys)
    g = half * np.sum(_WG * ys[1::2])
    return k, abs(k - g)


def integrate_segment(f, a, b):
    """Integral of f along the straight segment [a, b] (complex path);
    f is called on arrays of points.

    Raises QuadratureNotConverged when a panel halved MAX_DEPTH times
    still misses TOL."""
    a, b = complex(a), complex(b)

    def lift(t):
        return f(a + (b - a) * t) * (b - a)

    total = 0.0 + 0.0j
    stack = [(0.0, 1.0, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        val, err = _panel(lift, lo, hi)
        if err <= TOL * max(1.0, abs(val)):
            total += val
        elif depth >= MAX_DEPTH:
            raise QuadratureNotConverged(
                f"panel [{lo:.6g}, {hi:.6g}] of the segment {a} -> {b} "
                f"has error estimate {err:.3g} after {MAX_DEPTH} halvings")
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return total


def integrate_path(f, points):
    """Integral along a polyline given by ``points``."""
    return sum(integrate_segment(f, points[i], points[i + 1])
               for i in range(len(points) - 1))


def split_to_avoid(a, b, obstacles):
    """Polyline from a to b detouring around listed points.

    Obstacles within CLEARANCE of the open segment get a sideways
    detour; obstacles at the endpoints are the caller's business and
    are skipped (a path *to* a pole is legitimate for regularized
    integrands).
    """
    a, b = complex(a), complex(b)
    direction = b - a
    length = abs(direction)
    if length == 0:
        return [a, b]
    unit = direction / length
    hits = []
    for p in obstacles:
        p = complex(p)
        if min(abs(p - a), abs(p - b)) < 2 * CLEARANCE:
            continue
        t = ((p - a) / unit).real / length
        if 0.0 < t < 1.0:
            dist = abs(a + t * length * unit - p)
            if dist < CLEARANCE:
                hits.append((t, dist, p))
    if not hits:
        return [a, b]
    hits.sort(key=lambda h: h[0])
    margin = max(8 * CLEARANCE, 2 * max(h[1] for h in hits))
    margin = min(margin, 0.2 * length)
    pts = [a]
    for t, dist, p in hits:
        foot = a + t * length * unit
        away = foot - p
        side = (away / abs(away)) if abs(away) > 1e-15 else 1j * unit
        pts.append(foot - unit * margin + side * margin)
        pts.append(foot + unit * margin + side * margin)
    pts.append(b)
    return pts
