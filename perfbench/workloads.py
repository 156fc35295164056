"""The benchmark workloads: seeded inputs, one cold pass, and its checks.

A cold pass builds every object afresh (curve, engine or system, forms),
so no cache of the library survives from one pass to the next.  Each
query is one operation.  An operation fails when it raises, whatever the
exception, or when its check misses the tolerance written next to it.
A failing operation is recorded and the pass goes on.

A pass can also sample the host's speed while it runs, so that its times
can be scaled to a reference speed of the host; see ``HostSpeed``.
"""

from __future__ import annotations

import gc
import math
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

# library functions are called through their module, where the traced
# run patches them
from spectralflow import geometry
from spectralflow.classical import ClassicalSystem
from spectralflow.curve import Genus0Curve, Genus1Curve, RationalFunction
from spectralflow.forms import SumForm, ThirdKind, YdX
from spectralflow.recursion import RecursionEngine

# Joukowski F_g relative-error tolerances, about 100x over the errors
# measured at curve order 40 (1.5e-14, 8.7e-13 and 8.3e-10).
FG_TOL = {2: 1e-12, 3: 1e-10, 4: 1e-7}
# |w(p) - w(reversed p)| and |w(p) + s'(z) w(s(z), ...)| over |w(p)|,
# with s the curve's involution; the library's own tests use 1e-8.
FORM_TOL = 1e-9
# |F_g - F_g with the primitive of Y dX shifted by 17| over |F_g|.
SHIFT_TOL = 1e-10
# Lax trace, characteristic polynomial, inverse relation and duality
# residuals, as in the library's tests.
CLASSICAL_TOL = 1e-8

JOUKOWSKI_ORDER = 40        # the default order 24 refuses F_4
SPHERE_GENERA = (2, 3, 4)
TORUS_FORMS = ((0, 3), (1, 1), (0, 4), (1, 2))
TORUS_GENERA = (2, 3)
CLASSICAL_TRIPLES = 4


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m))
                 / (m + 1))
    return b[n]


def joukowski_fg(g: int) -> Fraction:
    """F_g of X = z + 1/z, Y = z: -B_2g / (2g (2g - 2)) (Harer-Zagier)."""
    return -bernoulli(2 * g) / (2 * g * (2 * g - 2))


# -- operations ------------------------------------------------------------------

@dataclass
class Op:
    """One checked query of a pass."""
    name: str
    tol: float
    value: object = None        # the answer (compared bit for bit in tests)
    error: float = math.nan     # relative error or residual of the check
    exc: str = ""               # "Type: message" when the query raised

    @property
    def failed(self) -> bool:
        return bool(self.exc) or not self.error <= self.tol


def _op(ops, name, tol, query):
    """Run ``query() -> (value, error)`` and record it as one operation."""
    try:
        value, error = query()
    except Exception as exc:  # every failure is counted; none ends the run
        ops.append(Op(name, tol, exc=f"{type(exc).__name__}: {exc}"))
    else:
        ops.append(Op(name, tol, value, float(error)))


def _form_check(eng, g, n, points, involution):
    """Evaluate w_{g,n} at ``points``, reversed, and with the first point
    moved by the involution s; the form is symmetric and w(z) + w(s(z)) = 0
    in each slot.  ``involution(z)`` returns s(z) and s'(z)."""
    w = eng.omega(g, n)
    val = eng.evaluate(w, points)
    rev = eng.evaluate(w, points[::-1])
    sz, dsz = involution(points[0])
    inv = eng.evaluate(w, [sz] + list(points[1:])) * dsz
    err = max(abs(val - rev), abs(val + inv)) / abs(val)
    return (val, rev, inv), err


def _points(rng, n, draw, sep=0.05):
    pts = []
    while len(pts) < n:
        z = draw()
        if all(abs(z - w) > sep for w in pts):
            pts.append(z)
    return pts


# -- curves (as in tests/conftest.py) --------------------------------------------

def joukowski():
    """X = z + 1/z, Y = z."""
    return Genus0Curve(RationalFunction([1, 0, 1], [0, 1]),
                       RationalFunction([0, 1]), order=JOUKOWSKI_ORDER)


def joukowski_involution(z):
    return 1 / z, -1 / z ** 2


def torus():
    """tau = i, X = wp, Y = wp'/2."""
    return Genus1Curve(1j, RationalFunction([0.0]), RationalFunction([0.5]))


def torus_involution(u):
    return -u, -1.0


# -- sphere-genus ----------------------------------------------------------------------

def sphere_inputs(seed):
    rng = np.random.default_rng(seed)
    return _points(rng, 3, lambda: complex(rng.uniform(0.5, 2.2),
                                           rng.uniform(0.3, 1.6)))


def sphere_setup():
    return RecursionEngine(joukowski())


def sphere_queries(eng, points):
    ops = []
    for g in SPHERE_GENERA:
        exact = joukowski_fg(g)

        def fg():
            val = eng.invariant(g)
            return val, abs(val - float(exact)) / abs(float(exact))
        _op(ops, f"F_{g}", FG_TOL[g], fg)
    for g in SPHERE_GENERA:
        for i, z in enumerate(points):
            _op(ops, f"omega({g},1)@{i}", FORM_TOL,
                lambda: _form_check(eng, g, 1, [z], joukowski_involution))
    return ops


# -- torus-forms -------------------------------------------------------------------------

def torus_inputs(seed):
    rng = np.random.default_rng(seed)
    return [_points(rng, n, lambda: complex(rng.uniform(0.08, 0.45),
                                            rng.uniform(0.08, 0.45)))
            for _, n in TORUS_FORMS]


def torus_setup():
    return RecursionEngine(torus())


def torus_queries(eng, point_sets):
    ops = []
    for (g, n), pts in zip(TORUS_FORMS, point_sets):
        _op(ops, f"omega({g},{n})", FORM_TOL,
            lambda: _form_check(eng, g, n, pts, torus_involution))
    for g in TORUS_GENERA:
        def fg():
            val = eng.invariant(g)
            shifted = eng.invariant_with_shifted_primitive(g, 17.0)
            return (val, shifted), abs(val - shifted) / abs(val)
        _op(ops, f"F_{g}", SHIFT_TOL, fg)
    return ops


# -- classical-torus -----------------------------------------------------------------------

def classical_inputs(seed):
    """(x1, x2, x3, y samples) with x = wp(u) for seeded u; the x values
    come from a curve of their own, so passes start with cold caches."""
    rng = np.random.default_rng(seed)
    cv = torus()

    def draw_x():
        while True:
            u = complex(rng.uniform(0.3, 0.47), rng.uniform(0.3, 0.47))
            x = cv.x_value(u)
            if not cv.check_near_branch(x):
                return x
    out = []
    while len(out) < CLASSICAL_TRIPLES:
        xs = [draw_x() for _ in range(3)]
        if min(abs(a - b) for a, b in ((xs[0], xs[1]), (xs[1], xs[2]),
                                       (xs[0], xs[2]))) < 0.3:
            continue
        ys = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(2)]
        out.append((*xs, ys))
    return out


def classical_setup():
    cv = torus()
    # the Y dX sheet matrices are too ill-conditioned to invert on this
    # torus, so the Lax and inverse-relation checks use a tame form
    tame = SumForm([(0.7, ThirdKind(cv, 0.21 + 0.33j, 0.68 + 0.52j)),
                    (0.4, geometry.basis_form(cv, 0.41 + 0.13j, 1))])
    return ClassicalSystem(cv, YdX(cv)), ClassicalSystem(cv, tame)


def classical_queries(systems, triples):
    ydx, tame = systems
    ops = []
    for i, (x1, x2, x3, ys) in enumerate(triples):
        def lax():
            lax_m = tame.lax_matrix(x1, x2)
            sheets, _ = tame.sheet_data(x2)
            tr = sum(tame.curve.y_value(z) for z in sheets.preimages)
            return lax_m, abs(np.trace(lax_m) - tr) / max(1.0, abs(tr))

        def charpoly():
            r = tame.charpoly_residual(x1, x2, ys)
            return r, r

        def inverse():
            r = tame.inverse_relation_residual(x1, x2)
            return r, r

        def duality():
            r = ydx.duality_residual(x1, x2, x3)
            return r, r
        for name, query in (("lax", lax), ("charpoly", charpoly),
                            ("inverse", inverse), ("duality", duality)):
            _op(ops, f"{name}@{i}", CLASSICAL_TOL, query)
    return ops


# -- host speed ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """A fixed loop of one kind of the library's work, the time it takes in
    the fast spells of a core of the reference host (2-core x86-64 VM,
    Python 3.11.7, numpy 2.4.6), and how often a pass samples it.  A time
    scaled by it is in seconds at that speed."""
    loop: Callable
    ref_s: float
    every_s: float


_CAL_A = np.linspace(-1.0, 1.0, 24) + 0.5j
_CAL_BLOCK = np.linspace(-1.0, 1.0, 128 * 160).reshape(128, 160) + 0.5j
_CAL_SERIES = np.linspace(1.0, 0.0, 96) + 0j


def interpreter_loop():
    """Scalar complex arithmetic in the interpreter and short numpy arrays,
    as in theta sums, sheet solves and series products."""
    z, s, a = 0.3 + 0.1j, 0j, _CAL_A
    for k in range(200):
        s += z * s * 0.5 + complex(k, 1) / (k + 1.0)
        a = a * 0.5 + _CAL_A
    return s, a


def fft_loop():
    """One power-axis convolution by FFT, as in the recursion's
    ``_axis_conv``: a 128 x 160 block with a 96-term series."""
    fb = np.fft.fft(_CAL_BLOCK, n=256, axis=0)
    f2 = np.fft.fft(_CAL_SERIES, n=256)
    return np.fft.ifft(fb * f2[:, None], axis=0)


INTERPRETER = Calibration(interpreter_loop, 3.6e-4, 0.01)
FFT = Calibration(fft_loop, 1.4e-3, 0.04)


class HostSpeed:
    """The speed of the host's core, sampled while a pass runs.

    A core of a shared host runs at one speed or about half of it, as other
    tenants' load comes and goes, in spells from tens of milliseconds to
    tens of seconds, and the process's own CPU time slows with it.  Inside
    ``with speed:`` a wall-clock interval timer interrupts the process every
    ``calibration.every_s`` and times one calibration loop, with the garbage
    collector off.  The loop slows by the same factor as the library's code
    of its kind, so a stretch timed with ``Stopwatch`` and scaled by
    ref_s / (mean loop time in the stretch) stays put while the host's
    speed moves.  A change to the library moves it as before: the loop is
    none of the library's code.  The sampling itself is left out of every
    stretch.  Each stretch samples the loop of its own kind of work."""

    def __init__(self):
        self.calibration = None
        self.loops = 0
        self.loop_s = 0.0       # time in the loops
        self.spent_s = 0.0      # time in the handler, loops included
        self._saved = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        gc_on = gc.isenabled()
        gc.disable()            # a collection is the heap's cost, not the loop's
        try:
            self.calibration.loop()
            t1 = perf_counter()
        finally:
            if gc_on:
                gc.enable()
        self.loops += 1
        self.loop_s += t1 - t0
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.calibration = None

    def use(self, calibration: Calibration):
        """Sample ``calibration`` from now on (inside ``with self:``)."""
        if calibration is not self.calibration:
            self.calibration = calibration
            every = calibration.every_s
            signal.setitimer(signal.ITIMER_REAL, every, every)

    def mark(self):
        return perf_counter(), self.spent_s, self.loops, self.loop_s


class Stopwatch:
    """Wall time over one or more stretches of one kind of work, without
    the speed sampling, and the calibration loops that ran in them."""

    def __init__(self, speed: HostSpeed | None, calibration: Calibration):
        self.speed = speed
        self.calibration = calibration
        self.wall_s = 0.0
        self.loops = 0
        self.loop_s = 0.0
        self._mark = None

    def _now(self):
        return self.speed.mark() if self.speed else (perf_counter(), 0.0,
                                                     0, 0.0)

    def __enter__(self):
        if self.speed:
            self.speed.use(self.calibration)
        self._mark = self._now()
        return self

    def __exit__(self, *exc):
        (t0, spent0, n0, s0), (t1, spent1, n1, s1) = self._mark, self._now()
        self.wall_s += (t1 - t0) - (spent1 - spent0)
        self.loops += n1 - n0
        self.loop_s += s1 - s0

    def scale(self, fallback=1.0):
        """ref_s over the mean loop time; ``fallback`` if no loop ran."""
        if not self.loops:
            return fallback
        return self.calibration.ref_s * self.loops / self.loop_s


# -- registry ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable        # seed -> inputs, built outside the timed pass
    setup: Callable         # () -> state: curve, engine or systems, forms
    queries: Callable       # (state, inputs) -> list[Op]
    # the kind of work most of the set-up's and the queries' time goes to
    setup_kind: Calibration
    query_kind: Calibration


WORKLOADS = {
    "sphere-genus": Workload(sphere_inputs, sphere_setup, sphere_queries,
                             INTERPRETER, FFT),
    "torus-forms": Workload(torus_inputs, torus_setup, torus_queries,
                            INTERPRETER, INTERPRETER),
    "classical-torus": Workload(classical_inputs, classical_setup,
                                classical_queries, INTERPRETER, INTERPRETER),
}


@dataclass
class PassResult:
    setup_s: float              # wall times, without the speed sampling
    query_s: float
    ops: list
    setup_scale: float = 1.0    # Stopwatch.scale() of each, if sampled
    query_scale: float = 1.0

    @property
    def pass_s(self):
        return self.setup_s + self.query_s

    def scaled(self):
        """(pass_s, setup_s, query_s) at the host's reference speed."""
        setup = self.setup_s * self.setup_scale
        query = self.query_s * self.query_scale
        return setup + query, setup, query


def run_pass(workload: Workload, inputs, setups=1,
             speed: HostSpeed | None = None) -> PassResult:
    """One cold pass: build fresh objects, then run and check the queries.

    With ``setups`` > 1 the objects are built that many times over and
    ``setup_s`` is the mean build time; the queries use the last build.
    With ``speed`` the host's speed is sampled through the pass."""
    setup = Stopwatch(speed, workload.setup_kind)
    query = Stopwatch(speed, workload.query_kind)
    with speed or nullcontext():
        for _ in range(setups):
            state = None        # the previous build is freed untimed
            with setup:
                state = workload.setup()
        with query:
            ops = workload.queries(state, inputs)
    query_scale = query.scale()
    return PassResult(setup.wall_s / setups, query.wall_s, ops,
                      setup.scale(query_scale), query_scale)
