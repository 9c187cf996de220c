"""Keyhole and annular contours with adaptive quadrature, plus the numerical
checks of the Cauchy-identity machinery: difference quotients via the Cauchy
integral, per-annulus decomposition, the Lipschitz-Cauchy bound ratio, and
kernel seminorm ratios.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .content import disjoint_disk_content
from .geometry import (
    AnnularSectorRegion,
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GeometryError,
    annulus_minus_cone_region,
    annulus_radii,
)
from .lipschitz import GalleryFunction, seminorm_estimate


class ContourError(ValueError):
    pass


class ToleranceError(ContourError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# Path primitives


@dataclass(frozen=True)
class Arc:
    """Circular arc from angle a0 to a1 (counterclockwise iff a1 > a0)."""

    center: complex
    radius: float
    a0: float
    a1: float

    def point(self, t):
        ang = self.a0 + (self.a1 - self.a0) * np.asarray(t)
        return self.center + self.radius * np.exp(1j * ang)

    def velocity(self, t):
        ang = self.a0 + (self.a1 - self.a0) * np.asarray(t)
        return 1j * (self.a1 - self.a0) * self.radius * np.exp(1j * ang)

    @property
    def length(self) -> float:
        return abs(self.a1 - self.a0) * self.radius

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.a1, self.a0)


@dataclass(frozen=True)
class Segment:
    z0: complex
    z1: complex

    def point(self, t):
        return self.z0 + (self.z1 - self.z0) * np.asarray(t)

    def velocity(self, t):
        t = np.asarray(t)
        return np.broadcast_to(self.z1 - self.z0, t.shape).copy() if t.shape else self.z1 - self.z0

    @property
    def length(self) -> float:
        return abs(self.z1 - self.z0)

    def reversed(self) -> "Segment":
        return Segment(self.z1, self.z0)


Primitive = Arc | Segment

_JOIN_TOL = 1e-12


def _polylines_cross(a: np.ndarray, b: np.ndarray) -> bool:
    """True if the sampled polylines have a transversal segment intersection."""
    a0, a1 = a[:-1], a[1:]
    b0, b1 = b[:-1], b[1:]

    def cross(o, p, q):
        u = p - o
        v = q - o
        return (u.real * v.imag - u.imag * v.real).real

    d1 = cross(a0[:, None], a1[:, None], b0[None, :])
    d2 = cross(a0[:, None], a1[:, None], b1[None, :])
    d3 = cross(b0[None, :], b1[None, :], a0[:, None])
    d4 = cross(b0[None, :], b1[None, :], a1[:, None])
    return bool(np.any((d1 * d2 < 0) & (d3 * d4 < 0)))


@dataclass(frozen=True)
class ContourPath:
    segments: tuple[Primitive, ...]
    closed: bool = True
    check_simple: bool = True

    def __post_init__(self):
        prims = tuple(self.segments)
        if not prims:
            raise ContourError("a path needs at least one primitive")
        object.__setattr__(self, "segments", prims)
        scale = max(max(abs(p.point(0.0)), abs(p.point(1.0))) for p in prims) or 1.0
        for a, b in zip(prims, prims[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > _JOIN_TOL * max(scale, 1.0):
                raise ContourError(
                    f"consecutive primitives do not join: {a.point(1.0)} vs {b.point(0.0)}"
                )
        if self.closed:
            gap = abs(prims[-1].point(1.0) - prims[0].point(0.0))
            if gap > _JOIN_TOL * max(scale, 1.0):
                raise ContourError(f"closed path does not return to start (gap {gap})")
        if self.check_simple:
            self._check_simple()

    def _check_simple(self, samples: int = 48):
        ts = np.linspace(0.0, 1.0, samples)
        pts = [p.point(ts) for p in self.segments]
        n = len(pts)
        scale = max(float(np.abs(q).max()) for q in pts) or 1.0
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (self.closed and i == 0 and j == n - 1)
                a, b = pts[i], pts[j]
                d = np.abs(a[:, None] - b[None, :])
                if adjacent:
                    # allow contact only at the shared endpoint
                    d = d[1:-1, 1:-1]
                if d.size and d.min() < 1e-9 * scale:
                    raise ContourError("path is not simple (primitives intersect)")
                if not adjacent and _polylines_cross(a, b):
                    raise ContourError("path is not simple (primitives cross)")

    @property
    def total_length(self) -> float:
        return sum(p.length for p in self.segments)

    @property
    def cusp_free(self) -> bool:
        """No outward-pointing cusps: tangents never reverse at a joint."""
        prims = self.segments
        joints = list(zip(prims, prims[1:]))
        if self.closed:
            joints.append((prims[-1], prims[0]))
        for a, b in joints:
            va = complex(a.velocity(1.0))
            vb = complex(b.velocity(0.0))
            if abs(va) == 0 or abs(vb) == 0:
                continue
            ang = abs(cmath.phase(vb / va))
            if ang > math.pi - 1e-9:
                return False
        return True

    def reversed(self) -> "ContourPath":
        return ContourPath(
            tuple(p.reversed() for p in reversed(self.segments)),
            closed=self.closed,
            check_simple=False,
        )


# ---------------------------------------------------------------------------
# Adaptive quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 48
# Most panels refined per integrand call.  The package's integrals stay far
# below it, so each of their refinement levels is one call.  Beyond it the
# leftmost panels go first, as in a depth-first search; that bounds the work
# and memory an integral spends before it fails at _MAX_DEPTH.
_BATCH = 256


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


def _primitive_table(prims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients that evaluate many primitives in one numpy expression.

    With e = exp(1j (a0 + da t)), an arc is centre + radius e with velocity
    vcoef e, and a segment is z0 + dz t with velocity dz.  Each coefficient
    is the number `Arc` or `Segment` computes with, so every point and
    velocity is bitwise theirs.  Returns (is_arc, [a0, da, radius] rows,
    [centre, vcoef, z0, dz] rows).
    """
    is_arc = np.array([isinstance(p, Arc) for p in prims])
    real = np.zeros((len(prims), 3))
    cplx = np.zeros((len(prims), 4), complex)
    for i, p in enumerate(prims):
        if is_arc[i]:
            real[i] = p.a0, p.a1 - p.a0, p.radius
            cplx[i, :2] = p.center, 1j * (p.a1 - p.a0) * p.radius
        else:
            cplx[i, 2:] = p.z0, p.z1 - p.z0
    return is_arc, real, cplx


def _panel_nodes(table, idx, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes z, velocities at them and half-widths of the
    panels [lo, hi] on the primitives `idx` of a `_primitive_table`.

    `lo` and `hi` hold one row of panels per entry of `idx`; z and the
    velocities add the node axis.
    """
    is_arc, real, cplx = table
    arc = is_arc[idx, None, None]
    a0, da, radius = real[idx].T[..., None, None]
    centre, vcoef, z0, dz = cplx[idx].T[..., None, None]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[..., None] + half[..., None] * _GL_NODES
    e = np.exp(1j * (a0 + da * t))
    z = np.where(arc, centre + radius * e, z0 + dz * t)
    vel = np.where(arc, vcoef * e, dz)
    return z, vel, half


def _panel_sums(nodes, integrand) -> np.ndarray:
    """15-point Gauss-Legendre sums over the panels of `_panel_nodes`, from
    one `integrand` call.

    Each sum is reduced along the node axis on its own, so a panel's sum
    does not depend on which other panels share the call.
    """
    z, vel, half = nodes
    vals = np.asarray(integrand(z.ravel())) * vel.ravel()
    return half * np.sum(vals.reshape(z.shape) * _GL_WEIGHTS, axis=-1)


# Columns of the panel state in `_integrate_many`, one row per panel: its
# primitive, [lo, hi] with its midpoint, tolerance, own id, parent's id (-1
# for a whole primitive), depth and heap index (1 for a whole primitive, 2h
# and 2h + 1 for the halves of panel h).  Each is a small integer or a
# dyadic rational, so float64 holds it exactly.
_IDX, _LO, _MID, _HI, _TOL, _ID, _PARENT, _DEPTH, _HEAP = range(9)

# The halves of every panel shallower than this depth have their nodes kept
# in the bank of their plan.  The decomposition grid of the benchmark
# (M = 1, N = 10) refines no deeper.
_BANK_DEPTH = 4
# bank rows per primitive: panels 2 .. 2^D - 1 in heap order, depths 1 .. D-1
_BANK_ROWS = 2**_BANK_DEPTH - 2


@dataclass(frozen=True)
class _Plan:
    """What `_integrate_many` needs of a path set before it sees an integrand."""

    path_of: np.ndarray  # each primitive's path
    shares: np.ndarray  # each primitive's share of its path's tolerance
    table: tuple  # `_primitive_table` of the primitives
    state: np.ndarray  # level-0 panel state, a whole primitive each; tolerances 0
    nodes: tuple  # `_panel_nodes` of each primitive's coarse, left and right panel
    evaluations: np.ndarray  # integrand points of level 0, per path
    # `_panel_nodes` of the halves of panel h of primitive i in row
    # i * _BANK_ROWS + h - 2, filled on first use: (z, velocities,
    # half-widths, filled)
    bank: tuple


@functools.lru_cache(maxsize=64)
def _plan(paths: tuple[ContourPath, ...]) -> _Plan:
    """The plan of a path set, built once per distinct tuple of paths.

    Paths are frozen and compared by value, so equal path sets share one
    plan; as for the memoised builders, `lru_cache` takes 0.0 and -0.0 for
    the same key.  Every array is read-only, because every later call with
    these paths reads it.
    """
    prims, path_of, shares = [], [], []
    for k, path in enumerate(paths):
        segs = path.segments
        total_len = path.total_length
        prims += segs
        path_of += [k] * len(segs)
        shares += [p.length / total_len if total_len > 0 else 1.0 / len(segs) for p in segs]
    n = len(prims)
    table = _primitive_table(prims)
    state = np.zeros((n, 9))
    state[:, _IDX] = state[:, _ID] = np.arange(n)
    state[:, _MID], state[:, _HI], state[:, _PARENT], state[:, _HEAP] = 0.5, 1.0, -1.0, 1.0
    lo, mid, hi = state[:, _LO], state[:, _MID], state[:, _HI]
    nodes = _panel_nodes(table, np.arange(n), np.stack([lo, lo, mid], -1), np.stack([hi, mid, hi], -1))
    path_of, shares = np.array(path_of), np.array(shares)
    evaluations = 3 * len(_GL_NODES) * np.bincount(path_of, minlength=len(paths))
    for a in (path_of, shares, *table, state, *nodes, evaluations):
        a.flags.writeable = False
    # the zeroed pages of rows never used need not become resident
    rows = n * _BANK_ROWS
    bank = (
        np.zeros((rows, 2, len(_GL_NODES)), complex),
        np.zeros((rows, 2, len(_GL_NODES)), complex),
        np.zeros((rows, 2)),
        np.zeros(rows, bool),
    )
    return _Plan(path_of, shares, table, state, nodes, evaluations, bank)


def _banked_nodes(plan: _Plan, state: np.ndarray, idx: np.ndarray) -> tuple:
    """`_panel_nodes` of the halves of the panels `state` on the primitives
    `idx`, read from the plan's bank; each panel is shallower than
    `_BANK_DEPTH` and below the root.  A row is computed by `_panel_nodes` on
    its first use, and elementwise arithmetic gives it the bits of any
    other call."""
    z, vel, half, filled = plan.bank
    row = idx * _BANK_ROWS + state[:, _HEAP].astype(np.intp) - 2
    new = ~filled[row]
    if new.any():
        r = row[new]
        z[r], vel[r], half[r] = _panel_nodes(
            plan.table, idx[new], state[new, _LO : _MID + 1], state[new, _MID : _HI + 1]
        )
        filled[r] = True
    return z[row], vel[row], half[row]


def integrate_contour(path: ContourPath, integrand, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive contour integral of `integrand` along the path.

    `integrand` must accept a complex numpy array.  Each primitive,
    parametrised over [0, 1], gets the share of `tol` given by its length.
    A panel compares the 15-point Gauss-Legendre sum over itself (coarse)
    with the sum over its two halves (fine).  It accepts fine when
    |fine - coarse| <= its tolerance or <= 1e-16 (1 + |fine|); otherwise it
    splits into its halves, each with half its tolerance, and the coarse sum
    of a half is the parent's sum over it.  A panel at depth 48 that still
    fails raises `ToleranceError`, the first such panel in path order.
    Refinement is level synchronous: the active panels of all primitives,
    up to `_BATCH` of them, are evaluated in one `integrand` call per level.
    Accepted values and error estimates are added bottom-up, left half plus
    right half, then primitive by primitive in path order, so every result
    equals that of the depth-first recursion bit for bit.  `evaluations`
    counts integrand points.
    """
    return _integrate_many([path], integrand, tol)[0]


def _integrate_many(paths, integrand, tol: float, plan: _Plan | None = None) -> list[QuadratureResult]:
    """`integrate_contour(path, integrand, tol)` for each path, in one loop.

    Each refinement level sends the active panels of every path to
    `integrand` in one call.  A path keeps its own tolerance shares,
    tree-order sums, `_BATCH` cap (its leftmost panels first) and first
    failure, and every panel sum is reduced on its own, so each result is
    bitwise the one of a call for its path alone.  If several paths fail,
    the `ToleranceError` is that of the first of them in `paths`, as in a
    loop of single calls.  What depends only on the paths, up to the nodes
    of level 0 and the bank of shallow panel nodes, comes from their
    memoised `_plan`, which a caller that holds it passes as `plan`.
    """
    if tol <= 0:
        raise ContourError("tolerance must be positive")
    if plan is None:
        plan = _plan(tuple(paths))
    path_of = plan.path_of
    n = len(path_of)
    state = plan.state.copy()
    state[:, _TOL] = tol * plan.shares
    sums = _panel_sums(plan.nodes, integrand)
    coarse, halves = sums[:, 0], sums[:, 1:]
    rest, rest_coarse = state[:0], coarse[:0]  # panels awaiting refinement, in path order
    states, fines, errs = [], [], []
    failures = {}  # path -> its leftmost failing panel so far
    next_id = n
    level = 0  # no panel of a level is deeper than the level
    while True:
        fine = halves[:, 0] + halves[:, 1]
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)
        done = (err <= state[:, _TOL]) | (err <= 1e-16 * (1.0 + np.hypot(fine.real, fine.imag)))
        split = ~done
        failed = np.flatnonzero(split & (state[:, _DEPTH] >= _MAX_DEPTH)) if level >= _MAX_DEPTH else ()
        if len(failed):
            # a depth-first search of a path raises at its first failing panel
            # before it reaches any panel further right, so those are dropped
            pid = path_of[state[:, _IDX].astype(np.intp)]
            first = {}
            for i in failed.tolist():
                first.setdefault(int(pid[i]), i)
            for k, i in first.items():
                failures[k] = (*state[i, [_LO, _HI, _TOL]], fine[i], err[i])
                split[i:] &= pid[i:] != k
            alive = ~np.isin(path_of[rest[:, _IDX].astype(np.intp)], list(first))
            rest, rest_coarse = rest[alive], rest_coarse[alive]
        states.append(state)
        fines.append(fine)
        errs.append(err)
        # each split panel becomes its halves [lo, mid] and [mid, hi]
        kids = np.repeat(state[split], 2, axis=0)
        kids[0::2, _HI] = kids[0::2, _MID]
        kids[1::2, _LO] = kids[1::2, _MID]
        kids[:, _MID] = 0.5 * (kids[:, _LO] + kids[:, _HI])
        kids[:, _TOL] /= 2.0
        kids[:, _PARENT] = kids[:, _ID]
        kids[:, _ID] = np.arange(next_id, next_id + len(kids))
        kids[:, _DEPTH] += 1.0
        kids[:, _HEAP] *= 2.0
        kids[1::2, _HEAP] += 1.0
        next_id += len(kids)
        state, coarse = kids, halves[split].ravel()
        if len(rest):
            # each primitive's children go before its waiting panels
            state, coarse = np.concatenate([state, rest]), np.concatenate([coarse, rest_coarse])
            order = np.argsort(state[:, _IDX], kind="stable")
            state, coarse = state[order], coarse[order]
        if not len(state):
            break
        # with nothing waiting and at most _BATCH panels queued, all are under the cap
        if len(rest) or len(state) > _BATCH:
            pid = path_of[state[:, _IDX].astype(np.intp)]
            take = np.arange(len(pid)) - np.searchsorted(pid, pid) < _BATCH
            rest, rest_coarse = state[~take], coarse[~take]
            state, coarse = state[take], coarse[take]
        # the halves [lo, mid] and [mid, hi] of every panel
        level += 1
        idx = state[:, _IDX].astype(np.intp)
        if level < _BANK_DEPTH:
            nodes = _banked_nodes(plan, state, idx)
        else:
            nodes = _panel_nodes(plan.table, idx, state[:, _LO : _MID + 1], state[:, _MID : _HI + 1])
        halves = _panel_sums(nodes, integrand)
    if failures:
        a, b, t, best, err = failures[min(failures)]
        raise ToleranceError(
            f"adaptive quadrature stalled on [{float(a)}, {float(b)}] "
            f"(err {err:.3g} > tol {t:.3g})",
            best=complex(best),
            error_estimate=float(err),
        )
    # every panel was evaluated once; its sums go up the tree bottom-up
    state = np.concatenate(states)
    ids = state[:, _ID].astype(np.intp)
    value, error = np.empty(next_id, complex), np.empty(next_id)
    parent, depth = np.empty(next_id, np.intp), np.empty(next_id, np.intp)
    value[ids], error[ids] = np.concatenate(fines), np.concatenate(errs)
    parent[ids], depth[ids] = state[:, _PARENT], state[:, _DEPTH]
    for d in range(depth.max(), 0, -1):
        kid = np.flatnonzero(depth == d)[::2]  # left halves; siblings have consecutive ids
        value[parent[kid]] = value[kid] + value[kid + 1]
        error[parent[kid]] = error[kid] + error[kid + 1]
    # the panels after level 0 cost 2 * 15 points each
    refined = np.bincount(path_of[state[n:, _IDX].astype(np.intp)], minlength=len(paths))
    evaluations = plan.evaluations + 2 * len(_GL_NODES) * refined
    totals, total_errs = [0j] * len(paths), [0.0] * len(paths)
    for k, v, e in zip(path_of.tolist(), value[:n].tolist(), error[:n].tolist()):
        totals[k] += v
        total_errs[k] += e
    return [
        QuadratureResult(value=v, error_estimate=e, evaluations=c)
        for v, e, c in zip(totals, total_errs, evaluations.tolist())
    ]


# ---------------------------------------------------------------------------
# Contour builders
#
# A builder's path depends only on its hashable, frozen arguments, so each
# distinct path is built, and checked for simplicity, once; every caller then
# shares the same immutable `ContourPath`.


@functools.lru_cache(maxsize=256)
def build_keyhole(cone: ConeSpec, N: int, M: int) -> ContourPath:
    """Positively oriented boundary of (sector of radius 2^-M) union B_N.

    The big arc spans the cone opening, the small circle's major arc closes
    it outside the cone; two radial segments run along the cone edges.
    """
    r_big = 2.0**-M
    r_small = 2.0**-N
    if not r_small < r_big:
        raise ContourError("need 2^-N < 2^-M")
    if cone.length < r_big - 1e-15:
        raise ContourError(
            f"cone length {cone.length} is shorter than the sector radius {r_big}"
        )
    v, th, b = cone.vertex, cone.direction, cone.half_angle
    lo, hi = th - b, th + b
    e_lo, e_hi = cmath.exp(1j * lo), cmath.exp(1j * hi)
    prims = (
        Arc(v, r_big, lo, hi),
        Segment(v + r_big * e_hi, v + r_small * e_hi),
        Arc(v, r_small, hi, lo + 2.0 * math.pi),
        Segment(v + r_small * e_lo, v + r_big * e_lo),
    )
    return ContourPath(prims, closed=True)


@functools.lru_cache(maxsize=256)
def build_annular_piece(n: int, cone: ConeSpec) -> ContourPath:
    """Positively oriented boundary of D_n = (dyadic annulus n) minus the cone."""
    ri, ro = annulus_radii(n)
    if ro > cone.length + 1e-15:
        raise ContourError(f"annulus {n} lies outside the cone truncation radius")
    v, th, b = cone.vertex, cone.direction, cone.half_angle
    lo, hi = th - b, th + b
    e_lo, e_hi = cmath.exp(1j * lo), cmath.exp(1j * hi)
    prims = (
        Arc(v, ro, hi, lo + 2.0 * math.pi),
        Segment(v + ro * e_lo, v + ri * e_lo),
        Arc(v, ri, lo + 2.0 * math.pi, hi),
        Segment(v + ri * e_hi, v + ro * e_hi),
    )
    return ContourPath(prims, closed=True)


@functools.lru_cache(maxsize=256)
def _clockwise_annular_piece(n: int, cone: ConeSpec) -> ContourPath:
    """`build_annular_piece(n, cone)` traversed clockwise, built once."""
    return build_annular_piece(n, cone).reversed()


@functools.lru_cache(maxsize=256)
def full_circle(center: complex, radius: float) -> ContourPath:
    half1 = Arc(center, radius, 0.0, math.pi)
    half2 = Arc(center, radius, math.pi, 2.0 * math.pi)
    return ContourPath((half1, half2), closed=True, check_simple=False)


@functools.lru_cache(maxsize=64)
def _decomposition_contours(cone: ConeSpec, M: int, N: int) -> tuple[tuple[ContourPath, ...], _Plan]:
    """The paths of `annular_decomposition`, each D_n boundary clockwise for
    M <= n <= N (none if N == M) and then the circle of radius 2^-M, with
    their plan: one lookup per decomposition instead of one per path."""
    annuli = [] if N == M else range(M, N + 1)
    paths = tuple(_clockwise_annular_piece(n, cone) for n in annuli)
    paths += (full_circle(cone.vertex, 2.0**-M),)
    return paths, _plan(paths)


# ---------------------------------------------------------------------------
# Cauchy quotient and decomposition


def _check_x_admissible(x: complex, cone: ConeSpec, N: int, M: int):
    w = x - cone.vertex
    r = abs(w)
    if not (2.0**-N < r < 2.0**-M):
        raise ContourError(f"|x - vertex| = {r} is not inside (2^-{N}, 2^-{M})")
    if not cone.contains(x, closed=False):
        raise ContourError(f"x = {x} does not lie inside the cone")


def _check_poles_off_contours(f: GalleryFunction, cone: ConeSpec, M: int, N: int):
    """Raise ContourError if a pole of f lies on a contour of the annular
    decomposition: a circle |z - x0| = 2^-n with M <= n <= N + 1, or a cone
    edge between the radii 2^-N-1 and 2^-M (the circle 2^-M alone if
    N == M).  Its integral diverges, and the adaptive rule would refine a
    band of panels to depth 48 before failing.  "On" allows a relative
    1e-12 for rounding.  A Cauchy-transform disk may meet a contour: f stays
    continuous, with a kink the quadrature refines around, and the D_n
    boundary terms still add up to the quotient.
    """
    eps = 1e-12
    inner = M if N == M else N + 1
    for p, _ in f.rational_terms:
        w = p - cone.vertex
        r = abs(w)
        n = round(-math.log2(r))
        if M <= n <= inner and abs(r * 2.0**n - 1.0) <= eps:
            raise ContourError(f"pole {p} of f lies on the contour |z - x0| = 2^-{n}")
        if not 2.0**-inner < r < 2.0**-M:
            continue  # the edges' ends lie on the circles
        for a in (cone.direction - cone.half_angle, cone.direction + cone.half_angle):
            u = w * cmath.exp(-1j * a)
            if u.real > 0 and abs(u.imag) <= eps * r:
                raise ContourError(f"pole {p} of f lies on the cone edge at angle {a}")


def default_inner_index(x: complex, cone: ConeSpec, minimum: int = 2) -> int:
    """Smallest N with 2^-N <= |x - vertex| / 4."""
    r = abs(x - cone.vertex)
    return max(minimum, int(math.ceil(-math.log2(r / 4.0))))


def _inner_index(f: GalleryFunction, x: complex, cone: ConeSpec) -> int:
    """Default inner index for f: at least `default_inner_index(x, cone)`, and
    large enough that no singularity of f lies in |z - vertex| <= 2^-N, where
    its residue would enter the Cauchy integral."""
    v = cone.vertex
    dist = min(
        [abs(p - v) for p, _ in f.rational_terms]
        + [abs(d.center - v) - d.radius for d, _ in f.ct_terms],
        default=math.inf,
    )
    if dist <= 0.0:
        raise ContourError("a Cauchy-transform disk of f reaches the cone vertex")
    N = default_inner_index(x, cone)
    while 2.0**-N >= dist:
        N += 1
    return N


def quotient_via_cauchy(
    f: GalleryFunction,
    x: complex,
    cone: ConeSpec,
    N: int | None = None,
    M: int = 1,
    tol: float = 1e-10,
) -> complex:
    """(f(x) - f(x0)) / (x - x0) computed via the keyhole Cauchy integral."""
    v = cone.vertex
    if complex(f.base_point) != complex(v):
        raise ContourError("gallery base point must equal the cone vertex")
    if N is None:
        N = _inner_index(f, x, cone)
    _check_x_admissible(x, cone, N, M)
    path = build_keyhole(cone, N, M)

    def integrand(z):
        return f(z) / ((z - v) * (z - x))

    res = integrate_contour(path, integrand, tol=tol)
    return res.value / (2j * math.pi)


@dataclass(frozen=True)
class DecompositionReport:
    lhs: complex
    annular_terms: tuple[tuple[int, complex], ...]
    inner_circle_term: complex
    residual: float
    evaluations: int  # integrand points over all its integrals
    err_to_tol: float  # worst error estimate of an integral over its tolerance


def annular_decomposition(
    f: GalleryFunction,
    x: complex,
    cone: ConeSpec,
    M: int = 1,
    N: int | None = None,
    tol: float = 1e-10,
) -> DecompositionReport:
    """Per-annulus split of the difference quotient.

    f(x)/x = sum over n of the D_n boundary term plus the full-circle term at
    radius 2^-M.  The D_n boundaries are traversed clockwise here, matching
    the orientation that makes the terms add up to the quotient.  All the
    integrals, each at tolerance tol / (number of terms), run in one
    adaptive loop.
    """
    v = cone.vertex
    if complex(f.base_point) != complex(v):
        raise ContourError("gallery base point must equal the cone vertex")
    if N is None:
        N = _inner_index(f, x, cone)
    if N == M:
        # degenerate split: no annular pieces, plain circle Cauchy formula
        if not (abs(x - v) < 2.0**-M and cone.contains(x, closed=False)):
            raise ContourError(f"x = {x} must lie inside the cone and |z| < 2^-{M}")
    else:
        _check_x_admissible(x, cone, N, M)
    _check_poles_off_contours(f, cone, M, N)

    def integrand(z):
        return f(z) / ((z - v) * (z - x))

    annuli = [] if N == M else list(range(M, N + 1))
    term_tol = tol / (len(annuli) + 1)
    paths, plan = _decomposition_contours(cone, M, N)
    results = _integrate_many(paths, integrand, term_tol, plan)
    terms = [(n, res.value / (2j * math.pi)) for n, res in zip(annuli, results)]
    circle_term = results[-1].value / (2j * math.pi)
    lhs = f(x) / (x - v)
    total = sum(t for _, t in terms) + circle_term
    return DecompositionReport(
        lhs=lhs,
        annular_terms=tuple(terms),
        inner_circle_term=circle_term,
        residual=abs(lhs - total),
        evaluations=sum(res.evaluations for res in results),
        err_to_tol=max(res.error_estimate for res in results) / term_tol,
    )


# ---------------------------------------------------------------------------
# Lemma checks


@dataclass(frozen=True)
class LemmaCheckReport:
    integral_magnitude: float
    content_upper: float
    seminorm_estimate: float
    kappa_hat: float
    evaluations: int  # integrand points of the contour integral
    err_to_tol: float  # its error estimate over the tolerance


def _region_content_upper(region, alpha: float) -> float:
    if isinstance(region, DiskRegion):
        piece = ClippedPiece(
            hole=Disk(region.center, region.radius),
            annulus_center=region.center,
            n=1,
            r_inner=0.0,
            r_outer=region.radius,
            is_whole=True,
        )
        return disjoint_disk_content([piece], alpha).upper
    # conservative fallback: one ball of the region diameter
    return region.diameter() ** (1.0 + alpha)


def lemma_cauchy_bound_check(
    f,
    path: ContourPath,
    region,
    alpha: float,
    tol: float = 1e-10,
    pair_count: int = 4000,
    seed: int = 0,
) -> LemmaCheckReport:
    """Empirical ratio kappa_hat = |contour integral| / (content * seminorm).

    Scale and rotation invariance of kappa_hat across congruent setups is the
    quantity of interest; the absolute value carries no certified meaning.
    """
    if not path.closed:
        raise ContourError("lemma check needs a closed path")
    if not path.cusp_free:
        raise ContourError("lemma check requires a cusp-free path")
    res = integrate_contour(path, f if callable(f) else f.__call__, tol=tol)
    mag = abs(res.value)
    content = _region_content_upper(region, alpha)
    sem = seminorm_estimate(f, region, alpha, pair_count=pair_count, seed=seed).value
    kappa = mag / (content * sem) if content > 0 and sem > 0 else 0.0
    return LemmaCheckReport(
        integral_magnitude=mag,
        content_upper=content,
        seminorm_estimate=sem,
        kappa_hat=kappa,
        evaluations=res.evaluations,
        err_to_tol=res.error_estimate / tol,
    )


def kernel_seminorm_ratio(
    f: GalleryFunction,
    x: complex,
    n: int,
    cone: ConeSpec,
    alpha: float,
    pair_count: int = 4000,
    seed: int = 0,
    f_seminorm: float | None = None,
) -> float:
    """Seminorm of f(z)/((z-x0)(z-x)) on D_n relative to 4^n times seminorm(f).

    The proof machinery bounds this ratio by a constant independent of n and
    of the ray position x.
    """
    v = cone.vertex
    ri, _ = annulus_radii(n)
    r = abs(x - v)
    if r > ri / 2.0 + 1e-15 and not cone.contains(x, closed=False):
        # inside the open cone x stays clear of D_n at any radius
        raise ContourError("x must satisfy |x - x0| <= 2^-n-2 or lie inside the cone")
    region = annulus_minus_cone_region(cone, n)

    def g(z):
        return f(z) / ((z - v) * (z - x))

    sem_g = seminorm_estimate(g, region, alpha, pair_count=pair_count, seed=seed).value
    if f_seminorm is None:
        f_seminorm = seminorm_estimate(
            f, DiskRegion(v, 1.0), alpha, pair_count=pair_count, seed=seed
        ).value
    if f_seminorm == 0.0:
        return 0.0
    return sem_g / (4.0**n * f_seminorm)
