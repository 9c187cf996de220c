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
# Most panels a path refines beyond level 0, each at 2 * 15 integrand points.
# The package's integrals refine a few thousand at most; a path that would
# refine more fails, which bounds the time and memory a failing one spends.
_MAX_PANELS = 2**15


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


def _level_nodes(table, idx, k, level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_panel_nodes` of the halves of the panels [k, k + 1] 2^-level on the
    primitives `idx`; every bound is a dyadic rational, exact in float64."""
    w = 2.0**-level
    lo, mid, hi = k * w, (k + 0.5) * w, (k + 1) * w
    return _panel_nodes(table, idx, np.stack([lo, mid], -1), np.stack([mid, hi], -1))


def _panel_sums(nodes, values) -> np.ndarray:
    """15-point Gauss-Legendre sums over the panels of `_panel_nodes`, from
    the integrand's `values` at their flattened nodes.

    Each sum is reduced along the node axis on its own, so a panel's sum
    does not depend on which other panels share the call.
    """
    z, vel, half = nodes
    vals = np.asarray(values) * vel.ravel()
    return half * np.sum(vals.reshape(z.shape) * _GL_WEIGHTS, axis=-1)


# The halves of the panels of every level below this one have their nodes
# kept in the bank of their plan.  The decomposition grid of the benchmark
# (M = 1, N = 10) refines no deeper.
_BANK_DEPTH = 4
# bank rows per primitive: the 2^L panels of each level L = 1 .. D - 1
_BANK_ROWS = 2**_BANK_DEPTH - 2


@dataclass(frozen=True, eq=False)
class _Plan:
    """What `_integrate_many` needs of a path set before it sees an integrand.

    Plans compare and hash by identity, so a plan is a cheap memo key.
    """

    path_of: np.ndarray  # each primitive's path
    shares: np.ndarray  # each primitive's share of its path's tolerance
    table: tuple  # `_primitive_table` of the primitives
    nodes: tuple  # `_panel_nodes` of each primitive's coarse, left and right panel
    evaluations: np.ndarray  # integrand points of level 0, per path
    # row j holds each path's j-th primitive, or the primitive count (a zero
    # pad) where the path has fewer
    columns: np.ndarray
    # `_level_nodes` of panel k of level L on primitive i in row
    # i * _BANK_ROWS + 2^L - 2 + k, filled on first use: (z, velocities,
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
    nodes = _panel_nodes(table, np.arange(n), np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.5, 1.0]))
    path_of, shares = np.array(path_of), np.array(shares)
    counts = np.bincount(path_of, minlength=len(paths))
    evaluations = 3 * len(_GL_NODES) * counts
    columns = np.full((counts.max(), len(paths)), n)
    for k, (start, count) in enumerate(zip(np.cumsum(counts) - counts, counts)):
        columns[:count, k] = np.arange(start, start + count)
    for a in (path_of, shares, *table, *nodes, evaluations, columns):
        a.flags.writeable = False
    # the zeroed pages of rows never used need not become resident
    rows = n * _BANK_ROWS
    bank = (
        np.zeros((rows, 2, len(_GL_NODES)), complex),
        np.zeros((rows, 2, len(_GL_NODES)), complex),
        np.zeros((rows, 2)),
        np.zeros(rows, bool),
    )
    return _Plan(path_of, shares, table, nodes, evaluations, columns, bank)


def _banked_nodes(plan: _Plan, idx: np.ndarray, k: np.ndarray, level: int) -> tuple:
    """`_level_nodes` of the panels k of `level` on the primitives `idx`,
    read from the plan's bank; 0 < level < `_BANK_DEPTH`.  A row is
    computed by `_level_nodes` on its first use, and elementwise arithmetic
    gives it the bits of any other call."""
    z, vel, half, filled = plan.bank
    row = idx * _BANK_ROWS + (2**level - 2) + k
    new = ~filled[row]
    if new.any():
        r = row[new]
        z[r], vel[r], half[r] = _level_nodes(plan.table, idx[new], k[new], level)
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
    of a half is the parent's sum over it.  Refinement goes one depth per
    level, with all panels of the level in one `integrand` call.  Accepted
    values and error estimates are added bottom-up, left half plus right
    half, then primitive by primitive in path order, so every result equals
    that of the depth-first recursion bit for bit.  `evaluations` counts
    integrand points.

    The integral fails with `ToleranceError` at the first level where some
    panel still splits and either the level is 48 or the path's panels
    beyond level 0 would outnumber `_MAX_PANELS` (2^15 panels of 30 points
    each); the error names the leftmost splitting panel of that level.  A
    path that reaches level 48 within its budget fails on the panel the
    depth-first recursion fails on.
    """
    values, errors, evaluations = _integrate_many([path], integrand, tol)
    return QuadratureResult(complex(values[0]), float(errors[0]), int(evaluations[0]))


def _integrate_many(paths, integrand, tol: float, plan: _Plan | None = None, values0=None):
    """`integrate_contour(path, integrand, tol)` for each path, in one loop:
    arrays of the values, error estimates and evaluations of the paths.

    Each refinement level sends the panels of every path to `integrand` in
    one call.  A path keeps its own tolerance shares, tree-order sums and
    panel budget, and every panel sum is reduced on its own, so each result
    is bitwise the one of a call for its path alone.  A path that fails
    stops refining, and so does every later path in `paths`: the
    `ToleranceError` raised is that of the first failing path, as in a loop
    of single calls.  What depends only on the paths, up to the nodes of
    level 0 and the bank of shallow panel nodes, comes from their memoised
    `_plan`, which a caller that holds it passes as `plan`.  A caller that
    already holds the integrand's values at the flattened level-0 nodes
    `plan.nodes[0]` passes them as `values0`, in place of the first call.
    """
    if not 0 < tol < math.inf:
        raise ContourError(f"tolerance must be positive and finite, got {tol}")
    if plan is None:
        plan = _plan(tuple(paths))
    path_of = plan.path_of
    # the panels of a level: primitive, index k of [k, k + 1] 2^-level, tolerance
    n = len(path_of)
    idx, k, ptol = np.arange(n), np.zeros(n, np.int64), tol * plan.shares
    if values0 is None:
        values0 = integrand(plan.nodes[0].ravel())
    sums = _panel_sums(plan.nodes, values0)
    coarse, halves = sums[:, 0], sums[:, 1:]
    fines, errs, splits = [], [], []
    levels = []  # the primitive of each panel of levels 1, 2, ...
    refined = 0  # panels beyond level 0, over all paths

    def refined_per_path():
        if not levels:
            return 0
        return np.bincount(path_of[np.concatenate(levels)], minlength=len(paths))

    failure = None
    level = 0
    while True:
        fine = halves[:, 0] + halves[:, 1]
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)
        split = ~((err <= ptol) | (err <= 1e-16 * (1.0 + np.hypot(fine.real, fine.imag))))
        fines.append(fine)
        errs.append(err)
        splits.append(split)
        count = 2 * np.count_nonzero(split)
        # no path can pass its budget while all of them together stay within it
        if count and (level >= _MAX_DEPTH or refined + count > _MAX_PANELS):
            pid = path_of[idx]
            counts = 2 * np.bincount(pid[split], minlength=len(paths))
            over = (counts > 0) & ((level >= _MAX_DEPTH) | (refined_per_path() + counts > _MAX_PANELS))
            if over.any():
                # this path and every later one stop; an earlier one may still fail
                p = int(np.argmax(over))
                i = np.flatnonzero(split & (pid == p))[0]
                failure = level, k[i], ptol[i], fine[i], err[i]
                split &= pid < p
                count = 2 * np.count_nonzero(split)
        if not count:
            break
        # each split panel becomes its halves 2k and 2k + 1 of the next level
        idx = np.repeat(idx[split], 2)
        k = np.repeat(2 * k[split], 2)
        k[1::2] += 1
        ptol = np.repeat(ptol[split] / 2.0, 2)
        coarse = halves[split].ravel()
        levels.append(idx)
        refined += count
        level += 1
        if level < _BANK_DEPTH:
            nodes = _banked_nodes(plan, idx, k, level)
        else:
            nodes = _level_nodes(plan.table, idx, k, level)
        halves = _panel_sums(nodes, integrand(nodes[0].ravel()))
    if failure:
        depth, j, t, best, err = failure
        w = 2.0**-depth
        why = "the depth limit" if depth >= _MAX_DEPTH else f"the budget of {_MAX_PANELS} panels"
        raise ToleranceError(
            f"adaptive quadrature stalled at {why} on [{j * w}, {(j + 1) * w}] "
            f"(err {err:.3g} > tol {t:.3g})",
            best=complex(best),
            error_estimate=float(err),
        )
    # a split panel's value and error are its halves', added bottom-up
    for d in range(level, 0, -1):
        fines[d - 1][splits[d - 1]] = fines[d][0::2] + fines[d][1::2]
        errs[d - 1][splits[d - 1]] = errs[d][0::2] + errs[d][1::2]
    # each path's primitives added in order, from 0 as a Python sum would:
    # 0 + -0.0 is 0.0, and the zero pad leaves a total that is never -0.0
    fine, err = np.append(fines[0], 0.0), np.append(errs[0], 0.0)
    values, errors = np.zeros(len(paths), complex), np.zeros(len(paths))
    for col in plan.columns:
        values += fine[col]
        errors += err[col]
    return values, errors, plan.evaluations + 2 * len(_GL_NODES) * refined_per_path()


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


@functools.lru_cache(maxsize=32)
def _level0_values(f: GalleryFunction, plan: _Plan) -> np.ndarray:
    """f at the flattened level-0 nodes of `plan`, evaluated once per (f, plan).

    Every point x of a ray integrates the same f over the same paths, so
    their level-0 points, 1,890 for M = 1 and N = 10, are the same for each
    x.  Gallery functions are frozen and compared by value, plans by
    identity; as for the plans, `lru_cache` takes 0.0 and -0.0 for the same
    key.  An entry of that grid holds 30,240 bytes.  The deeper levels are
    not kept: which of their panels refine depends on x, and the values of
    one function on every banked row could take about 280 KB.  The array is
    read-only, because every later call with this f and plan reads it.
    """
    values = np.asarray(f(plan.nodes[0].ravel()))
    values.flags.writeable = False
    return values


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
    N == M).  Its integral diverges, so the config is at fault, not the
    quadrature, which would fail on its panel budget.  "On" allows a relative
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


def default_inner_index(x: complex, cone: ConeSpec) -> int:
    """Smallest N >= 2 with 2^-N <= |x - vertex| / 4."""
    r = abs(x - cone.vertex)
    return max(2, int(math.ceil(-math.log2(r / 4.0))))


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
    z0 = plan.nodes[0].ravel()
    values0 = _level0_values(f, plan) / ((z0 - v) * (z0 - x))
    values, errors, evaluations = _integrate_many(paths, integrand, term_tol, plan, values0)
    values = values.tolist()
    terms = [(n, value / (2j * math.pi)) for n, value in zip(annuli, values)]
    circle_term = values[-1] / (2j * math.pi)
    lhs = f(x) / (x - v)
    total = sum(t for _, t in terms) + circle_term
    return DecompositionReport(
        lhs=lhs,
        annular_terms=tuple(terms),
        inner_circle_term=circle_term,
        residual=abs(lhs - total),
        evaluations=int(evaluations.sum()),
        err_to_tol=float(errors.max()) / term_tol,
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
