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

from .geometry import (
    ConeSpec,
    DiskRegion,
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


@dataclass(frozen=True)
class ContourPath:
    """Primitives joined end to end, checked to join within 1e-12 of their
    scale, the largest modulus of an end point.  Simplicity is not checked:
    the builders below and `reversed`, the only makers of paths in the
    package, keep paths simple by construction."""

    segments: tuple[Primitive, ...]
    closed: bool = True

    def __post_init__(self):
        prims = tuple(self.segments)
        if not prims:
            raise ContourError("a path needs at least one primitive")
        object.__setattr__(self, "segments", prims)
        scale = max(max(abs(p.point(0.0)), abs(p.point(1.0))) for p in prims) or 1.0
        for a, b in zip(prims, prims[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > _JOIN_TOL * scale:
                raise ContourError(
                    f"consecutive primitives do not join: {a.point(1.0)} vs {b.point(0.0)}"
                )
        if self.closed:
            gap = abs(prims[-1].point(1.0) - prims[0].point(0.0))
            if gap > _JOIN_TOL * scale:
                raise ContourError(f"closed path does not return to start (gap {gap})")

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
        )


# ---------------------------------------------------------------------------
# Adaptive quadrature

# 15-point Gauss-Legendre nodes and weights on [-1, 1], bitwise those of
# numpy.polynomial.legendre.leggauss(15); literals spare every import of the
# package numpy.polynomial and its LAPACK eigenvalue call
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
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


def _weighted(g, z, vel, half) -> np.ndarray:
    """g(z) vel W half, shaped as z, at the nodes z of `_panel_nodes` with
    their velocities and their panels' half-widths (one for all, or one per
    panel), W the Gauss-Legendre weight of each node: a panel's sum is the
    sum of its 15 values.  `g` is called once, on the flattened z.

    The product is taken in the order ((g vel) W) half, and every half-width
    is a power of two, so a sum of these values has the bits of half times
    the sum of (g vel) W: the order of the depth-first recursion."""
    return np.reshape(g(z.ravel()), z.shape) * vel * _GL_WEIGHTS * np.expand_dims(half, -1)


def _panel_sums(values) -> np.ndarray:
    """The sum over each panel of the kernel's `values` at nodes shaped as
    those of `_panel_nodes`, the last axis a panel's 15 nodes: with the
    weights banked in the values (`_weighted`), each panel's Gauss-Legendre
    sum.

    Each sum is reduced along the node axis on its own, so a panel's sum
    does not depend on which other panels share the call.
    """
    return np.add.reduce(values, axis=-1)


# The halves of the panels of every level below this one have their nodes
# kept in the bank of their plan.  The decomposition grid of the benchmark
# (M = 1, N = 10) refines no deeper.
_BANK_DEPTH = 4
# bank rows per primitive: the 2^L panels of each level L = 1 .. D - 1
_BANK_ROWS = 2**_BANK_DEPTH - 2


class _Rows:
    """Bank rows of (2, 15) complex arrays, computed on first use and held at
    exact size: `slot` maps each row to its place in `arrays`, or -1 while it
    is not computed, so memory follows the rows visited.  A warm level of
    `_integrate_many` gathers held rows by `slot`; only a miss fills, by `get`."""

    def __init__(self, n_rows: int, n_arrays: int):
        self.slot = np.full(n_rows, -1, np.int32)
        self.arrays = (np.empty((0, 2, len(_GL_NODES)), complex),) * n_arrays

    def get(self, row: np.ndarray, fill) -> tuple:
        """The arrays at the distinct rows `row`; `fill(new)` computes them
        shaped (-1, 2, 15) at the rows row[new] not yet held.  A row is marked
        only after `fill` has returned, so a fill that raises leaves them as they were."""
        slot = self.slot[row]
        new = slot < 0
        if new.any():
            start = len(self.arrays[0])
            self.arrays = tuple(map(np.concatenate, zip(self.arrays, fill(new))))
            slot[new] = np.arange(start, len(self.arrays[0]))
            self.slot[row[new]] = slot[new]
        return tuple(a[slot] for a in self.arrays)


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
    # z and velocities of `_level_nodes` of panel k of level L on primitive
    # i in row i * _BANK_ROWS + 2^L - 2 + k, for the rows visited
    bank: _Rows


@functools.lru_cache(maxsize=64)
def _plan(paths: tuple[ContourPath, ...]) -> _Plan:
    """The plan of a path set, built once per distinct tuple of paths.

    Paths are frozen and compared by value, so equal path sets share one
    plan, however often their paths are rebuilt; `lru_cache` takes 0.0 and
    -0.0 for the same key.  Every array is read-only, because every later
    call with these paths reads it.
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
    evaluations = 3 * len(_GL_NODES) * np.bincount(path_of, minlength=len(paths))
    for a in (path_of, shares, *table, *nodes, evaluations):
        a.flags.writeable = False
    return _Plan(path_of, shares, table, nodes, evaluations, _Rows(n * _BANK_ROWS, 2))


def _banked_nodes(plan: _Plan, row: np.ndarray, idx: np.ndarray, k: np.ndarray, level: int) -> tuple:
    """`_level_nodes` of the panels k of `level` on the primitives `idx`,
    read from the plan's bank rows `row`, idx * _BANK_ROWS + 2^level - 2 + k;
    0 < level < `_BANK_DEPTH`.  A row is computed by `_level_nodes` on its
    first use, and elementwise arithmetic gives it the bits of any other
    call; every half-width of the level is 2^-(level + 2), exact.  Only a
    level that misses a row of its f bank calls this; a warm one gathers z."""
    z, vel = plan.bank.get(row, lambda new: _level_nodes(plan.table, idx[new], k[new], level)[:2])
    return z, vel, 2.0 ** -(level + 2)


class _FBank:
    """The weighted values g(z) vel W half of an elementwise g at the nodes
    of a plan (`_weighted`), which every integral over it shares: a kernel
    (z, w) -> kernel(z, w) then sums to the integral of kernel(z, g(z)) dz.
    It holds them at the flattened level-0 nodes, read-only in `level0`,
    and in `rows` at the bank rows (levels 1 to `_BANK_DEPTH` - 1) that some
    integral has visited, filled from the plan's node bank.

    `rows` keeps a slot map of its own, because a g visits only some of its
    plan's rows.  A row enters it only after the plan's bank holds its nodes,
    so a level with every row held here gathers z and w from the two banks
    directly; only a miss fills.  On the benchmark's grid (M = 1, N = 10, 27
    functions, 10 points each) the level-0 values take 30,240 bytes per
    function and the rows 2,392 * 480 bytes, about 1.15 MB, not 27 * 188.
    """

    def __init__(self, g, plan: _Plan):
        self.g = g
        self.level0 = _weighted(g, *plan.nodes).ravel()
        self.level0.flags.writeable = False
        self.rows = _Rows(len(plan.path_of) * _BANK_ROWS, 1)


def integrate_contour(path: ContourPath, integrand, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive contour integral of `integrand` along the path.

    `integrand` must be elementwise: it takes a complex numpy array and
    returns an array of the same shape, each value that of its point alone.
    It runs as the g of a one-off `_FBank` under the identity kernel
    (z, w) -> w, the loop every integral of the package takes.  Each primitive,
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
    depth-first recursion fails on.  It also fails, naming the rounding
    floor, when the panels stopped there and the summed error estimate
    exceeds `tol`, so a returned result always has error_estimate <= tol.
    """
    plan = _plan((path,))
    values, errors, evaluations = _integrate_many(plan, lambda z, w: w, tol, _FBank(integrand, plan))
    return QuadratureResult(complex(values[0]), float(errors[0]), int(evaluations[0]))


def _integrate_many(plan: _Plan, kernel, tol: float, fbank: _FBank):
    """The integrals of z -> kernel(z, g(z)) along each path of the memoised
    `_plan` of a path set, in one loop, as `integrate_contour` describes
    them: arrays of the values, error estimates and evaluations of the paths.
    `fbank` is an `_FBank` of an elementwise g on this plan, and `kernel`
    takes the bank's weighted values w of g at the points z besides z, both
    shaped as the nodes with a panel's 15 last; it must be elementwise and
    linear in w, so that its panel sums are those of the integral.

    Each refinement level sends the panels of every path to `kernel` in
    one call.  A path keeps its own tolerance shares, tree-order sums and
    panel budget, and every panel sum is reduced on its own, so each result
    is bitwise the one of a call for its path alone.  A path that fails on
    depth or budget stops refining, and so does every later path of the set;
    a path fails on the rounding floor once its sums are added up.  The
    `ToleranceError` raised is that of the first failing path, whatever its
    limit, as in a loop of single calls.  What depends only on the paths, up
    to the nodes of level 0 and the bank of shallow panel nodes, comes from
    the plan.  g's weighted values come from the f bank on level 0 and on
    banked levels, gathered with z straight from the banks unless a row is
    missed and filled, and from a call of g on each deeper level, computed
    alike, so every value is bitwise what computing afresh gives.
    """
    if not 0 < tol < math.inf:
        raise ContourError(f"tolerance must be positive and finite, got {tol}")
    path_of = plan.path_of
    n_paths = len(plan.evaluations)
    # the panels of a level: primitive, index k of [k, k + 1] 2^-level, tolerance
    n = len(path_of)
    idx, k, ptol = np.arange(n), np.zeros(n, np.int64), tol * plan.shares
    sums = _panel_sums(kernel(plan.nodes[0], np.reshape(fbank.level0, plan.nodes[0].shape)))
    coarse, halves = sums[:, 0], sums[:, 1:]
    fines, errs, sels = [], [], []
    levels = []  # the primitive of each panel of levels 1, 2, ...
    refined = 0  # panels beyond level 0, over all paths

    def refined_per_path():
        if not levels:
            return 0
        return np.bincount(path_of[np.concatenate(levels)], minlength=n_paths)

    failure = None
    level = 0
    while True:
        fine = halves[:, 0] + halves[:, 1]
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)
        # a NaN err, or a NaN floor (a NaN part of fine), splits the panel
        sel = (~(err <= np.maximum(ptol, 1e-16 * (1.0 + np.hypot(fine.real, fine.imag))))).nonzero()[0]
        count = 2 * len(sel)
        # no path can pass its budget while all of them together stay within it
        if count and (level >= _MAX_DEPTH or refined + count > _MAX_PANELS):
            pid = path_of[idx[sel]]
            counts = 2 * np.bincount(pid, minlength=n_paths)
            over = (counts > 0) & ((level >= _MAX_DEPTH) | (refined_per_path() + counts > _MAX_PANELS))
            if over.any():
                # this path and every later one stop; an earlier one may still fail
                p = int(np.argmax(over))
                i = sel[np.argmax(pid == p)]
                failure = p, level, k[i], ptol[i], fine[i], err[i]
                sel = sel[pid < p]
                count = 2 * len(sel)
        fines.append(fine)
        errs.append(err)
        sels.append(sel)
        if not count:
            break
        # each split panel becomes its halves 2k and 2k + 1 of the next level
        idx = idx[sel].repeat(2)
        k, k2 = np.empty(count, np.int64), 2 * k[sel]
        k[0::2], k[1::2] = k2, k2 + 1
        ptol = (ptol[sel] * 0.5).repeat(2)
        coarse = halves[sel].ravel()
        levels.append(idx)
        refined += count
        level += 1
        if level < _BANK_DEPTH:
            row = idx * _BANK_ROWS + (2**level - 2) + k
            slot = fbank.rows.slot[row]
            if slot.min() >= 0:  # held here, so its nodes in the plan's bank too
                z, w = plan.bank.arrays[0][plan.bank.slot[row]], fbank.rows.arrays[0][slot]
            else:
                z, vel, half = _banked_nodes(plan, row, idx, k, level)
                (w,) = fbank.rows.get(row, lambda new: (_weighted(fbank.g, z[new], vel[new], half),))
        else:
            z, vel, half = _level_nodes(plan.table, idx, k, level)
            w = _weighted(fbank.g, z, vel, half)
        halves = _panel_sums(kernel(z, w))
    # a split panel's value and error are its halves', added bottom-up
    for d in range(level, 0, -1):
        fines[d - 1][sels[d - 1]] = fines[d][0::2] + fines[d][1::2]
        errs[d - 1][sels[d - 1]] = errs[d][0::2] + errs[d][1::2]
    # each path's primitives added in order, from 0 as a Python sum would
    # (0 + -0.0 is 0.0): bincount adds its weights one by one from zero, and
    # a complex sum is the sums of its parts
    values = np.empty(n_paths, complex)
    values.real = np.bincount(path_of, fines[0].real, n_paths)
    values.imag = np.bincount(path_of, fines[0].imag, n_paths)
    errors = np.bincount(path_of, errs[0], n_paths)
    # only panels stopped by the floor can take a path's sum past its tolerance
    floor = (errors[: failure[0] if failure else n_paths] > tol).nonzero()[0]
    if floor.size:
        p = floor[0]
        raise ToleranceError(
            f"adaptive quadrature stopped at the rounding floor 1e-16 (1 + |panel sum|) "
            f"with error estimate {errors[p]:.3g} > tol {tol:.3g}",
            best=complex(values[p]),
            error_estimate=float(errors[p]),
        )
    if failure:
        _, depth, j, t, best, err = failure
        w = 2.0**-depth
        why = "the depth limit" if depth >= _MAX_DEPTH else f"the budget of {_MAX_PANELS} panels"
        raise ToleranceError(
            f"adaptive quadrature stalled at {why} on [{j * w}, {(j + 1) * w}] "
            f"(err {err:.3g} > tol {t:.3g})",
            best=complex(best),
            error_estimate=float(err),
        )
    return values, errors, plan.evaluations + 2 * len(_GL_NODES) * refined_per_path()


# ---------------------------------------------------------------------------
# Contour builders


def build_keyhole(cone: ConeSpec, N: int, M: int) -> ContourPath:
    """Positively oriented boundary of (sector of radius 2^-M) union B_N.

    The big arc spans the cone opening, the small circle's major arc closes
    it outside the cone; two radial segments run along the cone edges.  The
    path is simple exactly when 0 < 2^-N < 2^-M and 0 < half_angle < pi/2:
    the arcs lie on distinct circles and the segments on distinct rays from
    the vertex.  This builder checks the radii and `ConeSpec` the angle.
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


def build_annular_piece(n: int, cone: ConeSpec) -> ContourPath:
    """Positively oriented boundary of D_n = (dyadic annulus n) minus the cone.

    Simple exactly when r_inner < r_outer and 0 < half_angle < pi/2, as for
    `build_keyhole`; here r_inner = r_outer / 2 (`annulus_radii`).
    """
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


def full_circle(center: complex, radius: float) -> ContourPath:
    half1 = Arc(center, radius, 0.0, math.pi)
    half2 = Arc(center, radius, math.pi, 2.0 * math.pi)
    return ContourPath((half1, half2), closed=True)


@functools.lru_cache(maxsize=64)
def _decomposition_contours(cone: ConeSpec, M: int, N: int) -> _Plan:
    """The plan of the paths of `annular_decomposition`, each D_n boundary
    clockwise for M <= n <= N (none if N == M) and then the circle of radius
    2^-M: one lookup per decomposition instead of one per path."""
    annuli = [] if N == M else range(M, N + 1)
    paths = tuple(build_annular_piece(n, cone).reversed() for n in annuli)
    return _plan(paths + (full_circle(cone.vertex, 2.0**-M),))


@functools.lru_cache(maxsize=32)
def _f_bank(f: GalleryFunction, plan: _Plan) -> _FBank:
    """The `_FBank` of f's difference quotient `f.quotient` on `plan`, one
    per (f, plan).

    Every point x of a ray integrates the same quotient over the same paths,
    and its weighted values at the nodes do not depend on x.  Gallery
    functions are frozen and compared by value, plans by identity; as for
    the plans, `lru_cache` takes 0.0 and -0.0 for the same key.
    """
    return _FBank(f.quotient, plan)


# ---------------------------------------------------------------------------
# Cauchy quotient and decomposition


def _cauchy_kernel(x: complex):
    """The kernel (z, w) -> w / (z - x) of the Cauchy integral of
    q(z) / (z - x), with w the weighted values of an `_FBank` of f's
    difference quotient q = `f.quotient` at x0.  q is analytic wherever f
    is, x0 included, so over a contour about x0 and x the integral is
    2 pi i q(x); every integrand of the quotient is this one."""
    return lambda z, w: w / (z - x)


# The deepest inner index N, the criterion's cap on `n_max`: the annulus
# weight 4.0**n overflows from n = 512 on.
_N_MAX = 510
# Off the origin, 2^-N >= 2^-25 |x0| keeps about 27 of float64's 53 bits of z - x0.
_OFF_ORIGIN_DEPTH = 25
_ON = 1e-12  # "on a contour" allows a relative 1e-12 for rounding


def _shown(n: int) -> str:
    """An integer as a message shows it: in full up to 15 digits, else as
    %.3g of it, so int(-1e308) reads -1e+308 and not its 309 digits.  One
    past float64's range, only ever typed out in full, stays in full."""
    if abs(n) < 10**15:
        return str(n)
    try:
        return "%.3g" % n
    except OverflowError:
        return str(n)


def _admissible_depth(f: GalleryFunction, x: complex, cone: ConeSpec, M: int, N: int | None, split: bool) -> int:
    """The inner index N of the keyhole (`split` false) or of the annular
    decomposition (`split` true) of f's quotient at x, checked before any
    integral.  N None means the default: the smallest N >= 2 with
    2^-N <= |x - x0| / 4 and no singularity of f in |z - x0| <= 2^-N.

    Both Cauchy identities need f analytic on the closed region their
    contour encloses: the sector of radius 2^-M with the disk |z - x0| <= rho,
    rho = 2^-N for the keyhole, 2^-(N+1) for a split with N > M and 2^-M for
    one with N == M, the circle 2^-M alone.  Raises ContourError unless
    - f's base point is the vertex x0, and x != x0;
    - -1024 < M < N <= 510 (M <= N for a split), so 2^-M and 2^-N are
      positive finite floats, and 2^-N >= 2^-25 |x0|;
    - x lies in the open cone with 2^-N < |x - x0| < 2^-M (if N == M, only
      the upper bound);
    - no pole or Cauchy-transform disk of f meets that region, widened by a
      relative 1e-12 for rounding;
    - for a split, no pole lies on a circle |z - x0| = 2^-n, M <= n <= N,
      to a relative 1e-12: its D_n integrals diverge.  A disk may cross one.
    """
    v = cone.vertex
    f.require_base_point(v)
    if x == v:
        raise ContourError(f"x = {x} is the cone vertex, inside every circle 2^-N")
    if not cone.contains(x, closed=False):
        raise ContourError(f"x = {x} does not lie inside the cone")
    r = abs(x - v)
    # each singularity of f as its centre, its radius (0 for a pole) and itself
    sing = [(p, 0.0, p) for p, _ in f.rational_terms] + [(d.center, d.radius, d) for d, _ in f.ct_terms]
    if N is None:
        dist = min((abs(c - v) - s for c, s, _ in sing), default=math.inf)
        if dist <= 0.0:
            raise ContourError("a Cauchy-transform disk of f reaches the cone vertex")
        # r / 4 underflows to 0 only where N would pass 1074
        N = max(2, math.ceil(-math.log2(max(r / 4.0, 5e-324))))
        while 2.0**-N >= dist:
            N += 1
    if N > _N_MAX:
        raise ContourError(f"contour depth N = {_shown(N)} exceeds {_N_MAX}, past what float64 resolves")
    if not -1024 < M < N + split:
        raise ContourError(f"need -1024 < M < N, or M <= N for a decomposition, got M = {_shown(M)}, N = {_shown(N)}")
    r0 = abs(v)
    if 2.0**-N < 2.0**-_OFF_ORIGIN_DEPTH * r0:
        limit = f"{_OFF_ORIGIN_DEPTH} - log2 |x0| = {_OFF_ORIGIN_DEPTH - math.log2(r0):.4g} at |x0| = {r0}"
        raise ContourError(f"contour depth N = {N} exceeds {limit}, past what float64 resolves")
    R = 2.0**-M
    rho, lo = (R, 0.0) if N == M else (2.0 ** -(N + split), 2.0**-N)
    if not lo < r < R:
        raise ContourError(f"x = {x} must lie inside the cone and |z| < 2^-{M}, and |z| > 2^-{N} if N > M")
    turn, edge = cmath.exp(-1j * cone.direction), cmath.exp(1j * cone.half_angle)
    for c, s, term in sing:
        d = abs(c - v)
        # distance to the closed sector, its axis turned onto the positive reals:
        # to the arc's circle within the angle, else to the nearer edge from x0
        u = (c - v) * turn
        u = complex(u.real, abs(u.imag))
        t = min(max((u * edge.conjugate()).real, 0.0), R)
        gap = d - R if cmath.phase(u) <= cone.half_angle else abs(u - t * edge)
        if min(d - rho, gap) <= s + _ON * d:
            where = "on or inside the contour, where f must be analytic"
        elif split and not s and M <= (n := round(-math.log2(d))) <= N and abs(d * 2.0**n - 1.0) <= _ON:
            where = f"on the contour |z - x0| = 2^-{n}"
        else:
            continue
        raise ContourError(f"{'Cauchy-transform disk' if s else 'pole'} {term} of f lies {where}")
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
    N = _admissible_depth(f, x, cone, M, N, split=False)
    plan = _plan((build_keyhole(cone, N, M),))
    values, _, _ = _integrate_many(plan, _cauchy_kernel(x), tol, _f_bank(f, plan))
    return complex(values[0]) / (2j * math.pi)


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

    The quotient `f.quotient(x)` = (f(x) - f(x0)) / (x - x0) is the sum over
    n of the D_n boundary term plus the full-circle term at radius 2^-M.
    The D_n boundaries are traversed clockwise here, matching the
    orientation that makes the terms add up to the quotient.  All the
    integrals, each at tolerance tol / (number of terms), run in one
    adaptive loop.
    """
    N = _admissible_depth(f, x, cone, M, N, split=True)
    annuli = [] if N == M else list(range(M, N + 1))
    term_tol = tol / (len(annuli) + 1)
    plan = _decomposition_contours(cone, M, N)
    values, errors, evaluations = _integrate_many(plan, _cauchy_kernel(x), term_tol, _f_bank(f, plan))
    values = values.tolist()
    terms = [(n, value / (2j * math.pi)) for n, value in zip(annuli, values)]
    circle_term = values[-1] / (2j * math.pi)
    lhs = f.quotient(x)
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

    The content is that of one ball of the region's diameter.  Scale and
    rotation invariance of kappa_hat across congruent setups is the quantity
    of interest; the absolute value carries no certified meaning.
    """
    if not path.closed:
        raise ContourError("lemma check needs a closed path")
    if not path.cusp_free:
        raise ContourError("lemma check requires a cusp-free path")
    if not 0.0 < alpha < 1.0:
        raise ContourError(f"alpha must lie in (0,1), got {alpha}")
    diam = region.diameter()
    if not 0.0 < diam < math.inf:
        raise ContourError(f"region diameter must be positive and finite, got {diam}")
    content = diam ** (1 + alpha)
    res = integrate_contour(path, f, tol=tol)
    mag = abs(res.value)
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
    """Seminorm of f(z)/((z-x0)(z-x)) on D_n relative to 4^n times seminorm(f),
    with f(z)/(z - x0) as `f.quotient`, which holds inside the ct disks that
    D_n may cross too.

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
    kernel = _cauchy_kernel(x)
    g = seminorm_estimate(lambda z: kernel(z, f.quotient(z)), region, alpha, pair_count=pair_count, seed=seed)
    if f_seminorm is None:
        f_seminorm = seminorm_estimate(
            f, DiskRegion(v, 1.0), alpha, pair_count=pair_count, seed=seed
        ).value
    if f_seminorm == 0.0:
        return 0.0
    return g.value / (4.0**n * f_seminorm)
