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


def _panel_sums(table, idx, lo, hi, integrand) -> np.ndarray:
    """15-point Gauss-Legendre sums over [lo, hi] on the primitives `idx` of
    a `_primitive_table`, from one `integrand` call.

    `lo` and `hi` hold one row of panels per entry of `idx`.  Each sum is
    reduced along the node axis on its own, so a panel's sum does not depend
    on which other panels share the call.
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
    vals = np.asarray(integrand(z.ravel())) * vel.ravel()
    return half * np.sum(vals.reshape(t.shape) * _GL_WEIGHTS, axis=-1)


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


def _integrate_many(paths, integrand, tol: float) -> list[QuadratureResult]:
    """`integrate_contour(path, integrand, tol)` for each path, in one loop.

    Each refinement level sends the active panels of every path to
    `integrand` in one call.  A path keeps its own tolerance shares,
    tree-order sums, `_BATCH` cap (its leftmost panels first) and first
    failure, and every panel sum is reduced on its own, so each result is
    bitwise the one of a call for its path alone.  If several paths fail,
    the `ToleranceError` is that of the first of them in `paths`, as in a
    loop of single calls.
    """
    if tol <= 0:
        raise ContourError("tolerance must be positive")
    prims, path_of, tols = [], [], []
    for k, path in enumerate(paths):
        segs = path.segments
        total_len = path.total_length
        prims += segs
        path_of += [k] * len(segs)
        tols += [tol * (p.length / total_len if total_len > 0 else 1.0 / len(segs)) for p in segs]
    n = len(prims)
    path_of, tols = np.array(path_of), np.array(tols)
    idx, lo, hi, ids, depth = np.arange(n), np.zeros(n), np.ones(n), np.arange(n), np.zeros(n, int)
    mid = 0.5 * (lo + hi)
    table = _primitive_table(prims)
    coarse, left, right = _panel_sums(
        table, idx, np.stack([lo, lo, mid], -1), np.stack([hi, mid, hi], -1), integrand
    ).T
    evaluations = 3 * len(_GL_NODES) * np.bincount(path_of, minlength=len(paths))
    # panels awaiting refinement, in path order: idx, lo, hi, tols, coarse, ids, depth
    rest = [a[:0] for a in (idx, lo, hi, tols, coarse, ids, depth)]
    records = []
    failures = {}  # path -> its leftmost failing panel so far
    next_id = n
    while True:
        fine = left + right
        diff = fine - coarse
        err = np.hypot(diff.real, diff.imag)
        done = (err <= tols) | (err <= 1e-16 * (1.0 + np.hypot(fine.real, fine.imag)))
        split = ~done
        failed = np.flatnonzero(~done & (depth >= _MAX_DEPTH))
        if failed.size:
            # a depth-first search of a path raises at its first failing panel
            # before it reaches any panel further right, so those are dropped
            pid = path_of[idx]
            first = {}
            for i in failed.tolist():
                first.setdefault(int(pid[i]), i)
            for k, i in first.items():
                failures[k] = (lo[i], hi[i], tols[i], fine[i], err[i])
                split[i:] &= pid[i:] != k
            alive = ~np.isin(path_of[rest[0]], list(first))
            rest = [a[alive] for a in rest]
        split = np.flatnonzero(split)
        child = np.full(len(done), -1)
        child[split] = next_id + 2 * np.arange(len(split))
        records.append((ids, fine, err, depth, child))
        children = [
            np.repeat(idx[split], 2),
            np.stack([lo[split], mid[split]], -1).ravel(),
            np.stack([mid[split], hi[split]], -1).ravel(),
            np.repeat(tols[split] / 2.0, 2),
            np.stack([left[split], right[split]], -1).ravel(),
            next_id + np.arange(2 * len(split)),
            np.repeat(depth[split] + 1, 2),
        ]
        next_id += 2 * len(split)
        queue = [np.concatenate([c, r]) for c, r in zip(children, rest)]
        if not len(queue[0]):
            break
        if len(rest[0]):
            # each primitive's children go before its waiting panels
            order = np.argsort(queue[0], kind="stable")
            queue = [a[order] for a in queue]
        pid = path_of[queue[0]]
        take = np.arange(len(pid)) - np.searchsorted(pid, pid) < _BATCH
        idx, lo, hi, tols, coarse, ids, depth = (a[take] for a in queue)
        rest = [a[~take] for a in queue]
        mid = 0.5 * (lo + hi)
        left, right = _panel_sums(
            table, idx, np.stack([lo, mid], -1), np.stack([mid, hi], -1), integrand
        ).T
        evaluations += 2 * len(_GL_NODES) * np.bincount(path_of[idx], minlength=len(paths))
    if failures:
        a, b, t, best, err = failures[min(failures)]
        raise ToleranceError(
            f"adaptive quadrature stalled on [{float(a)}, {float(b)}] "
            f"(err {err:.3g} > tol {t:.3g})",
            best=complex(best),
            error_estimate=float(err),
        )
    value, error = np.empty(next_id, complex), np.empty(next_id)
    level, child = np.empty(next_id, int), np.empty(next_id, int)
    for ids, fine, err, depth, kids in records:
        value[ids], error[ids], level[ids], child[ids] = fine, err, depth, kids
    for d in range(level.max() - 1, -1, -1):
        node = np.flatnonzero((level == d) & (child >= 0))
        kid = child[node]
        value[node] = value[kid] + value[kid + 1]
        error[node] = error[kid] + error[kid + 1]
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


def full_circle(center: complex, radius: float) -> ContourPath:
    half1 = Arc(center, radius, 0.0, math.pi)
    half2 = Arc(center, radius, math.pi, 2.0 * math.pi)
    return ContourPath((half1, half2), closed=True, check_simple=False)


# ---------------------------------------------------------------------------
# Cauchy quotient and decomposition


def _check_x_admissible(x: complex, cone: ConeSpec, N: int, M: int):
    w = x - cone.vertex
    r = abs(w)
    if not (2.0**-N < r < 2.0**-M):
        raise ContourError(f"|x - vertex| = {r} is not inside (2^-{N}, 2^-{M})")
    if not cone.contains(x, closed=False):
        raise ContourError(f"x = {x} does not lie inside the cone")


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

    def integrand(z):
        return f(z) / ((z - v) * (z - x))

    annuli = [] if N == M else list(range(M, N + 1))
    term_tol = tol / (len(annuli) + 1)
    paths = [_clockwise_annular_piece(n, cone) for n in annuli] + [full_circle(v, 2.0**-M)]
    results = _integrate_many(paths, integrand, term_tol)
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
