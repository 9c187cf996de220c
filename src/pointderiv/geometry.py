"""Planar Swiss-cheese domains: disks, dyadic annuli, interior cones and rays.

All shapes are immutable; points are plain complex numbers.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input or violated precondition."""


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise GeometryError(f"{what} must have finite components, got {z}")
    return z


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "disk center"))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise GeometryError(f"disk radius must be positive and finite, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) <= self.radius

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c.real - r, c.imag - r, c.real + r, c.imag + r)


def annulus_radii(n: int) -> tuple[float, float]:
    """Inner/outer radii of the dyadic annulus with index n (outer radius 2^-n)."""
    if n < 1:
        raise GeometryError(f"annulus index must be >= 1, got {n}")
    return 2.0 ** (-(n + 1)), 2.0 ** (-n)


@dataclass(frozen=True)
class SwissCheeseDomain:
    """Open outer disk minus finitely many closed holes, with a boundary base point.

    ``base_point_kind`` records why the base point belongs to the boundary:
    "puncture" (explicitly removed point), "accumulation" (holes pile up at
    it; with a finite truncation this is recorded, not proven), or "none"
    (the base point is not treated as a boundary point at all).

    Each hole's radial extent about x0, (|c - x0| - r, |c - x0| + r), is stored once;
    which holes matter is one query, `_holes_meeting(lo, hi)`, before each caller's
    exact per-hole test.  `contains` asks for [rho, rho], rho = |z - x0|, and
    `boundary_distance` for [rho - d, rho + d], d the outer-disk and base-point distance.
    """

    outer: Disk = Disk(0j, 1.0)
    holes: tuple[Disk, ...] = ()
    base_point: complex = 0j
    base_point_kind: str = "auto"
    family: object | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        x0 = _require_finite(self.base_point, "base point")
        object.__setattr__(self, "base_point", x0)
        extents = []
        for h in self.holes:
            if abs(h.center - self.outer.center) + h.radius >= self.outer.radius:
                raise GeometryError(f"hole {h} does not lie inside the open outer disk {self.outer}")
            d = abs(h.center - x0)
            slack = 1e-12 * (abs(x0) + d + h.radius)  # above any rounding of the exact tests
            extents.append((d - h.radius - slack, d + h.radius + slack, d - h.radius, d + h.radius, h))
        object.__setattr__(self, "_extents", tuple(extents))
        for e in extents:  # holes that meet have meeting extents; test pairs from the earlier
            near = self._holes_meeting(e[2], e[3])
            for _, _, _, _, b in near[near.index(e) + 1 :]:
                if abs(e[4].center - b.center) <= e[4].radius + b.radius:
                    raise GeometryError(f"holes {e[4]} and {b} are not disjoint")
        for _, _, _, _, h in self._holes_meeting(0.0, 0.0):
            if h.contains(x0):
                raise GeometryError(f"hole {h} contains the base point")
        kind = self.base_point_kind
        if kind == "auto":
            if abs(abs(self.base_point - self.outer.center) - self.outer.radius) < 1e-12:
                kind = "none"  # already on the outer circle
            elif self.holes:
                kind = "accumulation"
            else:
                kind = "puncture"
        if kind not in ("puncture", "accumulation", "none"):
            raise GeometryError(f"unknown base_point_kind {kind!r}")
        if kind in ("puncture", "accumulation"):
            if abs(self.base_point - self.outer.center) >= self.outer.radius:
                raise GeometryError("base point must lie in the closed outer disk")
        object.__setattr__(self, "base_point_kind", kind)

    @property
    def base_is_boundary(self) -> bool:
        return self.base_point_kind in ("puncture", "accumulation")

    def _holes_meeting(self, lo: float, hi: float) -> list[tuple]:
        """Rows (widened inner, widened outer, inner, outer, hole), in domain order, whose
        extent meets [lo, hi].  Window and extents are widened by 1e-12 of their distances,
        so rounding never drops a hole an exact test flags; a NaN window returns them all."""
        tol = 1e-12 * (abs(lo) + abs(hi))
        lo, hi = lo - tol, hi + tol
        return [e for e in self._extents if not (e[0] > hi or e[1] < lo)]

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
        if abs(z - self.outer.center) >= self.outer.radius:
            return False
        if self.base_is_boundary and z == self.base_point:
            return False
        rho = abs(z - self.base_point)
        for _, _, _, _, h in self._holes_meeting(rho, rho):
            if abs(z - h.center) <= h.radius:
                return False
        return True

    def boundary_distance(self, z: complex) -> float:
        """Distance from an interior point to the boundary of the domain."""
        z = complex(z)
        if not self.contains(z):
            raise GeometryError(f"{z} is not an interior point of the domain")
        rho = abs(z - self.base_point)
        d = self.outer.radius - abs(z - self.outer.center)
        if self.base_is_boundary:
            d = min(d, rho)
        # a hole whose extent misses [rho - d, rho + d] is farther than d
        for _, _, _, _, h in self._holes_meeting(rho - d, rho + d):
            d = min(d, abs(z - h.center) - h.radius)
        return d


@dataclass(frozen=True)
class Ray:
    """Straight segment from origin along a fixed direction."""

    origin: complex
    direction: float
    length: float

    def __post_init__(self):
        object.__setattr__(self, "origin", _require_finite(self.origin, "ray origin"))
        if not math.isfinite(self.direction):
            raise GeometryError(f"ray direction must be finite, got {self.direction}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise GeometryError("ray length must be positive")

    def point(self, t: float) -> complex:
        """Point at distance t from the origin, 0 < t <= length."""
        return self.origin + t * cmath.exp(1j * self.direction)


@dataclass(frozen=True)
class ConeSpec:
    """Truncated open sector with vertex at the base point.

    ``k`` is the claimed cone-opening constant; it can be at most
    sin(half_angle) for a sector.
    """

    vertex: complex
    direction: float
    half_angle: float
    length: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "vertex", _require_finite(self.vertex, "cone vertex"))
        if not math.isfinite(self.direction):
            raise GeometryError(f"cone direction must be finite, got {self.direction}")
        if not (0.0 < self.half_angle < math.pi / 2):
            raise GeometryError("half_angle must lie in (0, pi/2)")
        if not (math.isfinite(self.length) and self.length > 0):
            raise GeometryError("cone length must be positive")
        if not (0.0 < self.k <= math.sin(self.half_angle) + 1e-12):
            raise GeometryError("k must be positive and at most sin(half_angle)")

    def contains(self, z: complex, closed: bool = True) -> bool:
        w = complex(z) - self.vertex
        r = abs(w)
        if r == 0.0:
            return closed
        if r > self.length if closed else r >= self.length:
            return False
        dphi = _angle_diff(cmath.phase(w), self.direction)
        return dphi <= self.half_angle if closed else dphi < self.half_angle


def _angle_diff(a: float, b: float) -> float:
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    if d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


def _sector_distance(cone: ConeSpec, p: complex) -> float:
    """Distance from p to the closed truncated sector of a cone."""
    if cone.contains(p):
        return 0.0
    w = p - cone.vertex
    d = math.inf
    if _angle_diff(cmath.phase(w), cone.direction) <= cone.half_angle:
        d = abs(w) - cone.length  # nearest point on the arc
    for a in (-cone.half_angle, cone.half_angle):
        u = cmath.exp(1j * (cone.direction + a))
        t = min(max((w / u).real, 0.0), cone.length)
        d = min(d, abs(w - t * u))
    return d


def validate_cone(domain: SwissCheeseDomain, cone: ConeSpec) -> None:
    """Exact check that the closed truncated sector lies in U plus its vertex.

    |z - c|^2 is convex and every sector point but the vertex is a convex
    combination, with positive weight, of the vertex and an arc point; so the
    sector minus its vertex lies in the open outer disk iff the vertex lies
    in the closed disk and the arc's farthest point in the open one.  A
    closed hole misses the sector iff its center is farther than its radius;
    only the holes meeting the radial window [0, length] are tested.
    """
    if cone.vertex != domain.base_point:
        raise GeometryError("cone vertex must be the domain base point")
    c, R = domain.outer.center, domain.outer.radius
    w = cone.vertex - c
    if w == 0 or _angle_diff(cmath.phase(w), cone.direction) <= cone.half_angle:
        far = abs(w) + cone.length
    else:
        far = max(
            abs(w + cone.length * cmath.exp(1j * (cone.direction + a)))
            for a in (-cone.half_angle, cone.half_angle)
        )
    if abs(w) > R or far >= R:
        raise GeometryError(f"cone does not lie inside the open outer disk {domain.outer}")
    for _, _, _, _, h in domain._holes_meeting(0.0, cone.length):
        if _sector_distance(cone, h.center) <= h.radius:
            raise GeometryError(f"cone meets hole {h}")


def check_ray(domain: SwissCheeseDomain, ray: Ray) -> None:
    """Raise GeometryError unless the ray starts at the base point and its
    whole segment misses every closed hole.

    The hole test is exact, segment against disk, on the holes meeting the
    window [0, length]; sampling alone can slip between dyadic points even when
    the ray crosses a hole.  Whether the samples lie in U is `ray_samples`' check.
    """
    if ray.origin != domain.base_point:
        raise GeometryError("ray must start at the domain base point")
    u = cmath.exp(1j * ray.direction)
    for _, _, _, _, h in domain._holes_meeting(0.0, ray.length):
        w = h.center - ray.origin
        t = min(max((w / u).real, 0.0), ray.length)
        if abs(ray.origin + t * u - h.center) <= h.radius:
            raise GeometryError(f"ray passes through hole {h}")


def ray_samples(domain: SwissCheeseDomain, ray: Ray, count: int) -> list[complex]:
    """The ray at the `count` dyadic distances length * 2^-j, j < count.

    Raises GeometryError unless `check_ray` passes, no sample is the base
    point, where a difference quotient or a distance ratio divides by zero,
    and every sample lies in U.
    """
    check_ray(domain, ray)
    xs = [ray.point(ray.length * 2.0**-j) for j in range(count)]
    for x in xs:
        if x == domain.base_point:
            raise GeometryError(f"ray sample {x} is the base point")
        if not domain.contains(x):
            raise GeometryError(f"ray sample {x} lies outside the domain")
    return xs


def cone_samples(
    domain: SwissCheeseDomain, ray: Ray
) -> list[tuple[int, float, complex, float, float]]:
    """The 24 `ray_samples`, at t = length * 2^-i, as rows
    (i, t, x, boundary_distance(x), boundary_distance(x) / |x - x0|)."""
    rows = []
    for i, x in enumerate(ray_samples(domain, ray, 24)):
        bd = domain.boundary_distance(x)
        rows.append((i, ray.length * 2.0**-i, x, bd, bd / abs(x - domain.base_point)))
    return rows


def verify_interior_cone(domain: SwissCheeseDomain, ray: Ray) -> float:
    """Lower estimate of the cone constant k along a non-tangential ray: the
    least ratio of `cone_samples`, which checks the ray."""
    return min(row[4] for row in cone_samples(domain, ray))


# ---------------------------------------------------------------------------
# Annulus complements


@dataclass(frozen=True)
class ClippedPiece:
    """Intersection of a hole with a closed dyadic annulus about the base point."""

    hole: Disk
    annulus_center: complex
    n: int
    r_inner: float
    r_outer: float
    is_whole: bool

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if abs(z - self.hole.center) > self.hole.radius:
            return False
        r = abs(z - self.annulus_center)
        return self.r_inner <= r <= self.r_outer

    def bounding_box(self) -> tuple[float, float, float, float]:
        hx0, hy0, hx1, hy1 = self.hole.bounding_box()
        a, ro = self.annulus_center, self.r_outer
        x0 = max(hx0, a.real - ro)
        y0 = max(hy0, a.imag - ro)
        x1 = min(hx1, a.real + ro)
        y1 = min(hy1, a.imag + ro)
        return (x0, y0, x1, y1)

    def boundary_samples(self) -> np.ndarray:
        """Points on the boundary of the clipped region (complex array), from
        1024 equally spaced angles on each of its circles."""
        unit = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False))
        pts = [self.hole.center + self.hole.radius * unit]
        if not self.is_whole:
            rr = np.abs(pts[0] - self.annulus_center)
            pts[0] = pts[0][(rr >= self.r_inner) & (rr <= self.r_outer)]
            for rad in (self.r_inner, self.r_outer):
                circ = self.annulus_center + rad * unit
                inside = np.abs(circ - self.hole.center) <= self.hole.radius
                pts.append(circ[inside])
        return np.concatenate(pts)

    def diameter(self) -> float:
        if self.is_whole:
            return self.hole.diameter
        return _point_set_diameter(self.boundary_samples())


# Rows per block.  All pairs of the ~600 boundary samples of a clipped piece
# at once would take several MB of float64 temporaries; a block of 32 rows
# takes 32 * len(pts) floats per temporary.
_DIAMETER_BLOCK = 32


def _point_set_diameter(pts: np.ndarray) -> float:
    """Diameter of a finite planar point set: the largest pairwise distance.

    The squared distances of all pairs are formed in blocks of rows, each
    block against itself and the later points, so memory stays
    O(block * len(pts)).  Every `dx*dx + dy*dy` is the same float value a
    hull-only pass computes for that pair, and the farthest pair is always a
    pair of hull vertices, so no hull is needed for the same result.

    Before that pass, points that cannot end a farthest pair are dropped.
    With r_i the distance of point i from the centroid, R = max r_i and `lo`
    the largest distance from the point at R, a pair at distance >= lo has
    r_i + r_j >= lo, so both ends have r + R >= lo.  The relative margin of
    1e-9 covers rounding, so the farthest pair and its float value survive.
    """
    if len(pts) < 2:
        return 0.0
    x, y = pts.real, pts.imag
    rx, ry = x - x.mean(), y - y.mean()
    r = np.sqrt(rx * rx + ry * ry)
    far = int(r.argmax())
    fx, fy = x - x[far], y - y[far]
    lo = math.sqrt(float((fx * fx + fy * fy).max()))
    keep = r + r[far] >= lo * (1.0 - 1e-9)
    x, y = x[keep], y[keep]
    best = 0.0
    for s in range(0, len(x), _DIAMETER_BLOCK):
        e = s + _DIAMETER_BLOCK
        dx = x[s:e, None] - x[None, s:]
        dy = y[s:e, None] - y[None, s:]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def annulus_complement(domain: SwissCheeseDomain, n: int) -> list[ClippedPiece]:
    """Pieces hole ∩ A_n for each hole meeting the dyadic annulus A_n."""
    ri, ro = annulus_radii(n)
    return [
        ClippedPiece(h, domain.base_point, n, ri, ro, is_whole=lo >= ri and hi <= ro)
        for _, _, lo, hi, h in domain._holes_meeting(ri, ro)
        if not (hi < ri or lo > ro)
    ]


# ---------------------------------------------------------------------------
# Sampling regions (used by seminorm estimators and lemma checks)


@dataclass(frozen=True)
class DiskRegion:
    center: complex
    radius: float

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) <= self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        r = self.radius * np.sqrt(rng.random(count))
        phi = 2.0 * math.pi * rng.random(count)
        return self.center + r * np.exp(1j * phi)

    def extremal_pairs(self) -> list[tuple[complex, complex]]:
        th = np.linspace(0.0, math.pi, 24, endpoint=False)
        return [
            (
                self.center + self.radius * complex(np.cos(t), np.sin(t)),
                self.center - self.radius * complex(np.cos(t), np.sin(t)),
            )
            for t in th
        ]


@dataclass(frozen=True)
class AnnularSectorRegion:
    """{z : r_inner <= |z - center| <= r_outer, angle in [start, start+span]}."""

    center: complex
    r_inner: float
    r_outer: float
    angle_start: float
    angle_span: float

    def contains(self, z: complex) -> bool:
        w = complex(z) - self.center
        r = abs(w)
        if not (self.r_inner <= r <= self.r_outer):
            return False
        d = math.fmod(cmath.phase(w) - self.angle_start, 2.0 * math.pi)
        if d < 0:
            d += 2.0 * math.pi
        return d <= self.angle_span

    def diameter(self) -> float:
        return _point_set_diameter(self.boundary_points(256))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(count)
        r = np.sqrt(self.r_inner**2 + u * (self.r_outer**2 - self.r_inner**2))
        phi = self.angle_start + self.angle_span * rng.random(count)
        return self.center + r * np.exp(1j * phi)

    def boundary_points(self, count: int) -> np.ndarray:
        m = max(count // 4, 4)
        th = np.linspace(self.angle_start, self.angle_start + self.angle_span, m)
        rr = np.linspace(self.r_inner, self.r_outer, m)
        pts = [
            self.center + self.r_outer * np.exp(1j * th),
            self.center + self.r_inner * np.exp(1j * th),
            self.center + rr * np.exp(1j * self.angle_start),
            self.center + rr * np.exp(1j * (self.angle_start + self.angle_span)),
        ]
        return np.concatenate(pts)

    def extremal_pairs(self) -> list[tuple[complex, complex]]:
        b = self.boundary_points(24)
        # pair opposite-index boundary points; sup pairs are among these
        half = len(b) // 2
        return [(complex(b[i]), complex(b[i + half])) for i in range(half)]


def annulus_minus_cone_region(cone: ConeSpec, n: int) -> AnnularSectorRegion:
    """The region D_n: dyadic annulus n about the cone vertex, minus the cone."""
    ri, ro = annulus_radii(n)
    if ro > cone.length + 1e-15:
        raise GeometryError(f"annulus {n} extends beyond the cone truncation radius")
    return AnnularSectorRegion(
        center=cone.vertex,
        r_inner=ri,
        r_outer=ro,
        angle_start=cone.direction + cone.half_angle,
        angle_span=2.0 * math.pi - 2.0 * cone.half_angle,
    )
