import math

import numpy as np
import pytest

from pointderiv import (
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    annulus_minus_cone_region,
    annulus_radii,
    validate_cone,
    verify_interior_cone,
)
from pointderiv.geometry import _point_set_diameter


def test_disk_rejects_bad_radius():
    with pytest.raises(GeometryError):
        Disk(0j, 0.0)
    with pytest.raises(GeometryError):
        Disk(0j, -1.0)
    with pytest.raises(GeometryError):
        Disk(complex(float("nan"), 0.0), 1.0)


@pytest.mark.parametrize("direction", [float("nan"), float("inf")])
def test_ray_rejects_non_finite_direction(direction):
    with pytest.raises(GeometryError):
        Ray(0j, direction, 0.25)


@pytest.mark.parametrize("direction", [float("nan"), float("inf")])
def test_cone_rejects_non_finite_direction(direction):
    with pytest.raises(GeometryError):
        ConeSpec(0j, direction, math.pi / 6, 0.5, 0.45)


def test_contains_interior_point():
    d = SwissCheeseDomain(base_point_kind="none")
    assert d.contains(0.5)


def test_contains_outer_boundary_excluded():
    d = SwissCheeseDomain(base_point_kind="none")
    assert not d.contains(1.0)


def test_contains_hole_center_excluded():
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),))
    assert not d.contains(0.5)


def test_domain_invariants_enforced():
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.9, 0.2),))  # pokes out of the outer disk
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.5, 0.2), Disk(0.6, 0.2)))  # overlap
    with pytest.raises(GeometryError):
        SwissCheeseDomain(holes=(Disk(0.05, 0.1),))  # swallows the base point


def test_boundary_distance_punctured_disk():
    d = SwissCheeseDomain(base_point_kind="puncture")
    assert d.boundary_distance(-0.25) == pytest.approx(0.25)


def test_boundary_distance_not_accumulation():
    # oracle: min(1 - 0.25, |−0.25 − 0.5| − 0.25) = min(0.75, 0.5) = 0.5
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="none")
    assert d.boundary_distance(-0.25) == pytest.approx(0.5)


def test_boundary_distance_near_hole():
    # oracle: |0.2 - 0.5| - 0.25 = 0.05
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="none")
    assert d.boundary_distance(0.2) == pytest.approx(0.05)


def test_boundary_distance_requires_interior():
    d = SwissCheeseDomain(base_point_kind="none")
    with pytest.raises(GeometryError):
        d.boundary_distance(2.0)


def test_contains_boundary_distance_consistency():
    d = SwissCheeseDomain(holes=(Disk(0.5, 0.25),), base_point_kind="puncture")
    rng = np.random.default_rng(7)
    pts = 0.9 * (rng.random(200) * 2 - 1) + 1j * 0.9 * (rng.random(200) * 2 - 1)
    for z in pts:
        z = complex(z)
        if not d.contains(z):
            continue
        bd = d.boundary_distance(z)
        assert bd > 0
        for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            assert d.contains(z + 0.5 * bd * complex(math.cos(ang), math.sin(ang)))


def test_verify_interior_cone_punctured_disk():
    d = SwissCheeseDomain(base_point_kind="puncture")
    ray = Ray(0j, math.pi, 0.5)
    assert verify_interior_cone(d, ray) == pytest.approx(1.0)


def test_verify_interior_cone_roadrunner(domain, ray):
    # oracle: direct minimization over dyadic samples of min-distance / |x|
    x0 = domain.base_point
    expected = math.inf
    for i in range(24):
        x = ray.point(ray.length * 2.0**-i)
        cands = [domain.outer.radius - abs(x), abs(x - x0)]
        cands += [abs(x - h.center) - h.radius for h in domain.holes]
        expected = min(expected, min(cands) / abs(x - x0))
    assert verify_interior_cone(domain, ray) == pytest.approx(expected, rel=1e-12)
    assert verify_interior_cone(domain, ray) == pytest.approx(1.0)


def test_verify_interior_cone_ray_through_hole(domain):
    ray = Ray(0j, 0.0, 0.25)  # positive axis runs straight into the holes
    with pytest.raises(GeometryError):
        verify_interior_cone(domain, ray)


def test_verify_interior_cone_scale_invariant(domain, ray):
    k1 = verify_interior_cone(domain, ray)
    lam = 0.5
    d2 = domain.scaled(lam)
    r2 = Ray(ray.origin * lam, ray.direction, ray.length * lam)
    assert verify_interior_cone(d2, r2) == pytest.approx(k1, rel=1e-12)


def test_annulus_radii():
    assert annulus_radii(2) == (0.125, 0.25)
    with pytest.raises(GeometryError):
        annulus_radii(0)


def test_annulus_complement_whole_disk():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    pieces = annulus_complement(d, 2)
    assert len(pieces) == 1
    assert pieces[0].is_whole
    assert pieces[0].diameter() == pytest.approx(0.0625)


def test_annulus_complement_empty():
    d = SwissCheeseDomain(holes=(Disk(0.1875, 0.03125),))
    assert annulus_complement(d, 4) == []


def test_annulus_complement_clipped():
    d = SwissCheeseDomain(holes=(Disk(0.25, 0.05),))  # straddles |z| = 0.25
    p1 = annulus_complement(d, 1)
    p2 = annulus_complement(d, 2)
    assert len(p1) == 1 and not p1[0].is_whole
    assert len(p2) == 1 and not p2[0].is_whole
    # oracle by interval arithmetic: radial band [0.2, 0.3] meets both annuli
    assert p1[0].r_inner == 0.25 and p2[0].r_outer == 0.25


def _piece_points(piece, count, rng):
    """Points of a piece, by rejection from its hole disk."""
    r = piece.hole.radius * np.sqrt(rng.random(8 * count))
    z = piece.hole.center + r * np.exp(2j * math.pi * rng.random(8 * count))
    rr = np.abs(z - piece.annulus_center)
    z = z[(rr >= piece.r_inner) & (rr <= piece.r_outer)][:count]
    assert len(z) == count
    return z


def test_clipped_pieces_contained_and_disjoint(domain):
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        for p in annulus_complement(domain, n):
            ri, ro = annulus_radii(n)
            for z in _piece_points(p, 100, rng):
                z = complex(z)
                assert abs(z - p.hole.center) <= p.hole.radius + 1e-12
                assert ri - 1e-12 <= abs(z) <= ro + 1e-12


def test_annulus_cover_property(domain):
    # every annulus point is either in U or in some complement piece
    rng = np.random.default_rng(3)
    for n in (3, 5):
        ri, ro = annulus_radii(n)
        pieces = annulus_complement(domain, n)
        r = np.sqrt(ri**2 + rng.random(300) * (ro**2 - ri**2))
        phi = 2 * math.pi * rng.random(300)
        for z in r * np.exp(1j * phi):
            z = complex(z)
            hit_boundary = any(
                abs(abs(z - h.center) - h.radius) < 1e-9 for h in domain.holes
            )
            assert (
                domain.contains(z)
                or any(p.contains(z) for p in pieces)
                or hit_boundary
            )


def test_cone_spec_invariants():
    with pytest.raises(GeometryError):
        ConeSpec(0j, 0.0, math.pi / 2, 0.5, 0.4)  # half angle not < pi/2
    with pytest.raises(GeometryError):
        ConeSpec(0j, 0.0, math.pi / 6, 0.5, 0.9)  # k > sin(half_angle)


def test_validate_cone(domain, cone):
    validate_cone(domain, cone)
    bad = ConeSpec(0j, 0.0, math.pi / 6, 0.5, 0.45)  # points at the holes
    with pytest.raises(GeometryError):
        validate_cone(domain, bad)


def test_validate_cone_rejects_small_hole_inside():
    # a hole far smaller than the spacing of any sampled check, on the axis
    d = SwissCheeseDomain(holes=(Disk(-0.1 + 0.01j, 1e-4),))
    with pytest.raises(GeometryError):
        validate_cone(d, ConeSpec(0j, math.pi, math.pi / 6, 0.5, 0.45))


UPPER_EDGE = np.exp(5j * math.pi / 6)  # of the cone opening along the negative axis


@pytest.mark.parametrize(
    "hole, ok",
    [
        (Disk(-0.56, 0.05), True),  # 0.06 beyond the arc
        (Disk(-0.54, 0.05), False),  # 0.04 beyond the arc
        # 0.03 off the upper edge, outside the sector
        (Disk((0.3 - 0.03j) * UPPER_EDGE, 0.029), True),
        (Disk((0.3 - 0.03j) * UPPER_EDGE, 0.031), False),
    ],
)
def test_validate_cone_hole_distance_exact(hole, ok):
    d = SwissCheeseDomain(holes=(hole,))
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.5, 0.45)
    if ok:
        validate_cone(d, cone)
    else:
        with pytest.raises(GeometryError):
            validate_cone(d, cone)


def test_validate_cone_outer_disk():
    d = SwissCheeseDomain(base_point_kind="puncture")
    validate_cone(d, ConeSpec(0j, math.pi, math.pi / 6, 0.999, 0.45))
    with pytest.raises(GeometryError):
        validate_cone(d, ConeSpec(0j, math.pi, math.pi / 6, 1.0, 0.45))
    # vertex on the outer circle: the sector may still lie inside the disk
    on_circle = SwissCheeseDomain(base_point=1.0)
    validate_cone(on_circle, ConeSpec(1 + 0j, math.pi, math.pi / 6, 1.5, 0.45))
    with pytest.raises(GeometryError):
        validate_cone(on_circle, ConeSpec(1 + 0j, math.pi, math.pi / 6, 1.8, 0.45))


def _hull_diameter(pts):
    """The former hull formula: all pairs of convex-hull vertices at once."""
    spatial = pytest.importorskip("scipy.spatial")
    xy = np.column_stack([pts.real, pts.imag])
    hull = xy[spatial.ConvexHull(xy).vertices]
    d2 = ((hull[:, None, :] - hull[None, :, :]) ** 2).sum(-1)
    return float(np.sqrt(d2.max()))


def test_piece_diameter_matches_hull_formula_bitwise():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 12))
        ri, ro = annulus_radii(n)
        # centres on either annulus circle or between them
        rc = (ri, ro, ri + (ro - ri) * rng.random())[checked % 3]
        radius = (ro - ri) * (0.05 + 0.9 * rng.random())
        hole = Disk(rc * np.exp(2j * math.pi * rng.random()), radius)
        pts = ClippedPiece(hole, 0j, n, ri, ro, is_whole=False).boundary_samples()
        if len(pts) < 3:
            continue
        assert _point_set_diameter(pts) == _hull_diameter(pts)
        checked += 1


@pytest.mark.parametrize("half_angle", [0.1, math.pi / 6, 1.5])
def test_sector_diameter_matches_hull_formula_bitwise(half_angle):
    cone = ConeSpec(0j, math.pi, half_angle, 0.5, 0.9 * math.sin(half_angle))
    for n in range(1, 12):
        region = annulus_minus_cone_region(cone, n)
        assert region.diameter() == _hull_diameter(region.boundary_points(256))


def test_point_set_diameter_small_sets():
    assert _point_set_diameter(np.array([0.3 + 0.1j])) == 0.0
    assert _point_set_diameter(np.array([0j, 3 + 4j])) == 5.0
    # more points than one block; the farthest pair sits in different blocks
    pts = np.concatenate([np.zeros(100), np.linspace(0, 1, 100) * 1j, [2.0 + 0j]])
    assert _point_set_diameter(pts) == math.sqrt(5.0)


def _pairwise_diameter(pts):
    """Largest distance over all pairs at once, with nothing pruned."""
    dx = pts.real[:, None] - pts.real[None, :]
    dy = pts.imag[:, None] - pts.imag[None, :]
    return math.sqrt(float((dx * dx + dy * dy).max()))


@pytest.mark.parametrize(
    "pts",
    [
        # points on one circle: nearly all of them survive the pruning
        np.exp(2j * math.pi * np.arange(500) / 500),
        1e6 + 1e-3 * np.exp(2j * math.pi * np.arange(301) / 301),
        # collinear, each point three times
        np.repeat(np.linspace(0.0, 1.0, 70), 3) * (1 + 2j),
        np.array([0.25 + 0.5j, 0.25 + 0.5j]),
        np.array([0j, 3 + 4j]),
        np.array([0j, 1.0, 0.4 + 2j]),
        # two farthest pairs of equal length, the diagonals of a square
        np.concatenate([[0j, 1.0, 1 + 1j, 1j], 0.5 + 0.5j + 0.3 * np.exp(1j * np.arange(50))]),
    ],
)
def test_pruned_diameter_equals_all_pairs(pts):
    assert _point_set_diameter(pts) == _pairwise_diameter(pts)


def test_pruned_piece_diameter_equals_all_pairs():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 12))
        ri, ro = annulus_radii(n)
        rc = (ri, ro, ri + (ro - ri) * rng.random())[checked % 3]
        radius = (ro - ri) * (0.05 + 0.9 * rng.random())
        hole = Disk(rc * np.exp(2j * math.pi * rng.random()), radius)
        pts = ClippedPiece(hole, 0j, n, ri, ro, is_whole=False).boundary_samples()
        if len(pts) < 2:
            continue
        assert _point_set_diameter(pts) == _pairwise_diameter(pts)
        checked += 1


def test_disk_contains_many_equals_contains():
    rng = np.random.default_rng(5)
    region = DiskRegion(0.3 - 0.2j, 0.7)
    # radii anywhere in 1.2 times the disk, then on the circle and one ulp
    # inside and outside it
    ulp = [region.radius, np.nextafter(region.radius, 0.0), np.nextafter(region.radius, 2.0)]
    r = np.concatenate([1.2 * region.radius * np.sqrt(rng.random(4000)), np.repeat(ulp, 1000)])
    z = region.center + r * np.exp(2j * math.pi * rng.random(len(r)))
    want = np.array([region.contains(complex(c)) for c in z])
    got = region.contains_many(z)
    assert got.dtype == bool
    assert np.array_equal(got, want)
    assert want[4000:].any() and not want[4000:].all()


def test_ray_point():
    ray = Ray(0j, math.pi, 0.25)
    assert ray.point(0.1) == pytest.approx(-0.1)
