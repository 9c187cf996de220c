import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointderiv import (
    ClippedPiece,
    ConeSpec,
    Disk,
    DiskRegion,
    GalleryError,
    GalleryFunction,
    GeometryError,
    Ray,
    SwissCheeseDomain,
    annulus_complement,
    validate_cone,
    verify_interior_cone,
)
from pointderiv.geometry import (
    _point_set_diameter,
    _sector_distance,
    _unit_circle,
    annulus_minus_cone_region,
    annulus_radii,
    check_ray,
)


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
    d2 = SwissCheeseDomain(
        outer=Disk(lam * domain.outer.center, lam * domain.outer.radius),
        holes=tuple(Disk(lam * h.center, lam * h.radius) for h in domain.holes),
        base_point=lam * domain.base_point,
        base_point_kind=domain.base_point_kind,
    )
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


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    arcs=st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=2.0),
            st.floats(1e-3, 1.0),
            st.floats(0.0, 2.0 * math.pi),
            st.floats(0.1, 2.0 * math.pi),
            st.integers(2, 200),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_pruned_diameter_equals_all_pairs_on_arcs(arcs):
    # unions of circular arcs, the shape of clipped-piece boundaries
    pts = np.concatenate(
        [c + r * np.exp(1j * np.linspace(a, a + span, m)) for c, r, a, span, m in arcs]
    )
    assert _point_set_diameter(pts) == _pairwise_diameter(pts)


def test_unit_circle_is_memoised_and_read_only():
    unit = _unit_circle(1024)
    assert _unit_circle(1024) is unit
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0] = 0.0


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


# The per-hole loops that `SwissCheeseDomain._holes_meeting` replaced, kept as
# the reference: each scans every hole.


def _scan_contains(domain, z):
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return False
    if abs(z - domain.outer.center) >= domain.outer.radius:
        return False
    if domain.base_is_boundary and z == domain.base_point:
        return False
    for h in domain.holes:
        if abs(z - h.center) <= h.radius:
            return False
    return True


def _scan_boundary_distance(domain, z):
    d = domain.outer.radius - abs(z - domain.outer.center)
    for h in domain.holes:
        d = min(d, abs(z - h.center) - h.radius)
    if domain.base_is_boundary:
        d = min(d, abs(z - domain.base_point))
    return d


def _scan_annulus_complement(domain, n):
    ri, ro = annulus_radii(n)
    x0 = domain.base_point
    pieces = []
    for h in domain.holes:
        d = abs(h.center - x0)
        lo, hi = d - h.radius, d + h.radius
        if hi < ri or lo > ro:
            continue
        pieces.append(ClippedPiece(h, x0, n, ri, ro, is_whole=lo >= ri and hi <= ro))
    return pieces


def _scan_validate_for_domain(f, domain):
    for p, _ in f.rational_terms:
        if not any(abs(p - h.center) < h.radius for h in domain.holes):
            raise GalleryError(f"pole {p} is not strictly inside any hole")
    for d, _ in f.ct_terms:
        if not any(abs(d.center - h.center) + d.radius <= h.radius for h in domain.holes):
            raise GalleryError(f"ct disk {d} is not contained in any hole")


def _outcome(check, *args):
    try:
        check(*args)
    except (GeometryError, GalleryError) as e:
        return str(e)
    return None


def _scan_check_ray(domain, ray):
    u = cmath.exp(1j * ray.direction)
    for h in domain.holes:
        w = h.center - ray.origin
        t = min(max((w / u).real, 0.0), ray.length)
        if abs(ray.origin + t * u - h.center) <= h.radius:
            raise GeometryError(f"ray passes through hole {h}")


def _scan_validate_cone(domain, cone):
    # the outer-disk part, on the same domain without holes
    bare = SwissCheeseDomain(outer=domain.outer, base_point=domain.base_point, base_point_kind="none")
    validate_cone(bare, cone)
    for h in domain.holes:
        if _sector_distance(cone, h.center) <= h.radius:
            raise GeometryError(f"cone meets hole {h}")


def _ulp_neighbours(z):
    return [
        z,
        complex(math.nextafter(z.real, math.inf), z.imag),
        complex(math.nextafter(z.real, -math.inf), z.imag),
        complex(z.real, math.nextafter(z.imag, math.inf)),
        complex(z.real, math.nextafter(z.imag, -math.inf)),
    ]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    base=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.5)),
    specs=st.lists(
        st.tuples(
            st.floats(0.0, 12.0),
            st.floats(0.0, 2.0 * math.pi),
            st.one_of(st.floats(0.05, 0.95), st.none()),
        ),
        min_size=1,
        max_size=60,
    ),
    phis=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=3),
    lengths=st.lists(st.floats(1e-4, 1.5), min_size=1, max_size=3),
)
def test_hole_query_answers_equal_the_scan(base, specs, phis, lengths):
    # holes at distances 0.9 * 2^-k from the base point, kept when they fit:
    # most pile up near it, as in a roadrunner domain.  A hole without a
    # radius fraction spans the dyadic annulus [2^-(j+1), 2^-j] along an axis,
    # so its extent ends on annulus circles.
    holes = []
    for k, th, frac in specs:
        if frac is None:
            j = math.floor(k)
            c = base + 3.0 * 2.0 ** -(j + 2) * (1, 1j, -1, -1j)[int(th) % 4]
            h = Disk(c, 2.0 ** -(j + 2))
        else:
            dist = 0.9 * 2.0**-k
            c = base + dist * complex(math.cos(th), math.sin(th))
            h = Disk(c, frac * dist)
        if abs(c) + h.radius >= 1.0 or any(
            abs(c - g.center) <= h.radius + g.radius for g in holes
        ):
            continue
        holes.append(h)
    holes = holes[:40]
    assume(holes)
    domain = SwissCheeseDomain(holes=tuple(holes), base_point=base)
    x0 = domain.base_point
    points = [x0 + 2.0**-j * complex(math.cos(phi), math.sin(phi)) for j in range(0, 40, 3) for phi in phis]
    for h in holes:
        # the hole's nearest and farthest points from x0, then points at phis
        w = (h.center - x0) / abs(h.center - x0)
        for u in [-w, w, *(complex(math.cos(phi), math.sin(phi)) for phi in phis)]:
            points += _ulp_neighbours(h.center + h.radius * u)
    for z in points:
        inside = domain.contains(z)
        assert inside == _scan_contains(domain, z)
        if inside:
            assert domain.boundary_distance(z) == _scan_boundary_distance(domain, z)
    for n in range(1, 16):
        assert annulus_complement(domain, n) == _scan_annulus_complement(domain, n)
    # poles just inside and outside each hole's edge, and ct disks on each
    # hole, on its edge or just past it
    for h in holes:
        w = (h.center - x0) / abs(h.center - x0)
        for u in (w, -w, 1j * w):
            for t in (1.0 - 1e-15, 1.0, 1.0 + 1e-15):
                f = GalleryFunction(rational_terms=((h.center + t * h.radius * u, 1.0),), base_point=x0)
                assert _outcome(f.validate_for_domain, domain) == _outcome(
                    _scan_validate_for_domain, f, domain
                )
            for grow in (0.0, 0.5e-12, 2e-12):
                for d in (Disk(h.center + grow * u, h.radius), Disk(h.center + (h.radius + grow) * u, 1e-14)):
                    f = GalleryFunction(ct_terms=((d, 1.0),), base_point=x0)
                    assert _outcome(f.validate_for_domain, domain) == _outcome(
                        _scan_validate_for_domain, f, domain
                    )
    # rays and cones aimed at each hole, or turned by phis[0], ending on its near
    # edge, at its centre or at a drawn length
    for h in holes:
        w = h.center - x0
        direction = math.atan2(w.imag, w.real)
        for length in [abs(w) - h.radius, abs(w), *lengths]:
            if length <= 0.0:
                continue
            for a in (direction, direction + phis[0]):
                ray = Ray(x0, a, length)
                assert _outcome(check_ray, domain, ray) == _outcome(_scan_check_ray, domain, ray)
                cone = ConeSpec(x0, a, 0.05, length, 0.04)
                assert _outcome(validate_cone, domain, cone) == _outcome(
                    _scan_validate_cone, domain, cone
                )


def test_only_domain_construction_and_the_gallery_read_holes():
    # every "which holes matter here" question goes through
    # `SwissCheeseDomain._holes_meeting`; a new scan of `.holes` would need its
    # own branch for a domain whose holes cannot be listed
    allowed = {
        ("geometry", ("SwissCheeseDomain", "__post_init__")),
        ("lipschitz", ("build_test_gallery",)),
    }
    readers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "holes":
                # a nested function counts as the function it is defined in
                readers.add(next(
                    (a for a in allowed if a[0] == module and scope[: len(a[1])] == a[1]),
                    (module, scope),
                ))
            visit(child, module, scope)

    src = Path(__file__).resolve().parent.parent / "src" / "pointderiv"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    assert readers - allowed == set()
    assert readers == allowed  # the walk still finds the readers it allows


_HOLE_SPECS = st.lists(
    st.tuples(st.floats(0.01, 0.95), st.floats(0.0, 2.0 * math.pi), st.floats(0.01, 0.9)),
    max_size=8,
)


def _random_domain(base, specs, kind):
    # holes at distance rho from the base point with radius frac * rho, so
    # none holds it, kept when they fit the unit disk and miss the earlier ones
    holes = []
    for rho, th, frac in specs:
        h = Disk(base + rho * cmath.exp(1j * th), frac * rho)
        if abs(h.center) + h.radius < 1.0 and all(abs(h.center - g.center) > h.radius + g.radius for g in holes):
            holes.append(h)
    return SwissCheeseDomain(holes=tuple(holes), base_point=base, base_point_kind=kind)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    base=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.5)),
    specs=_HOLE_SPECS,
    kind=st.sampled_from(["auto", "none"]),
    points=st.lists(st.complex_numbers(max_magnitude=0.999), min_size=1, max_size=8),
    near=st.floats(1e-5, 0.5),
)
def test_contains_agrees_with_boundary_distance(base, specs, kind, points, near):
    # every point closer to z than bd(z) lies in U, and the point just past
    # bd(z) toward the nearest boundary does not
    domain = _random_domain(base, specs, kind)
    x0 = domain.base_point
    for h in domain.holes:  # points near each hole's edge as well
        points += [h.center + h.radius * (1.0 + near) * cmath.exp(1j * k) for k in range(4)]
    for z in points:
        if not domain.contains(z):
            continue
        bd = domain.boundary_distance(z)
        # the nearest boundary: the unit circle, a hole or a boundary base point
        nearest = [(1.0 - abs(z), z / abs(z) if z else 1.0)]
        nearest += [(abs(z - h.center) - h.radius, (h.center - z) / abs(h.center - z)) for h in domain.holes]
        if domain.base_is_boundary:
            nearest.append((abs(z - x0), (x0 - z) / abs(x0 - z)))
        d, u = min(nearest, key=lambda e: e[0])
        assert bd == pytest.approx(d, rel=1e-12, abs=1e-15)
        if bd < 1e-6:
            continue  # past rounding only for larger distances
        for k in range(32):
            w = cmath.exp(2j * math.pi * k / 32)
            assert domain.contains(z + bd * (1.0 - 1e-9) * w) and domain.contains(z + 0.5 * bd * w)
        if d == abs(z - x0) and domain.base_is_boundary:
            assert not domain.contains(x0)  # a point: the far side lies in U again
        else:
            assert not domain.contains(z + bd * (1.0 + 1e-9) * u)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    base=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.5)),
    specs=_HOLE_SPECS,
    direction=st.floats(-math.pi, math.pi),
    half_angle=st.floats(0.01, 1.5),
    stretch=st.floats(0.1, 2.0),
)
def test_validate_cone_agrees_with_dense_sampling(base, specs, direction, half_angle, stretch):
    # a cone `validate_cone` accepts has its closed sector, less the vertex, in U
    domain = _random_domain(base, specs, "auto")
    x0 = domain.base_point
    free = min([abs(h.center - x0) - h.radius for h in domain.holes] + [1.0 - abs(x0)])
    cone = ConeSpec(x0, direction, half_angle, stretch * free, 0.5 * math.sin(half_angle))
    try:
        validate_cone(domain, cone)
    except GeometryError:
        return
    t = np.linspace(0.0, 1.0, 65)[1:, None]
    a = direction + np.linspace(-half_angle, half_angle, 33)
    for z in (x0 + cone.length * t * np.exp(1j * a)).ravel():
        assert domain.contains(z)
