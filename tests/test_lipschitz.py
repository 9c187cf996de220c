import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from pointderiv import (
    Disk,
    DiskRegion,
    GalleryFunction,
    Ray,
    SwissCheeseDomain,
    build_test_gallery,
    conjugate_function,
    functional_sweep,
    lemma_cauchy_bound_check,
    seminorm_estimate,
)
from pointderiv.contour import full_circle
from pointderiv.lipschitz import GalleryError, _seminorm_pairs, disk_cauchy_transform

CT_DISK = Disk(0.5, 0.125)


def test_poly_eval():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))  # z^2
    assert f(0.3) == pytest.approx(0.09)


def test_ct_value_at_origin():
    # frozen oracle 0.0981750 from 2-D midpoint quadrature of the area integral
    val = complex(disk_cauchy_transform(CT_DISK, 0.0))
    assert val == pytest.approx(0.0981750001, abs=5e-6)
    assert val == pytest.approx(math.pi / 32, abs=1e-12)


def test_ct_value_at_center():
    assert complex(disk_cauchy_transform(CT_DISK, 0.5)) == 0.0


def test_ct_continuous_across_boundary():
    for ang in np.linspace(0, 2 * math.pi, 17):
        b = CT_DISK.center + CT_DISK.radius * complex(math.cos(ang), math.sin(ang))
        outside = math.pi * CT_DISK.radius**2 / (CT_DISK.center - b)
        inside = -math.pi * (b - CT_DISK.center).conjugate()
        mid = complex(disk_cauchy_transform(CT_DISK, b))
        assert abs(mid - outside) < 1e-9
        assert abs(mid - inside) < 1e-9


def _ct_two_branches(disk, z):
    """Both formulas through `np.where`, without the exterior fast path."""
    z = np.asarray(z, dtype=complex)
    c, r = disk.center, disk.radius
    outside = np.abs(z - c) > r
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            outside, math.pi * r * r / np.where(outside, c - z, 1.0), -math.pi * np.conj(z - c)
        )


def test_ct_bits_inside_on_and_outside():
    c, r = CT_DISK.center, CT_DISK.radius
    inside, on, outside = [c + 0.3 * r, c], [c + r, c - 1j * r], [0.0, 0.1 + 0.7j, 2.0 - 1j]
    for zs in (inside + on + outside, outside, on, outside[1:2]):
        got = disk_cauchy_transform(CT_DISK, zs)
        assert type(got) is np.ndarray and got.shape == (len(zs),)
        assert got.tobytes() == _ct_two_branches(CT_DISK, zs).tobytes()
    for z in inside + on + outside:
        got = disk_cauchy_transform(CT_DISK, z)
        # a 0-d array: numpy's scalar arithmetic would round the callers' sums otherwise
        assert type(got) is np.ndarray and got.shape == ()
        assert got.tobytes() == _ct_two_branches(CT_DISK, z).tobytes()


def test_gallery_vanishes_at_base_point():
    f = GalleryFunction(ct_terms=((CT_DISK, 1.0),), poly_coeffs=(3, 1))
    assert f(0j) == 0j


def test_gallery_eval_at_pole_raises():
    f = GalleryFunction(rational_terms=((0.5, 1.0),))
    with pytest.raises(GalleryError):
        f(0.5)
    with pytest.raises(GalleryError, match="pole coincides with the base point"):
        GalleryFunction(rational_terms=((0.25j, 1.0),), base_point=0.25j)


def _exact_quotient(f, x):
    """(f(x) - f(x0)) / (x - x0) in rational arithmetic, as (real, imag)
    Fractions, for x, the base point x0, the poles and the disk centres on
    the real axis, with math.pi for pi: every input is a float, so the
    value is exact.  Times x - x0 it is the exact value f(x)."""
    t, t0, pi = Fraction(x.real), Fraction(complex(f.base_point).real), Fraction(math.pi)

    def ct(disk, z):
        c, r = Fraction(disk.center.real), Fraction(disk.radius)
        return pi * r * r / (c - z) if abs(z - c) > r else -pi * (z - c)

    parts = [(a, t**n - t0**n) for n, a in enumerate(f.poly_coeffs)]
    parts += [(w, 1 / (t - Fraction(p.real)) - 1 / (t0 - Fraction(p.real))) for p, w in f.rational_terms]
    parts += [(w, ct(d, t) - ct(d, t0)) for d, w in f.ct_terms]
    re = sum(Fraction(w.real) * k for w, k in parts) / (t - t0)
    im = sum(Fraction(w.imag) * k for w, k in parts) / (t - t0)
    return re, im


def _relative_error(q: complex, exact) -> float:
    re, im = exact
    return math.hypot(float(Fraction(q.real) - re), float(Fraction(q.imag) - im)) / math.hypot(re, im)


def _value_error(f, x: complex, exact) -> float:
    """The relative error of f(x) = (x - x0) q(x), from the exact quotient."""
    d = Fraction(x.real) - Fraction(complex(f.base_point).real)
    return _relative_error(f(x), (d * exact[0], d * exact[1]))


W = 0.7 - 0.3j
QUOTIENT_CASES = {
    "poly": (GalleryFunction(poly_coeffs=(0.3, 2, -1, 0.5j, 0.25)), 0.0),
    "poly off the origin": (GalleryFunction(poly_coeffs=(0.3, 2, -1, 0.5j, 0.25), base_point=0.375), 0.375),
    "pole": (GalleryFunction(rational_terms=((0.75 * 2.0**-9, W),)), 0.0),
    "pole off the origin": (GalleryFunction(rational_terms=((0.625, W),), base_point=0.375), 0.375),
    "ct outside": (GalleryFunction(ct_terms=((Disk(0.75 * 2.0**-5, 2.0**-9), W),)), 0.0),
    # x and x0 in the closed disk, x0 at its centre and off it
    "ct inside": (GalleryFunction(ct_terms=((Disk(0.0, 1.0), W),)), 0.0),
    "ct inside off centre": (GalleryFunction(ct_terms=((Disk(-0.5, 0.75), W),)), 0.0),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_matches_exact_reference_deep(name):
    # x = x0 - 2^-j: f(x) - f(x0) cancels ever more, the term-by-term
    # quotient does not; off the origin x reaches x0 from j = 55 on
    f, x0 = QUOTIENT_CASES[name]
    xs = np.array([x0 - 2.0**-j for j in range(1, 101) if x0 - 2.0**-j != x0], complex)
    for x, q, v in zip(xs.tolist(), f.quotient(xs).tolist(), f(xs).tolist()):
        exact = _exact_quotient(f, x)
        assert _relative_error(q, exact) <= 1e-15, (name, x)
        # the value (x - x0) q(x) does not cancel either
        assert _value_error(f, x, exact) <= 1e-15, (name, x)
        assert f(x) == v  # a scalar z gives the array's bits
    assert f.quotient(complex(xs[-1])) == q  # a scalar z gives the array's bits


def test_quotient_ct_with_x_inside_and_x0_outside():
    # the raw difference: x at the centre of a disk that x0 = 0 lies outside
    for j in range(1, 101):
        x = -(2.0**-j)
        f = GalleryFunction(ct_terms=((Disk(x, 2.0 ** -(j + 1)), W),))
        assert _relative_error(f.quotient(x), _exact_quotient(f, x)) <= 1e-15, j


def test_gallery_quotient_matches_exact_reference(domain):
    xs = np.array([-(2.0**-j) for j in range(1, 101)], complex)
    for f in build_test_gallery(domain, 27):
        for x, q in zip(xs.tolist(), f.quotient(xs).tolist()):
            exact = _exact_quotient(f, x)
            assert _relative_error(q, exact) <= 1e-15, (f.label, x)
            assert _value_error(f, x, exact) <= 1e-15, (f.label, x)


# f'(x0) is the quotient at z = x0


def test_derivative_poly():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    assert f.quotient(0j) == 0j


def test_derivative_ct():
    # frozen oracle 0.1963495409 from central finite differences of the value
    f = GalleryFunction(ct_terms=((CT_DISK, 1.0),))
    assert f.quotient(0j) == pytest.approx(0.1963495409, abs=1e-9)
    assert f.quotient(0j) == pytest.approx(math.pi / 16, abs=1e-12)


def test_derivative_rational():
    f = GalleryFunction(rational_terms=((0.5, 1.0),))
    assert f.quotient(0j) == pytest.approx(-4.0)


def test_derivative_inside_ct_disk_raises():
    # x0 at the centre of the disk and on its circle: no complex derivative,
    # not a NaN; other points, and the value at x0, are fine
    for x0 in (0.5, 0.625):
        f = GalleryFunction(ct_terms=((CT_DISK, 1.0),), base_point=x0)
        for z in (x0, np.array([0.55, x0])):
            with pytest.raises(GalleryError, match="no derivative at the base point"):
                f.quotient(z)
        assert f(x0) == 0j
        assert math.isfinite(abs(f.quotient(0.55)))


def test_derivative_matches_finite_differences():
    h = 1e-5
    for z in (0j, -0.3, 0.2j, -0.1 - 0.1j):
        f = GalleryFunction(
            poly_coeffs=(0, 1j, 0.25),
            rational_terms=((0.5, 0.2),),
            ct_terms=((CT_DISK, 0.5j),),
            base_point=z,
        )
        fd = (f(z + h) - f(z - h)) / (2 * h)
        assert abs(fd - f.quotient(z)) <= 1e-6 * max(1.0, abs(f.quotient(z)))


def test_seminorm_conjugate():
    # sup |conj z - conj w| / |z - w|^0.5 on the unit disk = 2^0.5, at a diameter
    f = conjugate_function()
    est = seminorm_estimate(f, DiskRegion(0j, 1.0), 0.5, pair_count=2000, seed=1)
    assert 1.40 <= est.value <= math.sqrt(2) + 1e-9


def test_seminorm_identity():
    est = seminorm_estimate(lambda z: z, DiskRegion(0j, 1.0), 0.5, pair_count=2000)
    assert 1.40 <= est.value <= math.sqrt(2) + 1e-9


def test_seminorm_constant_zero():
    est = seminorm_estimate(lambda z: np.full_like(np.asarray(z, complex), 2.0),
                            DiskRegion(0j, 1.0), 0.5)
    assert est.value == 0.0


def test_seminorm_monotone_in_region():
    f = conjugate_function()
    small = seminorm_estimate(f, DiskRegion(0j, 0.5), 0.5, seed=2).value
    large = seminorm_estimate(f, DiskRegion(0j, 1.0), 0.5, seed=2).value
    assert small <= large + 1e-12


def test_seminorm_pair_count_validation():
    with pytest.raises(GalleryError):
        seminorm_estimate(lambda z: z, DiskRegion(0j, 1.0), 0.5, pair_count=10)


def test_build_test_gallery(domain, gallery):
    assert len(gallery) == 20
    for f in gallery:
        assert f(0j) == 0j
        f.validate_for_domain(domain)


def _gallery_fields(f):
    # repr tells -0.0 from 0.0 and keeps every digit
    return repr([getattr(f, fl.name) for fl in dataclasses.fields(f)])


@pytest.mark.parametrize("count", [0, 1, 6, 20, 27])
def test_build_test_gallery_builds_a_prefix(domain, count):
    available = 6 + 3 * len(domain.holes)
    assert available == 27
    everything = build_test_gallery(domain, available)
    got = build_test_gallery(domain, count)
    assert [_gallery_fields(f) for f in got] == [_gallery_fields(f) for f in everything[:count]]


def test_build_test_gallery_rejects_too_many(domain):
    with pytest.raises(GalleryError, match="domain supports only 27 gallery functions, need 28"):
        build_test_gallery(domain, 28)


def test_validate_for_domain_rejects_outside_pole(domain):
    f = GalleryFunction(rational_terms=((0.5j, 1.0),))
    with pytest.raises(GalleryError):
        f.validate_for_domain(domain)


def test_validate_for_domain_rejects_ct_disk_just_outside_small_hole():
    # 0.5e-12 past the edge of a hole of radius 1e-6: the disk's centre lies in
    # U, so f is not analytic there
    domain = SwissCheeseDomain(holes=(Disk(0.5, 1e-6),))
    d = Disk(0.5 + 1e-6 + 0.5e-12, 1e-14)
    assert domain.contains(d.center)
    with pytest.raises(GalleryError, match="is not contained in any hole"):
        GalleryFunction(ct_terms=((d, 1.0),)).validate_for_domain(domain)
    GalleryFunction(ct_terms=((Disk(0.5, 1e-6), 1.0),)).validate_for_domain(domain)


def test_seminorm_pairs_are_read_only_and_drawn_once():
    _seminorm_pairs.cache_clear()
    region = DiskRegion(0j, 0.2)
    pairs = _seminorm_pairs(region, 0.5, 4000, 0)
    assert _seminorm_pairs(DiskRegion(0j, 0.2), 0.5, 4000, 0) is pairs
    for a in pairs:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert sum(a.nbytes for a in pairs) <= 4100 * 40
    for _ in range(2):
        with pytest.raises(GalleryError, match="pair_count"):
            _seminorm_pairs(region, 0.5, 99, 0)
    assert _seminorm_pairs.cache_info().currsize == 1


def _lemma_bits():
    f = conjugate_function()
    return [
        repr(lemma_cauchy_bound_check(f, full_circle(0j, r), DiskRegion(0j, r), 0.5))
        for r in (0.4, 0.2, 0.1)
    ]


def _sweep_bits(gallery, domain):
    ray = Ray(0j, math.pi, 0.25)
    return repr(functional_sweep(gallery, domain, ray, scales=12, alpha=0.5, seed=3))


def test_seminorm_pairs_memo_cold_and_warm_bits(domain, gallery):
    _seminorm_pairs.cache_clear()
    cold = _lemma_bits(), _sweep_bits(gallery, domain)
    hits = _seminorm_pairs.cache_info().hits
    warm = _lemma_bits(), _sweep_bits(gallery, domain)
    # three lemma radii and the sweep's unit disk, each drawn once
    assert _seminorm_pairs.cache_info().hits == hits + 4
    assert warm == cold
