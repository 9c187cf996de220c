import cmath
import math

import numpy as np
import pytest

from pointderiv import (
    Arc,
    ConeSpec,
    ContourError,
    ContourPath,
    Disk,
    DiskRegion,
    GalleryFunction,
    Segment,
    annular_decomposition,
    annulus_radii,
    build_annular_piece,
    build_keyhole,
    build_test_gallery,
    conjugate_function,
    full_circle,
    integrate_contour,
    kernel_seminorm_ratio,
    lemma_cauchy_bound_check,
    quotient_via_cauchy,
)
from pointderiv import contour
from pointderiv.contour import _GL_NODES, _GL_WEIGHTS, ToleranceError, default_inner_index

CONE = ConeSpec(vertex=0j, direction=math.pi, half_angle=math.pi / 6, length=0.5, k=0.45)


# ---------------------------------------------------------------------------
# Reference quadrature: the recursive depth-first adaptive Gauss-Legendre
# rule that `integrate_contour` evaluates level by level.


def _gl_reference(F, a, b, stats):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = F(mid + half * _GL_NODES)
    stats[0] += len(_GL_NODES)
    return half * complex(np.sum(vals * _GL_WEIGHTS))


def _adaptive_reference(F, a, b, tol, stats, depth=0):
    coarse = _gl_reference(F, a, b, stats)
    m = 0.5 * (a + b)
    fine = _gl_reference(F, a, m, stats) + _gl_reference(F, m, b, stats)
    err = abs(fine - coarse)
    if err <= tol or err <= 1e-16 * (1.0 + abs(fine)):
        return fine, err
    if depth >= 48:
        raise ToleranceError("stalled", best=fine, error_estimate=err)
    v1, e1 = _adaptive_reference(F, a, m, tol / 2.0, stats, depth + 1)
    v2, e2 = _adaptive_reference(F, m, b, tol / 2.0, stats, depth + 1)
    return v1 + v2, e1 + e2


def integrate_reference(path, integrand, tol=1e-10):
    """(value, error estimate, evaluations) of the recursive rule."""
    total_len = path.total_length
    stats = [0]
    value = 0j
    err = 0.0
    for prim in path.segments:
        frac = prim.length / total_len if total_len > 0 else 1.0 / len(path.segments)

        def F(t, prim=prim):
            return np.asarray(integrand(prim.point(t))) * prim.velocity(t)

        v, e = _adaptive_reference(F, 0.0, 1.0, tol * frac, stats)
        value += v
        err += e
    return value, err, stats[0]


def winding_number(path, z0):
    res = integrate_contour(path, lambda z: 1.0 / (z - z0), tol=1e-8)
    return (res.value / (2j * math.pi)).real


def _bits(z: complex) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# ---------------------------------------------------------------------------
# Paths and quadrature


def test_path_join_validation():
    with pytest.raises(ContourError):
        ContourPath((Segment(0, 1), Segment(2, 3)))


def test_path_simplicity_check():
    with pytest.raises(ContourError):
        ContourPath(
            (Segment(0, 1 + 1j), Segment(1 + 1j, 1), Segment(1, 1j), Segment(1j, 0)),
            closed=True,
        )


def test_keyhole_structure():
    path = build_keyhole(CONE, N=5, M=2)
    arcs = [p for p in path.segments if isinstance(p, Arc)]
    segs = [p for p in path.segments if isinstance(p, Segment)]
    assert len(arcs) == 2 and len(segs) == 2
    assert path.closed and path.cusp_free


def test_keyhole_winding():
    path = build_keyhole(CONE, N=5, M=2)
    assert winding_number(path, -0.1) == pytest.approx(1.0, abs=1e-7)
    assert winding_number(path, 0.5) == pytest.approx(0.0, abs=1e-7)
    assert winding_number(path.reversed(), -0.1) == pytest.approx(-1.0, abs=1e-7)


def test_keyhole_preconditions():
    with pytest.raises(ContourError):
        build_keyhole(CONE, N=2, M=2)
    short = ConeSpec(0j, math.pi, math.pi / 6, 0.1, 0.45)
    with pytest.raises(ContourError):
        build_keyhole(short, N=5, M=2)  # sector radius 0.25 > cone length


def test_annular_piece_winding():
    path = build_annular_piece(3, CONE)
    inside = 0.09  # in the annulus [0.0625, 0.125], outside the cone
    assert winding_number(path, inside) == pytest.approx(1.0, abs=1e-7)
    in_cone = -0.09
    assert winding_number(path, in_cone) == pytest.approx(0.0, abs=1e-7)


def test_annular_piece_arclength_halves():
    l3 = build_annular_piece(3, CONE).total_length
    l4 = build_annular_piece(4, CONE).total_length
    assert l4 == pytest.approx(l3 / 2, rel=1e-12)


def test_integrate_residue():
    res = integrate_contour(full_circle(0j, 1.0), lambda z: 1.0 / z, tol=1e-10)
    assert abs(res.value - 2j * math.pi) <= 1e-10


def test_integrate_conjugate_circle():
    # frozen oracle 0.5654866776461628j from the direct parametric integral, r = 0.3
    res = integrate_contour(full_circle(0j, 0.3), np.conj, tol=1e-10)
    assert abs(res.value - 0.5654866776461628j) <= 1e-10
    assert abs(res.value - 2j * math.pi * 0.09) <= 1e-10


def test_integrate_entire_function_zero():
    path = build_keyhole(CONE, N=5, M=2)
    res = integrate_contour(path, lambda z: np.exp(z) * z**3, tol=1e-10)
    assert abs(res.value) <= 1e-9


def test_integrate_tolerance_positive():
    with pytest.raises(ContourError):
        integrate_contour(full_circle(0j, 1.0), lambda z: z, tol=0.0)


def test_quadrature_primitive_order_independent():
    a1 = Arc(0j, 1.0, 0.0, math.pi)
    a2 = Arc(0j, 1.0, math.pi, 2 * math.pi)
    v1 = integrate_contour(
        ContourPath((a1, a2), check_simple=False), lambda z: 1.0 / z
    ).value
    v2 = integrate_contour(
        ContourPath((a2, a1), check_simple=False), lambda z: 1.0 / z
    ).value
    assert abs(v1 - v2) <= 1e-12


REFERENCE_PATHS = {
    "keyhole": lambda: build_keyhole(CONE, N=10, M=1),
    **{
        f"annulus{n}": (lambda n=n: build_annular_piece(n, CONE).reversed())
        for n in range(1, 11)
    },
    "circle": lambda: full_circle(0j, 0.5),
}


@pytest.mark.parametrize("batch", [contour._BATCH, 1])
@pytest.mark.parametrize("path_name", sorted(REFERENCE_PATHS))
def test_quadrature_matches_recursive_reference(path_name, batch, gallery, monkeypatch):
    # batch 1 refines one panel per integrand call, leftmost first
    monkeypatch.setattr(contour, "_BATCH", batch)
    # gallery[1] is a polynomial, [8] a pole, [15] a Cauchy transform
    path = REFERENCE_PATHS[path_name]()
    x = -0.1
    integrands = [np.conj] + [
        (lambda z, f=f: f(z) / (z * (z - x))) for f in (gallery[1], gallery[8], gallery[15])
    ]
    for integrand in integrands:
        res = integrate_contour(path, integrand, tol=1e-10)
        value, err, evaluations = integrate_reference(path, integrand, tol=1e-10)
        assert _bits(res.value) == _bits(value)
        assert res.error_estimate.hex() == err.hex()
        # a primitive that needs no refinement costs 45 points either way;
        # each refined panel reuses its parent's half sums
        refined = evaluations > 3 * len(_GL_NODES) * len(path.segments)
        assert res.evaluations < evaluations if refined else res.evaluations == evaluations


def test_quadrature_pole_on_path_raises_like_reference():
    path = full_circle(0j, 1.0)

    def integrand(z):
        return 1.0 / (z - 1.0)

    with pytest.raises(ToleranceError) as got:
        integrate_contour(path, integrand, tol=1e-10)
    with pytest.raises(ToleranceError) as want:
        integrate_reference(path, integrand, tol=1e-10)
    assert got.value.best is not None and got.value.error_estimate is not None
    assert _bits(got.value.best) == _bits(want.value.best)
    assert got.value.error_estimate == want.value.error_estimate


# ---------------------------------------------------------------------------
# Several paths in one level loop


def _decomposition_paths(M=1, N=10):
    """The D_M..D_N boundaries and the circle of `annular_decomposition`."""
    paths = [contour._clockwise_annular_piece(n, CONE) for n in range(M, N + 1)]
    return paths + [full_circle(0j, 2.0**-M)]


def _result_bits(res):
    return _bits(res.value), res.error_estimate.hex(), res.evaluations


def _error_bits(err):
    return str(err), _bits(err.best), err.error_estimate.hex()


@pytest.mark.parametrize("batch", [contour._BATCH, 2])
@pytest.mark.parametrize("index", [1, 8, 15])  # a polynomial, a pole, a Cauchy transform
def test_integrate_many_matches_single_paths(index, batch, gallery, monkeypatch):
    # at batch 2 every path outgrows the cap beside the others
    monkeypatch.setattr(contour, "_BATCH", batch)
    f, x = gallery[index], -0.1
    paths = _decomposition_paths()

    def integrand(z):
        return f(z) / (z * (z - x))

    many = contour._integrate_many(paths, integrand, 1e-10 / 11)
    single = [integrate_contour(path, integrand, tol=1e-10 / 11) for path in paths]
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in single]


def _decomposition_reference(f, x, M=1, N=10, tol=1e-10):
    """`annular_decomposition` from one `integrate_contour` call per term."""
    def integrand(z):
        return f(z) / (z * (z - x))

    term_tol = tol / (N - M + 2)
    values = [
        integrate_contour(path, integrand, tol=term_tol).value / (2j * math.pi)
        for path in _decomposition_paths(M, N)
    ]
    lhs = f(x) / x
    terms = list(zip(range(M, N + 1), values))
    circle = values[-1]
    return lhs, terms, circle, abs(lhs - (sum(values[:-1]) + circle))


def test_decomposition_grid_matches_single_path_reference(domain):
    for f in build_test_gallery(domain, 27):
        for x in (complex(v) for v in -np.geomspace(0.35, 0.005, 10)):
            rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)
            lhs, terms, circle, residual = _decomposition_reference(f, x)
            assert _bits(rep.lhs) == _bits(lhs) and _bits(rep.inner_circle_term) == _bits(circle)
            assert [(n, _bits(t)) for n, t in rep.annular_terms] == [
                (n, _bits(t)) for n, t in terms
            ]
            assert rep.residual.hex() == residual.hex()


def _two_poles(z):
    return 1.0 / (z - 1.0) + 2.0 / (z - 3.0)


# each circle starts its first arc on one of the poles
FAILING = {"one": full_circle(0j, 1.0), "three": full_circle(2.5, 0.5)}


def _solo_error(path):
    with pytest.raises(ToleranceError) as err:
        integrate_contour(path, _two_poles, tol=1e-10)
    return _error_bits(err.value)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_integrate_many_failure_is_that_of_the_path_alone(name):
    ok = full_circle(0j, 0.5)
    solo = _solo_error(FAILING[name])
    # the failing path outgrows the cap while the others converge at once
    for paths in ([FAILING[name]], [ok, FAILING[name], ok, ok], [ok, ok, FAILING[name]]):
        with pytest.raises(ToleranceError) as err:
            contour._integrate_many(paths, _two_poles, 1e-10)
        assert _error_bits(err.value) == solo


def test_integrate_many_raises_first_failing_path():
    ok = full_circle(0j, 0.5)
    one, three = FAILING["one"], FAILING["three"]
    assert _solo_error(one) != _solo_error(three)
    for first, second in ((one, three), (three, one)):
        with pytest.raises(ToleranceError) as err:
            contour._integrate_many([ok, first, ok, second], _two_poles, 1e-10)
        assert _error_bits(err.value) == _solo_error(first)


def test_integrate_many_wide_path_beside_small_ones():
    # one path needs more than _BATCH panels a level, the others one each
    def integrand(z):
        return 1.0 / (z - 0.999)

    wide, small = full_circle(0j, 1.0), full_circle(0j, 0.5)
    many = contour._integrate_many([small, wide, small], integrand, 1e-13)
    solo = integrate_contour(wide, integrand, tol=1e-13)
    assert _result_bits(many[1]) == _result_bits(solo)
    assert _result_bits(many[0]) == _result_bits(integrate_contour(small, integrand, tol=1e-13))
    assert solo.evaluations > 2 * len(_GL_NODES) * contour._BATCH


def test_integrate_many_caps_each_path_on_its_own():
    # two copies of a wide path take the level steps of one, at twice the size
    def sizes(paths):
        calls = []

        def integrand(z):
            calls.append(len(z))
            return 1.0 / (z - 0.999)

        contour._integrate_many(paths, integrand, 1e-13)
        return calls

    wide = full_circle(0j, 1.0)
    solo = sizes([wide])
    assert max(solo) == 2 * len(_GL_NODES) * contour._BATCH
    assert sizes([wide, wide]) == [2 * n for n in solo]


def test_builders_memoised_and_checked_once(monkeypatch):
    checks = []
    check = ContourPath._check_simple

    def counted(self, *args):
        checks.append(self)
        return check(self, *args)

    monkeypatch.setattr(ContourPath, "_check_simple", counted)
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45)  # used by no other test
    first = build_annular_piece(4, cone)
    assert build_annular_piece(4, ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45)) is first
    assert build_keyhole(cone, 6, 2) is build_keyhole(cone, 6, 2)
    assert len(checks) == 2
    short = ConeSpec(0j, math.pi, math.pi / 6, 0.1, 0.45)
    for _ in range(2):
        with pytest.raises(ContourError):
            build_annular_piece(1, short)
        with pytest.raises(ContourError):
            build_keyhole(short, N=5, M=2)


# ---------------------------------------------------------------------------
# Cauchy quotient and decomposition


def test_quotient_poly_square():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    q = quotient_via_cauchy(f, -0.1, CONE, N=8, M=1, tol=1e-10)
    assert abs(q - (-0.1)) <= 1e-8


def test_quotient_identity_function():
    f = GalleryFunction(poly_coeffs=(0, 1))
    for x in (-0.05, -0.2, -0.1 + 0.02j):
        q = quotient_via_cauchy(f, x, CONE, N=8, M=1, tol=1e-10)
        assert abs(q - 1.0) <= 1e-8


def test_quotient_ct_gallery():
    f = GalleryFunction(ct_terms=((Disk(0.5, 0.1), 1.0),))
    x = -(2.0**-4)
    q = quotient_via_cauchy(f, x, CONE, N=8, M=1, tol=1e-10)
    assert abs(q - f(x) / x) <= 1e-8


def test_quotient_default_inner_index():
    assert default_inner_index(-0.1, CONE) == max(2, math.ceil(-math.log2(0.025)))
    f = GalleryFunction(poly_coeffs=(0, 1))
    q = quotient_via_cauchy(f, -0.1, CONE, M=1, tol=1e-10)
    assert abs(q - 1.0) <= 1e-8


def test_default_inner_index_clears_singularities(domain):
    # at x = -0.35 the index from |x| alone is 4, and 2^-4 encloses the holes
    # from n = 5 on; every gallery function must still give f(x)/x
    x = -0.35
    assert default_inner_index(x, CONE) == 4
    for f in build_test_gallery(domain, 27):
        assert abs(quotient_via_cauchy(f, x, CONE, M=1) - f(x) / x) <= 1e-9
        assert annular_decomposition(f, x, CONE, M=1).residual <= 2e-10


def test_default_inner_index_rejects_disk_at_vertex():
    with pytest.raises(ContourError):
        quotient_via_cauchy(conjugate_function(), -0.1, CONE, M=1)


def test_quotient_rejects_x_outside_cone():
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(ContourError):
        quotient_via_cauchy(f, 0.1, CONE, N=8, M=1)
    with pytest.raises(ContourError):
        quotient_via_cauchy(f, -0.6, CONE, N=8, M=1)


def test_decomposition_poly():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = annular_decomposition(f, -0.1, CONE, M=2, N=5, tol=1e-10)
    assert rep.residual <= 2e-10
    assert abs(rep.lhs - (-0.1)) <= 1e-14
    assert [n for n, _ in rep.annular_terms] == [2, 3, 4, 5]


def test_decomposition_reverses_each_piece_once(monkeypatch):
    reversals = []
    reverse = ContourPath.reversed

    def counted(self):
        reversals.append(self)
        return reverse(self)

    monkeypatch.setattr(ContourPath, "reversed", counted)
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.4998, 0.45)  # used by no other test
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    annular_decomposition(f, -0.1, cone, M=2, N=5, tol=1e-10)
    again = annular_decomposition(f, -0.05, cone, M=2, N=5, tol=1e-10)
    assert len(reversals) == 4 and again.residual <= 2e-10
    path = contour._clockwise_annular_piece(3, cone)
    assert path.segments == reverse(build_annular_piece(3, cone)).segments


def test_decomposition_single_circle_reduction():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = annular_decomposition(f, -0.1, CONE, M=2, N=2, tol=1e-10)
    assert rep.residual <= 2e-10
    assert rep.annular_terms == ()


def test_decomposition_ct_gallery(domain):
    f = GalleryFunction(ct_terms=((domain.holes[2], 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10, tol=1e-10)
    assert rep.residual <= 2e-10


def test_decomposition_term_decay(domain):
    # annular terms decay toward the vertex like the 4^n-weighted contents
    f = GalleryFunction(ct_terms=((domain.holes[0], 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10, tol=1e-10)
    mags = {n: abs(t) for n, t in rep.annular_terms}
    assert mags[10] < mags[5] < mags[3]


def test_cone_kernel_inequality():
    # |x| / |z - x| <= 1/k for z outside the cone, x on the axis inside it
    for n in (3, 5, 7):
        ts = np.linspace(0.0, 1.0, 64)
        z = np.concatenate([p.point(ts) for p in build_annular_piece(n, CONE).segments])
        ri, _ = annulus_radii(n)
        x = -1.5 * ri  # on the cone axis, inside annulus n
        assert np.max(abs(x) / np.abs(z - x)) <= 1.0 / CONE.k + 1e-9
        assert np.max(1.0 / (np.abs(z) * np.abs(z - x))) <= (
            (1.0 + 1.0 / CONE.k) / ri**2 + 1e-9
        )


# ---------------------------------------------------------------------------
# Lemma checks and kernel ratios


def test_lemma_check_conjugate():
    # frozen closed forms: |integral| = 2 pi r^2, content (2r)^1.5, seminorm (2r)^0.5
    r = 0.2
    rep = lemma_cauchy_bound_check(
        conjugate_function(), full_circle(0j, r), DiskRegion(0j, r), 0.5
    )
    assert rep.integral_magnitude == pytest.approx(2 * math.pi * r * r, rel=1e-9)
    assert rep.content_upper == pytest.approx(0.4**1.5, rel=1e-12)
    assert rep.seminorm_estimate == pytest.approx(0.6324555320336759, rel=0.01)
    assert rep.kappa_hat == pytest.approx(math.pi / 2, rel=0.02)


def test_lemma_check_analytic_zero():
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    rep = lemma_cauchy_bound_check(f, full_circle(0j, 0.3), DiskRegion(0j, 0.3), 0.5)
    assert rep.integral_magnitude <= 1e-10
    assert rep.kappa_hat <= 1e-8


def test_lemma_check_scale_invariance():
    vals = []
    for r in (0.4, 0.2, 0.1):
        rep = lemma_cauchy_bound_check(
            conjugate_function(), full_circle(0j, r), DiskRegion(0j, r), 0.5
        )
        vals.append(rep.kappa_hat)
    assert max(vals) / min(vals) <= 1.05


def test_lemma_check_requires_closed_path():
    open_path = ContourPath((Segment(0, 1),), closed=False)
    with pytest.raises(ContourError):
        lemma_cauchy_bound_check(conjugate_function(), open_path, DiskRegion(0j, 1.0), 0.5)


def test_kernel_ratio_zero_function():
    f = GalleryFunction(poly_coeffs=(0,))
    assert kernel_seminorm_ratio(f, -0.25 * 2.0**-4, 4, CONE, 0.5) == 0.0


def test_kernel_ratio_two_scale_stability():
    # doubling n multiplies seminorm(g) by about 4; the normalized ratio drifts
    # only by the smooth-kernel factor, well under 4x per step
    f = GalleryFunction(poly_coeffs=(0, 1))
    r4 = kernel_seminorm_ratio(f, -0.25 * 2.0**-4, 4, CONE, 0.8, seed=5)
    r5 = kernel_seminorm_ratio(f, -0.25 * 2.0**-5, 5, CONE, 0.8, seed=5)
    assert 0.25 <= r5 / r4 <= 4.0


def test_kernel_ratio_position_precondition():
    f = GalleryFunction(poly_coeffs=(0, 1))
    with pytest.raises(ContourError):
        # far from the vertex and not inside the cone
        kernel_seminorm_ratio(f, 0.3, 4, CONE, 0.5)
