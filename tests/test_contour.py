import ast
import cmath
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointderiv import (
    ConeSpec,
    ContourError,
    Disk,
    DiskRegion,
    GalleryError,
    GalleryFunction,
    annular_decomposition,
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
from pointderiv.contour import (
    _GL_NODES,
    _GL_WEIGHTS,
    Arc,
    ContourPath,
    Segment,
    ToleranceError,
    _admissible_depth,
)
from pointderiv.geometry import Ray, annulus_minus_cone_region, annulus_radii

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


def _slice_calls(monkeypatch, batch):
    """Send every kernel call of the level loop, and every call of the f of a
    new `_FBank`, in slices of `batch` refined panels (2 * 15 points each):
    no panel sum may depend on which other panels share its call."""
    many, bank = contour._integrate_many, contour._FBank
    step = 2 * len(_GL_NODES) * batch

    def sliced(fn):
        # z, and the values of f at z where the call is the kernel's; the
        # kernel's arrays are shaped, f's flat, and both are sliced flat
        def call(*arrays):
            flat = [np.ravel(a) for a in arrays]
            parts = [fn(*(a[i : i + step] for a in flat)) for i in range(0, len(flat[0]), step)]
            return np.reshape(np.concatenate(parts), np.shape(arrays[0]))

        return call

    monkeypatch.setattr(contour, "_integrate_many", lambda plan, kernel, *args: many(plan, sliced(kernel), *args))
    monkeypatch.setattr(contour, "_FBank", lambda f, plan: bank(sliced(f), plan))


def _integrate_plan(plan, integrand, tol):
    """`_integrate_many` of `integrand` itself on `plan`, with the kernel and
    one-off f bank of `integrate_contour`."""
    return contour._integrate_many(plan, lambda z, fz: fz, tol, contour._FBank(integrand, plan))


def _many(paths, integrand, tol):
    """The results of `_integrate_many` on the paths' plan as
    `integrate_contour` gives them."""
    values, errors, evaluations = _integrate_plan(contour._plan(tuple(paths)), integrand, tol)
    return [
        contour.QuadratureResult(complex(v), float(e), int(c))
        for v, e, c in zip(values, errors, evaluations)
    ]


def _bits(z: complex) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# ---------------------------------------------------------------------------
# Paths and quadrature


def test_path_join_validation():
    with pytest.raises(ContourError):
        ContourPath((Segment(0, 1), Segment(2, 3)))
    # pieces 4e-13 apart, and a half circle of radius 2^-45 taken as closed:
    # both within an absolute 1e-12, neither within 1e-12 of its scale
    with pytest.raises(ContourError, match="do not join"):
        ContourPath((Segment(0, 1e-13), Segment(5e-13, 6e-13)), closed=False)
    with pytest.raises(ContourError, match="does not return to start"):
        ContourPath((Arc(0j, 2.0**-45, 0.0, math.pi),), closed=True)
    # pieces that meet, and the whole circle, stay paths at that scale
    ContourPath((Segment(0, 1e-13), Segment(1e-13, 6e-13)), closed=False)
    assert full_circle(0j, 2.0**-45).closed


# A sampled simplicity check on 48 points per primitive, scaled to the path's
# own smallest radius: the reference of the builder property test below.


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


def _simplicity_margin(path: ContourPath, samples: int = 48) -> float:
    """The least distance between the samples of two primitives of the path,
    over its smallest radius (least arc radius or segment length), or 0 if
    two non-adjacent primitives cross.  Primitives that share an end compare
    only their interior samples."""
    ts = np.linspace(0.0, 1.0, samples)
    pts = [p.point(ts) for p in path.segments]
    scale = min(p.radius if isinstance(p, Arc) else p.length for p in path.segments)
    n = len(pts)
    margin = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (path.closed and i == 0 and j == n - 1)
            d = np.abs(pts[i][:, None] - pts[j][None, :])
            if adjacent:
                d = d[1:-1, 1:-1]
            elif _polylines_cross(pts[i], pts[j]):
                return 0.0
            margin = min(margin, float(d.min()) / scale)
    return margin


def test_path_simplicity_check():
    # paths are not checked for simplicity when built; the reference flags a
    # crossing path and passes a keyhole
    bowtie = ContourPath(
        (Segment(0, 1 + 1j), Segment(1 + 1j, 1), Segment(1, 1j), Segment(1j, 0)),
        closed=True,
    )
    assert _simplicity_margin(bowtie) == 0.0
    assert _simplicity_margin(build_keyhole(CONE, N=5, M=2)) > 0.01


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    vertex=st.one_of(st.just(0j), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0)),
    direction=st.floats(-math.pi, math.pi),
    half_angle=st.floats(0.01, math.pi / 2, exclude_max=True),
    stretch=st.floats(1.0, 4.0),
    data=st.data(),
)
def test_builders_make_simple_paths(vertex, direction, half_angle, stretch, data):
    # every depth `_admissible_depth` allows: N <= 510 at x0 = 0, and
    # 2^-N >= 2^-25 |x0| off it
    n_max = next(N for N in range(510, 1, -1) if 2.0**-N >= 2.0**-25 * abs(vertex))
    M = data.draw(st.integers(1, n_max - 1))
    N = data.draw(st.integers(M + 1, n_max))
    cone = ConeSpec(vertex, direction, half_angle, stretch * 2.0**-M, 0.5 * math.sin(half_angle))
    paths = [build_keyhole(cone, N, M)]
    paths += [build_annular_piece(n, cone) for n in (M, N)]
    for path in paths:
        assert _simplicity_margin(path) >= 0.01


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


def test_gauss_legendre_literals_are_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_integrate_tolerance_finite(tol):
    # a NaN tolerance would accept a panel only at the rounding floor, an
    # infinite one every panel of level 0
    with pytest.raises(ContourError, match="positive and finite"):
        integrate_contour(full_circle(0j, 1.0), lambda z: z, tol=tol)
    with pytest.raises(ContourError, match="positive and finite"):
        annular_decomposition(GalleryFunction(poly_coeffs=(0, 1)), -0.1, CONE, tol=tol)


def test_quadrature_primitive_order_independent():
    a1 = Arc(0j, 1.0, 0.0, math.pi)
    a2 = Arc(0j, 1.0, math.pi, 2 * math.pi)
    v1 = integrate_contour(ContourPath((a1, a2)), lambda z: 1.0 / z).value
    v2 = integrate_contour(ContourPath((a2, a1)), lambda z: 1.0 / z).value
    assert abs(v1 - v2) <= 1e-12


REFERENCE_PATHS = {
    "keyhole": lambda: build_keyhole(CONE, N=10, M=1),
    **{
        f"annulus{n}": (lambda n=n: build_annular_piece(n, CONE).reversed())
        for n in range(1, 11)
    },
    "circle": lambda: full_circle(0j, 0.5),
}


@pytest.mark.parametrize("batch", [256, 1])
@pytest.mark.parametrize("path_name", sorted(REFERENCE_PATHS))
def test_quadrature_matches_recursive_reference(path_name, batch, gallery, monkeypatch):
    # batch 1 sends the integrand one refined panel per call
    _slice_calls(monkeypatch, batch)
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


def _level_reference_failure(path, integrand, tol, max_depth, max_panels):
    """(lo, hi, fine, err) of the panel a level-by-level run of the recursive
    rule fails on: the leftmost panel that still splits at the first level
    that is `max_depth` or whose splits would take the path past
    `max_panels` panels beyond level 0."""
    total_len = path.total_length
    stats = [0]
    panels = []  # (F, lo, hi, tol, coarse)
    for prim in path.segments:

        def F(t, prim=prim):
            return np.asarray(integrand(prim.point(t))) * prim.velocity(t)

        panels.append((F, 0.0, 1.0, tol * prim.length / total_len, _gl_reference(F, 0.0, 1.0, stats)))
    refined = 0
    for level in range(max_depth + 1):
        split = []
        for F, a, b, t, coarse in panels:
            m = 0.5 * (a + b)
            left, right = _gl_reference(F, a, m, stats), _gl_reference(F, m, b, stats)
            fine = left + right
            err = abs(fine - coarse)
            if not (err <= t or err <= 1e-16 * (1.0 + abs(fine))):
                split.append((F, a, m, b, t, fine, err, left, right))
        assert split, "the integral converges"
        if level == max_depth or refined + 2 * len(split) > max_panels:
            _, a, _, b, _, fine, err, _, _ = split[0]
            return a, b, fine, err
        refined += 2 * len(split)
        panels = [
            half
            for F, a, m, b, t, _, _, left, right in split
            for half in ((F, a, m, t / 2.0, left), (F, m, b, t / 2.0, right))
        ]


@pytest.mark.parametrize(
    "centre, max_depth, max_panels",
    [(0j, 48, 64), (2.0, 48, 64), (0j, 6, 2**15), (2.0, 6, 2**15)],
)
def test_quadrature_failure_names_leftmost_splitting_panel(centre, max_depth, max_panels, monkeypatch):
    # a pole at the start of the first arc, or at the end of it
    monkeypatch.setattr(contour, "_MAX_DEPTH", max_depth)
    monkeypatch.setattr(contour, "_MAX_PANELS", max_panels)
    path = full_circle(centre, 1.0)
    points = []

    def integrand(z):
        points.append(len(z))
        return 1.0 / (z - 1.0)

    with pytest.raises(ToleranceError) as got:
        integrate_contour(path, integrand, tol=1e-10)
    assert points[0] == 3 * len(_GL_NODES) * len(path.segments)
    assert sum(points[1:]) <= 2 * len(_GL_NODES) * max_panels
    lo, hi, best, err = _level_reference_failure(path, integrand, 1e-10, max_depth, max_panels)
    assert f"on [{lo}, {hi}]" in str(got.value)
    assert _bits(got.value.best) == _bits(best)
    assert got.value.error_estimate == err


def test_pole_at_arc_end_fails_within_budget():
    # the pole ends the first arc of the circle |z - 2| = 1; the panels near
    # it used to be refined for about 20 s before the depth limit failed them
    path = full_circle(2.0, 1.0)
    points = []

    def integrand(z):
        points.append(len(z))
        return 1.0 / (z - 1.0)

    with pytest.raises(ToleranceError, match="budget"):
        integrate_contour(path, integrand)
    assert sum(points) <= len(_GL_NODES) * (3 * len(path.segments) + 2 * contour._MAX_PANELS)


def test_nan_node_never_accepts_its_panel():
    # g is NaN at the first point of each call of it, a node of the leftmost
    # splitting panel: its err is NaN, which no tolerance or floor accepts,
    # so the panel splits down to the depth limit
    def integrand(z):
        out = np.ones_like(z)
        out[0] = np.nan
        return out

    with pytest.raises(ToleranceError, match=r"stalled at the depth limit on \[0\.0, .*\] \(err nan > tol") as got:
        integrate_contour(full_circle(0j, 1.0), integrand)
    assert math.isnan(got.value.error_estimate) and cmath.isnan(got.value.best)


def test_infinite_integrand_splits_every_panel():
    # inf - inf is NaN in every panel's err, so every panel splits until the
    # path's panels pass its budget
    with np.errstate(invalid="ignore"), pytest.raises(ToleranceError) as got:
        integrate_contour(full_circle(0j, 1.0), lambda z: np.full_like(z, np.inf))
    assert "stalled at the budget of 32768 panels on [0.0, 0.0001220703125] (err nan > tol" in str(got.value)
    assert math.isnan(got.value.error_estimate)


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(side=st.sampled_from([1.0, -1.0]), log_offset=st.floats(-12.0, -2.0))
@example(side=-1.0, log_offset=-2.0)  # certifies
def test_pole_near_decomposition_circle_certifies_or_fails_within_budget(side, log_offset):
    # a pole a relative 10^log_offset inside or outside the circle |z| = 2^-2,
    # in the hole (centre 0.25, radius 0.075) of a valid explicit config
    f = GalleryFunction(rational_terms=((0.25 * (1.0 + side * 10.0**log_offset), 1.0),))
    x = complex(-0.75 * 0.25 * 0.25)
    plan = contour._decomposition_contours(CONE, 1, 10)
    refined = np.zeros(len(plan.evaluations), int)  # panels beyond level 0, per path
    level_nodes = contour._level_nodes

    def counted(table, idx, k, level):
        refined[:] += np.bincount(plan.path_of[idx], minlength=len(refined))
        return level_nodes(table, idx, k, level)

    with pytest.MonkeyPatch.context() as mp:
        # without the bank every level computes its nodes here, bit for bit
        mp.setattr(contour, "_BANK_DEPTH", 0)
        mp.setattr(contour, "_level_nodes", counted)
        try:
            rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)
        except (ContourError, ToleranceError):
            pass
        else:
            assert rep.residual <= 2e-10
    assert refined.max() <= contour._MAX_PANELS


# ---------------------------------------------------------------------------
# Several paths in one level loop


def _decomposition_paths(M=1, N=10):
    """The D_M..D_N boundaries and the circle of `annular_decomposition`."""
    paths = [build_annular_piece(n, CONE).reversed() for n in range(M, N + 1)]
    return paths + [full_circle(0j, 2.0**-M)]


def _result_bits(res):
    return _bits(res.value), res.error_estimate.hex(), res.evaluations


def _error_bits(err):
    return str(err), _bits(err.best), err.error_estimate.hex()


@pytest.mark.parametrize("batch", [256, 2])
@pytest.mark.parametrize("index", [1, 8, 15])  # a polynomial, a pole, a Cauchy transform
def test_integrate_many_matches_single_paths(index, batch, gallery, monkeypatch):
    # at batch 2 the paths of one level share no integrand call
    _slice_calls(monkeypatch, batch)
    f, x = gallery[index], -0.1
    paths = _decomposition_paths()

    def integrand(z):
        return f(z) / (z * (z - x))

    many = _many(paths, integrand, 1e-10 / 11)
    single = [integrate_contour(path, integrand, tol=1e-10 / 11) for path in paths]
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in single]


def _cauchy_integral(path, f, x, tol):
    """The integral of f.quotient(z) / (z - x) along the path alone, with
    the Cauchy kernel and a one-off bank of the quotient."""
    plan = contour._plan((path,))
    bank = contour._FBank(f.quotient, plan)
    values, _, _ = contour._integrate_many(plan, contour._cauchy_kernel(x), tol, bank)
    return complex(values[0])


def _decomposition_reference(f, x, M=1, N=10, tol=1e-10):
    """`annular_decomposition` from one Cauchy integral per term."""
    term_tol = tol / (N - M + 2)
    values = [
        _cauchy_integral(path, f, x, term_tol) / (2j * math.pi)
        for path in _decomposition_paths(M, N)
    ]
    lhs = f.quotient(x)
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
    # the failing path spends its budget while the others converge at once
    for paths in ([FAILING[name]], [ok, FAILING[name], ok, ok], [ok, ok, FAILING[name]]):
        with pytest.raises(ToleranceError) as err:
            _many(paths, _two_poles, 1e-10)
        assert _error_bits(err.value) == solo


def test_integrate_many_raises_first_failing_path():
    ok = full_circle(0j, 0.5)
    one, three = FAILING["one"], FAILING["three"]
    assert _solo_error(one) != _solo_error(three)
    for first, second in ((one, three), (three, one)):
        with pytest.raises(ToleranceError) as err:
            _many([ok, first, ok, second], _two_poles, 1e-10)
        assert _error_bits(err.value) == _solo_error(first)


def test_integrate_many_raises_first_failing_path_whatever_its_limit():
    # at tol 1e-16 the circle |z| = 0.5 stops on the rounding floor, while
    # the circles through a pole spend their budget
    floor, one, three = full_circle(0j, 0.5), FAILING["one"], FAILING["three"]

    def error(paths):
        with pytest.raises(ToleranceError) as err:
            _many(paths, _two_poles, 1e-16)
        return _error_bits(err.value)

    assert "rounding floor" in error([floor])[0] and "budget" in error([one])[0]
    for paths in ([floor, one], [one, floor], [three, floor, one], [floor, floor, three]):
        assert error(paths) == error(paths[:1])


def test_integrate_many_wide_path_beside_small_ones():
    # one path needs hundreds of panels a level, the others one each
    def integrand(z):
        return 1.0 / (z - 0.999)

    wide, small = full_circle(0j, 1.0), full_circle(0j, 0.5)
    many = _many([small, wide, small], integrand, 1e-13)
    solo = integrate_contour(wide, integrand, tol=1e-13)
    assert _result_bits(many[1]) == _result_bits(solo)
    assert _result_bits(many[0]) == _result_bits(integrate_contour(small, integrand, tol=1e-13))


def test_integrate_many_caps_each_path_on_its_own():
    # two copies of a wide path take the level steps of one, at twice the size
    def sizes(paths):
        calls = []

        def integrand(z):
            calls.append(len(z))
            return 1.0 / (z - 0.999)

        _many(paths, integrand, 1e-13)
        return calls

    wide = full_circle(0j, 1.0)
    solo = sizes([wide])
    assert sizes([wide, wide]) == [2 * n for n in solo]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    order=st.lists(st.integers(0, 10), min_size=1, max_size=11, unique=True),
    index=st.integers(0, 19),
    t=st.floats(0.005, 0.35),
)
def test_integrate_many_any_path_subset_matches_single_paths(order, index, t, gallery):
    # any subset of the decomposition paths, in any order, with any gallery
    # function and ray point gives each path's own result
    paths = [_decomposition_paths()[i] for i in order]
    f, x = gallery[index], complex(-t)

    def integrand(z):
        return f(z) / (z * (z - x))

    many = _many(paths, integrand, 1e-10 / 11)
    single = [integrate_contour(path, integrand, tol=1e-10 / 11) for path in paths]
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in single]


def _report_bits(rep):
    return (
        _bits(rep.lhs),
        [(n, _bits(t)) for n, t in rep.annular_terms],
        _bits(rep.inner_circle_term),
        rep.residual.hex(),
        rep.evaluations,
        rep.err_to_tol.hex(),
    )


def test_plan_reuse_leaves_results_unchanged(gallery):
    # a plan hit, including its cached level-0 evaluation counts, gives what
    # a plan built afresh for every call gives
    cases = [(gallery[i], x) for i in (1, 8, 15) for x in (-0.3, -0.02)]
    hits = [annular_decomposition(f, x, CONE, M=1, N=10) for f, x in cases]
    assert [_report_bits(r) for r in hits] == [
        _report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases
    ]
    fresh = []
    for f, x in cases:
        contour._plan.cache_clear()
        contour._decomposition_contours.cache_clear()
        fresh.append(annular_decomposition(f, x, CONE, M=1, N=10))
    assert [_report_bits(r) for r in hits] == [_report_bits(r) for r in fresh]


def test_plan_arrays_are_read_only():
    plan = contour._plan(tuple(_decomposition_paths()))
    arrays = [plan.path_of, plan.shares, *plan.table, *plan.nodes, plan.evaluations]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_decomposition_contours_looked_up_once_per_call(monkeypatch):
    # one memoised (cone, M, N) lookup gives the plan of the paths
    plan = contour._decomposition_contours(CONE, 1, 10)
    assert plan is contour._plan(tuple(_decomposition_paths()))
    assert contour._decomposition_contours(CONE, 1, 10) is plan
    calls = []
    monkeypatch.setattr(contour, "_plan", lambda paths: calls.append(paths))
    annular_decomposition(GalleryFunction(poly_coeffs=(0, 0, 1)), -0.1, CONE, M=1, N=10)
    assert calls == []


# ---------------------------------------------------------------------------
# The values of f on the level-0 nodes and the bank rows, kept per (f, plan)

GRID_XS = [complex(v) for v in -np.geomspace(0.35, 0.005, 10)]  # acceptance 1 and 2
# a pole just outside the circle 2^-2 refines past the bank's depth
NEAR = GalleryFunction(rational_terms=((0.26, 0.01),))


def test_level0_memo_leaves_results_unchanged(gallery):
    cases = [(gallery[i], x) for i in (1, 8, 15, 19) for x in GRID_XS[::3]]
    for f, x in cases:
        annular_decomposition(f, x, CONE, M=1, N=10)
    warm = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    cold = []
    for f, x in cases:
        contour._f_bank.cache_clear()
        cold.append(_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)))
    assert cold == warm


def test_level0_points_evaluated_once_per_function_and_plan(gallery, monkeypatch):
    plan = contour._decomposition_contours(CONE, 1, 10)
    z0 = plan.nodes[0].ravel()
    assert len(z0) == 1890  # 42 primitives, 3 panels of 15 points each
    contour._f_bank.cache_clear()
    levels = _spy_levels(monkeypatch)
    rows = []
    banked = contour._banked_nodes

    def spy_rows(plan, row, *args):
        rows.append(row)
        return banked(plan, row, *args)

    monkeypatch.setattr(contour, "_banked_nodes", spy_rows)
    calls = []
    call = GalleryFunction.quotient

    def spy(self, z):
        calls.append(np.array(z))
        return call(self, z)

    monkeypatch.setattr(GalleryFunction, "quotient", spy)
    for f in (gallery[15], NEAR):
        deep = []  # points of the levels beyond the bank, per pass
        for _ in range(2):
            for log in (calls, levels, rows):
                log.clear()
            for x in GRID_XS:
                annular_decomposition(f, x, CONE, M=1, N=10)
            arrays = [z for z in calls if z.ndim]
            # f's quotient sees x once per call
            assert len(calls) - len(arrays) == len(GRID_XS)
            deep.append(sum(2 * len(_GL_NODES) * len(d) for from_bank, d in levels if not from_bank))
            if len(deep) == 1:
                # level 0 once, each banked row the grid visits once, and the deeper levels
                assert sum(z.shape == z0.shape and (z == z0).all() for z in arrays) == 1
                visited = len(np.unique(np.concatenate(rows)))
                assert len(np.concatenate(rows)) > visited
                assert sum(z.size for z in arrays) == len(z0) + 2 * len(_GL_NODES) * visited + deep[0]
            else:
                # a second pass: only the deeper levels
                assert sum(z.size for z in arrays) == deep[1]
        assert deep[0] == deep[1]
    assert deep[0] > 0  # NEAR refines past the bank
    contour._f_bank.cache_clear()  # no later test sees the spy


def test_level0_memo_is_read_only_and_small(domain):
    # the benchmark's grid: 27 functions, 10 ray points each
    contour._f_bank.cache_clear()
    gallery = build_test_gallery(domain, 27)
    for f in gallery:
        for x in GRID_XS:
            annular_decomposition(f, x, CONE, M=1, N=10)
    info = contour._f_bank.cache_info()
    assert info.misses == len(gallery) and info.hits == len(gallery) * (len(GRID_XS) - 1)
    plan = contour._decomposition_contours(CONE, 1, 10)
    banks = [contour._f_bank(f, plan) for f in gallery]
    for bank in banks:
        with pytest.raises(ValueError):
            bank.level0[...] = 0
        # only the visited rows are stored, each in a slot of its own
        (rows,), slot = bank.rows.arrays, bank.rows.slot
        assert (np.sort(slot[slot >= 0]) == np.arange(len(rows))).all()
    assert sum(b.level0.nbytes + b.rows.slot.nbytes + b.rows.arrays[0].nbytes for b in banks) <= 2.5e6


def test_f_bank_cold_and_warm_bits(domain, monkeypatch):
    # cold: a new bank for every call; warm: a bank filled by the other
    # points of the ray, in either order
    def reports(cases, cold):
        out = []
        for f, x in cases:
            if cold:
                contour._f_bank.cache_clear()
            out.append(_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)))
        return out

    grid = [(f, x) for f in build_test_gallery(domain, 27) for x in GRID_XS]
    levels = _spy_levels(monkeypatch)
    deep = [(NEAR, x) for x in (-0.3, -0.1, -0.02, -0.006)]
    for cases in (grid, deep):
        cold = reports(cases, True)
        contour._f_bank.cache_clear()
        assert reports(cases, False) == cold
        contour._f_bank.cache_clear()
        assert reports(cases[::-1], False)[::-1] == cold
        assert reports(cases, False) == cold
    assert max(d[0] for _, d in levels) >= contour._BANK_DEPTH


def test_warm_grid_reads_only_the_banks(domain, monkeypatch):
    # a row enters an f bank only after its plan's bank holds its nodes, so a
    # level whose rows the f bank holds gathers z and w from the two banks:
    # a second pass over the grid computes no node and no weighted value
    gallery = build_test_gallery(domain, 27)
    grid = [(f, x) for f in gallery for x in GRID_XS]
    deep = [(NEAR, x) for x in (-0.3, -0.1, -0.02, -0.006)]
    for f, x in grid + deep:
        annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)
    plan = contour._decomposition_contours(CONE, 1, 10)
    for f in gallery + [NEAR]:
        held = contour._f_bank(f, plan).rows.slot >= 0
        assert held.any() and (plan.bank.slot[held] >= 0).all(), f.label
    calls, points = [], []

    def spy(name):
        fn = getattr(contour, name)

        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for name in ("_banked_nodes", "_level_nodes", "_weighted"):
        monkeypatch.setattr(contour, name, spy(name))
    quotient = GalleryFunction.quotient

    def spy_quotient(self, z):
        points.append(np.ndim(z))
        return quotient(self, z)

    monkeypatch.setattr(GalleryFunction, "quotient", spy_quotient)
    bits = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)) for f, x in grid]
    # f's quotient runs once per decomposition, at x for the left-hand side
    assert not calls and points == [0] * len(grid)
    # NEAR refines past the bank, where each level computes its nodes
    bits += [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)) for f, x in deep]
    assert "_level_nodes" in calls and "_banked_nodes" not in calls
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == GRID_REPORTS_SHA256


# SHA-256 of `_report_bits` over the benchmark's grid (27 functions, 10 ray
# points, tol 1e-10) and NEAR at four points, which refines past the bank;
# written by the release whose Cauchy kernel is w / (z - x) over a bank of
# the weighted quotient
GRID_REPORTS_SHA256 = "5ff3fefca85f3899cc94938dc9c1c06e0b62295fa6c1835e0dff8f497f299925"


def test_decomposition_grid_report_bits_pinned(domain):
    cases = [(f, x) for f in build_test_gallery(domain, 27) for x in GRID_XS]
    cases += [(NEAR, x) for x in (-0.3, -0.1, -0.02, -0.006)]
    bits = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-10)) for f, x in cases]
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == GRID_REPORTS_SHA256


@pytest.mark.parametrize(
    "tol, raised", [(1e-10, 0), (1e-13, 0), (1e-14, 128), (1e-15, 228), (1e-16, 268)]
)
def test_decomposition_grid_success_meets_its_tolerance(domain, tol, raised):
    # below about 1e-13 panels stop on the rounding floor 1e-16 (1 + |fine|),
    # and a path whose summed estimate then exceeds its tolerance fails
    # instead of returning err_to_tol up to 327
    failures = 0
    for f in build_test_gallery(domain, 27):
        for x in GRID_XS:
            try:
                rep = annular_decomposition(f, x, CONE, M=1, N=10, tol=tol)
            except ToleranceError as err:
                assert "rounding floor" in str(err) and err.error_estimate > tol / 11
                failures += 1
            else:
                assert rep.err_to_tol <= 1.0
    assert failures == raised


def test_decomposition_certifies_the_gallery_deep_in_the_cone(domain):
    # at |x| = 0.75 * 2^-40 the kernel f(z) / ((z - x0)(z - x)) missed its
    # tolerance for 21 of these functions; q(z) / (z - x) certifies them all
    x, tol = -0.75 * 2.0**-40, 1e-10
    for f in build_test_gallery(domain, 27):
        rep = annular_decomposition(f, x, CONE, M=1, tol=tol)
        assert rep.residual <= 2 * tol and rep.err_to_tol <= 1.0, f.label
        assert len(rep.annular_terms) == 43  # the default N is 43


def test_library_quadrature_fails_at_the_rounding_floor(domain):
    # the README's `decompose` point, its lemma check and one contour integral
    x = Ray(0j, math.pi, 0.25).point(0.75 * 0.25 * 2.0**-2)
    f = build_test_gallery(domain, 6)[0]
    assert annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-13).err_to_tol <= 1.0
    with pytest.raises(ToleranceError, match="rounding floor"):
        annular_decomposition(f, x, CONE, M=1, N=10, tol=1e-14)
    setup = conjugate_function(), full_circle(0j, 0.4), DiskRegion(0j, 0.4), 0.5
    assert lemma_cauchy_bound_check(*setup, tol=1e-16).err_to_tol <= 1.0
    with pytest.raises(ToleranceError, match="rounding floor"):
        lemma_cauchy_bound_check(*setup, tol=1e-17)
    with pytest.raises(ToleranceError, match="rounding floor") as err:
        integrate_contour(full_circle(0j, 0.5), _two_poles, tol=1e-16)
    # the poles lie outside the circle: the best value is 0 to rounding
    assert err.value.error_estimate > 1e-16 and abs(err.value.best) <= 1e-14


def test_f_bank_fill_that_raises_marks_no_row(monkeypatch):
    x = -0.1
    contour._f_bank.cache_clear()
    want = _report_bits(annular_decomposition(NEAR, x, CONE, M=1, N=10))
    contour._f_bank.cache_clear()
    call = GalleryFunction.quotient
    sizes = []  # points of each array call that returned
    fail = [True]  # the bank keeps the method it was made with

    def failing(self, z):
        if fail[0] and np.ndim(z) and len(sizes) == 2:  # the fill of level 2
            raise RuntimeError("f failed")
        out = call(self, z)
        if np.ndim(z):
            sizes.append(np.size(z))
        return out

    monkeypatch.setattr(GalleryFunction, "quotient", failing)
    with pytest.raises(RuntimeError, match="f failed"):
        annular_decomposition(NEAR, x, CONE, M=1, N=10)
    bank = contour._f_bank(NEAR, contour._decomposition_contours(CONE, 1, 10))
    assert sizes[0] == len(bank.level0) == 1890
    # the rows of level 1 are kept, and no row of level 2 is marked
    held = np.count_nonzero(bank.rows.slot >= 0)
    assert held == len(bank.rows.arrays[0]) == sizes[1] // (2 * len(_GL_NODES))
    fail[0] = False
    assert _report_bits(annular_decomposition(NEAR, x, CONE, M=1, N=10)) == want
    contour._f_bank.cache_clear()  # no later test sees the spy


def test_paths_together_past_the_budget_each_within_it(monkeypatch):
    # a pole just outside the circle 2^-2 refines the D_1 and D_2 boundaries
    f, x = GalleryFunction(rational_terms=((0.26, 0.01),)), -0.1
    paths = _decomposition_paths()

    def integrand(z):
        return f(z) / (z * (z - x))

    tol = 1e-10 / len(paths)
    single = [integrate_contour(path, integrand, tol=tol) for path in paths]
    refined = [(r.evaluations - 45 * len(p.segments)) // 30 for r, p in zip(single, paths)]
    report = _report_bits(annular_decomposition(f, x, CONE, M=1, N=10))
    budget = max(refined)
    assert sum(refined) > budget
    monkeypatch.setattr(contour, "_MAX_PANELS", budget)
    assert [_result_bits(r) for r in _many(paths, integrand, tol)] == [
        _result_bits(r) for r in single
    ]
    assert _report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) == report
    # one panel fewer and the widest path fails on its own budget
    monkeypatch.setattr(contour, "_MAX_PANELS", budget - 1)
    with pytest.raises(ToleranceError, match="budget"):
        _many(paths, integrand, tol)


def test_path_total_starts_from_zero(monkeypatch):
    # numpy's panel sums are never -0.0, but the totals must not rest on it:
    # with every primitive's sum -0.0 - 0.0j, a Python sum from 0j gives 0j
    def panel_sums(values):
        return np.full(values.shape[:-1], complex(-0.0, -0.0))

    monkeypatch.setattr(contour, "_panel_sums", panel_sums)
    paths = [full_circle(0j, 1.0), build_keyhole(CONE, N=10, M=1)]  # 2 and 4 primitives
    totals = []
    for path in paths:
        total = 0j
        for _ in path.segments:
            total += complex(-0.0, -0.0)
        totals.append(total)
    assert [_bits(r.value) for r in _many(paths, lambda z: z, 1e-10)] == [_bits(t) for t in totals]
    assert _bits(integrate_contour(paths[0], lambda z: z).value) == _bits(totals[0])


# ---------------------------------------------------------------------------
# The bank of shallow panel nodes


def _spy_levels(monkeypatch):
    """Record the depths of the panels whose halves each level evaluates:
    [(from the bank?, depths)]."""
    levels, in_bank = [], []
    banked, nodes = contour._banked_nodes, contour._panel_nodes

    def spy_bank(plan, row, idx, k, level):
        levels.append((True, [level] * len(idx)))
        in_bank.append(True)
        try:
            return banked(plan, row, idx, k, level)
        finally:
            in_bank.pop()

    def spy_nodes(table, idx, lo, hi):
        if lo.shape[-1] == 2 and not in_bank:  # a level of the loop, not level 0
            depths = np.round(-np.log2(lo[:, 1] - lo[:, 0])).astype(int) - 1
            levels.append((False, depths.tolist()))
        return nodes(table, idx, lo, hi)

    monkeypatch.setattr(contour, "_banked_nodes", spy_bank)
    monkeypatch.setattr(contour, "_panel_nodes", spy_nodes)
    return levels


def _check_levels(levels):
    # each level is one depth, and some refinement goes deeper than the bank
    assert [depths[0] for _, depths in levels] == list(range(1, len(levels) + 1))
    assert all(len(set(depths)) == 1 for _, depths in levels)
    assert len(levels) >= contour._BANK_DEPTH
    assert all(depths[0] < contour._BANK_DEPTH for from_bank, depths in levels if from_bank)


def _panel_of_row(row):
    """(primitive, level, k) of the panel [k, k + 1] 2^-level whose halves
    bank row `row` holds."""
    i, h = divmod(row, contour._BANK_ROWS)
    level = (h + 2).bit_length() - 1
    return i, level, h + 2 - 2**level


def _bank_bits(nodes):
    return [a.tobytes() for a in nodes]


def _many_on(plan, integrand):
    values, errors, evaluations = _integrate_plan(plan, integrand, 1e-10 / 11)
    return [a.tobytes() for a in (values, errors, evaluations)]


BANK_PLANS = {
    "decomposition": lambda: tuple(_decomposition_paths()),
    "keyhole": lambda: (build_keyhole(CONE, N=10, M=1),),
}


@pytest.mark.parametrize("name", sorted(BANK_PLANS))
def test_bank_rows_are_panel_nodes(name, monkeypatch):
    paths = BANK_PLANS[name]()
    plan = contour._plan.__wrapped__(paths)  # built afresh, with an empty bank
    bank = plan.bank
    assert (bank.slot == -1).all() and all(len(a) == 0 for a in bank.arrays)
    levels = _spy_levels(monkeypatch)

    def integrand(z):
        # poles just off the circles 2^-2 and 2^-1 and the small circle 2^-10
        return 1.0 / (z - 0.26) + 1.0 / (z + 0.52) + 1.0 / (z - 0.00101)

    _integrate_plan(plan, integrand, 1e-10)
    _check_levels(levels)
    held = np.count_nonzero(bank.slot >= 0)
    assert 0 < held == len(bank.arrays[0]) < len(bank.slot)
    # the level loop's rows, and the rest filled by one call per level
    rows = np.arange(len(bank.slot))
    panels = np.array([_panel_of_row(int(r)) for r in rows])
    for level in range(1, contour._BANK_DEPTH):
        at = panels[:, 1] == level
        z, vel, half = contour._banked_nodes(plan, rows[at], panels[at, 0], panels[at, 2], level)
        assert half == 2.0 ** -(level + 2)
        stored = [a[bank.slot[rows[at]]] for a in bank.arrays]
        assert _bank_bits((z, vel)) == _bank_bits(stored)
    # every row held once, at exact size
    assert (np.sort(bank.slot) == rows).all() and len(bank.arrays[0]) == len(rows)
    for r, (i, level, k) in zip(rows, panels.tolist()):
        lo, hi = k / 2**level, (k + 1) / 2**level
        mid = 0.5 * (lo + hi)
        want = contour._panel_nodes(plan.table, np.array([i]), np.array([[lo, mid]]), np.array([[mid, hi]]))
        assert _bank_bits(a[bank.slot[r]] for a in bank.arrays) == _bank_bits(a[0] for a in want[:2])
        assert (want[2][0] == 2.0 ** -(level + 2)).all()


@pytest.mark.parametrize("batch", [256, 2])
def test_decomposition_bits_without_bank(batch, gallery, monkeypatch):
    _slice_calls(monkeypatch, batch)
    # a pole just outside the circle 2^-2 refines past the bank's depth
    near = GalleryFunction(rational_terms=((0.26, 0.01),))
    cases = [
        (f, x)
        for f in (gallery[1], gallery[8], gallery[15], gallery[19], near)
        for x in (-0.3, -0.1, -0.02, -0.006)
    ]
    levels = _spy_levels(monkeypatch)
    banked = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    assert max(depths[0] for _, depths in levels) >= contour._BANK_DEPTH
    assert all(depths[0] < contour._BANK_DEPTH for from_bank, depths in levels if from_bank)
    monkeypatch.setattr(contour, "_BANK_DEPTH", 0)  # every level computes its nodes
    levels.clear()
    bypassed = [_report_bits(annular_decomposition(f, x, CONE, M=1, N=10)) for f, x in cases]
    assert levels and not any(b for b, _ in levels)
    assert bypassed == banked


def test_decomposition_bank_memory_bound(domain, monkeypatch):
    # at N = 10 and N = 100 a plan's node bank holds exactly the rows its
    # loops asked for, in no more bytes than those rows and the slot map
    asked = []
    banked = contour._banked_nodes

    def spy(plan, row, *args):
        asked.append(row)
        return banked(plan, row, *args)

    monkeypatch.setattr(contour, "_banked_nodes", spy)
    gallery = build_test_gallery(domain, 27)
    for N in (10, 100):
        paths = [build_annular_piece(n, CONE).reversed() for n in range(1, N + 1)]
        fresh = contour._plan.__wrapped__((*paths, full_circle(0j, 0.5)))
        _integrate_plan(fresh, lambda z: 0.0 * z, 1e-10)
        assert (fresh.bank.slot == -1).all()  # no panel was refined, no row held
        for cache in (contour._plan, contour._decomposition_contours, contour._f_bank):
            cache.cache_clear()
        asked.clear()
        for f in gallery:
            for x in GRID_XS:
                annular_decomposition(f, x, CONE, M=1, N=N)
        bank = contour._decomposition_contours(CONE, 1, N).bank
        visited = np.unique(np.concatenate(asked))
        assert (np.flatnonzero(bank.slot >= 0) == visited).all()
        row_bytes = 2 * 2 * len(_GL_NODES) * 16  # z and velocities of two halves
        assert sum(a.nbytes for a in bank.arrays) == len(visited) * row_bytes
        # about 0.18 MB at N = 10 and 0.22 MB at N = 100
        assert sum(a.nbytes for a in bank.arrays) + bank.slot.nbytes <= 0.25e6, N


def test_node_bank_fill_that_raises_marks_no_row(monkeypatch):
    plan = contour._plan.__wrapped__(tuple(_decomposition_paths()))
    f, x = NEAR, -0.1

    def integrand(z):
        return f(z) / (z * (z - x))

    want = _many_on(contour._plan.__wrapped__(tuple(_decomposition_paths())), integrand)
    level_nodes = contour._level_nodes
    before = []

    def failing(table, idx, k, level):
        if level == 2:
            before.append((plan.bank.slot.copy(), [a.copy() for a in plan.bank.arrays]))
            raise RuntimeError("nodes failed")
        return level_nodes(table, idx, k, level)

    monkeypatch.setattr(contour, "_level_nodes", failing)
    with pytest.raises(RuntimeError, match="nodes failed"):
        _many_on(plan, integrand)
    [(slot, arrays)] = before
    assert np.count_nonzero(slot >= 0) > 0  # the rows of level 1 are kept
    assert (plan.bank.slot == slot).all()
    assert _bank_bits(plan.bank.arrays) == _bank_bits(arrays)
    monkeypatch.setattr(contour, "_level_nodes", level_nodes)
    assert _many_on(plan, integrand) == want


def test_equal_paths_share_plan_and_results():
    # rebuilt, or made by hand: equal but not identical paths, and the plan
    # cache compares paths by value
    rebuilt = full_circle(0j, 0.5)
    fresh = ContourPath(
        (Arc(0j, 0.5, 0.0, math.pi), Arc(0j, 0.5, math.pi, 2.0 * math.pi)),
        closed=True,
    )
    assert fresh == rebuilt == full_circle(0j, 0.5)
    assert fresh is not rebuilt and rebuilt is not full_circle(0j, 0.5)
    assert contour._plan((fresh,)) is contour._plan((rebuilt,)) is contour._plan((full_circle(0j, 0.5),))

    def integrand(z):
        return np.exp(z) / (z - 0.1)

    want = integrate_contour(full_circle(0j, 0.5), integrand)
    assert _result_bits(integrate_contour(fresh, integrand)) == _result_bits(want)
    contour._plan.cache_clear()
    assert _result_bits(integrate_contour(fresh, integrand)) == _result_bits(want)


def test_builders_share_plans_and_check_every_build(monkeypatch):
    # every build constructs its path and checks its joins; equal builds
    # share one plan, and a bad build raises on every call
    built = []
    post_init = ContourPath.__post_init__

    def counted(self):
        built.append(self)
        return post_init(self)

    monkeypatch.setattr(ContourPath, "__post_init__", counted)
    cone = ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45)  # used by no other test
    pieces = build_annular_piece(4, cone), build_annular_piece(4, ConeSpec(0j, math.pi, math.pi / 6, 0.4999, 0.45))
    keyholes = build_keyhole(cone, 6, 2), build_keyhole(cone, 6, 2)
    assert len(built) == 4
    for a, b in (pieces, keyholes):
        assert a == b and a is not b
        assert contour._plan((a,)) is contour._plan((b,))
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
    f = GalleryFunction(poly_coeffs=(0, 1))
    assert _admissible_depth(f, -0.1, CONE, 1, None, split=False) == max(2, math.ceil(-math.log2(0.025)))
    q = quotient_via_cauchy(f, -0.1, CONE, M=1, tol=1e-10)
    assert abs(q - 1.0) <= 1e-8


def test_default_inner_index_clears_singularities(domain):
    # at x = -0.35 the index from |x| alone is 4, and 2^-4 encloses the holes
    # from n = 5 on; every gallery function must still give f(x)/x
    x = -0.35
    assert _admissible_depth(GalleryFunction(poly_coeffs=(0, 1)), x, CONE, 1, None, split=False) == 4
    for f in build_test_gallery(domain, 27):
        assert abs(quotient_via_cauchy(f, x, CONE, M=1) - f(x) / x) <= 1e-9
        assert annular_decomposition(f, x, CONE, M=1).residual <= 2e-10


def test_default_inner_index_rejects_disk_at_vertex():
    with pytest.raises(ContourError):
        quotient_via_cauchy(conjugate_function(), -0.1, CONE, M=1)


def test_contour_depth_past_float64_rejected(monkeypatch):
    # x on the vertex, and N given or derived past 510, fail before any integral
    monkeypatch.setattr(contour, "_integrate_many", lambda *a: pytest.fail("integrated"))
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    for run in (quotient_via_cauchy, annular_decomposition):
        with pytest.raises(ContourError, match="cone vertex"):
            run(f, 0j, CONE)
        with pytest.raises(ContourError, match="N = 511 exceeds 510"):
            run(f, -0.1, CONE, N=511)
        with pytest.raises(ContourError, match="N = 1005 exceeds 510"):
            run(f, complex(-0.75 * 0.25 * 2.0**-1000), CONE)


def test_off_origin_contour_depth_rejected(monkeypatch):
    # at |x0| = 0.5 the circle 2^-N keeps 27 bits of z - x0 down to N = 26;
    # deeper, each run fails before any integral
    cone = ConeSpec(0.5 + 0j, math.pi, math.pi / 6, 0.5, 0.45)
    f = GalleryFunction(poly_coeffs=(0, 0, 1), base_point=0.5)
    assert _admissible_depth(f, 0.25, cone, 1, 26, split=True) == 26
    assert _admissible_depth(GalleryFunction(poly_coeffs=(0, 0, 1)), -0.1, CONE, 1, 510, split=True) == 510
    monkeypatch.setattr(contour, "_integrate_many", lambda *a: pytest.fail("integrated"))
    for run in (quotient_via_cauchy, annular_decomposition):
        for N in (27, 30):
            with pytest.raises(ContourError, match=rf"N = {N} exceeds 25 - log2 \|x0\| = 26 at \|x0\| = 0.5"):
                run(f, 0.25, cone, N=N, M=2)


def test_keyholes_at_every_depth_from_M_1():
    # at x0 = 0 every depth up to the cap builds, with the circle 2^-N intact
    for N in range(2, 511):
        path = build_keyhole(CONE, N, 1)
        assert path.segments[2].radius == 2.0**-N
    f = GalleryFunction(poly_coeffs=(0, 0, 1))
    for x in (-0.75 * 2.0**-28, -0.75 * 2.0**-29):
        assert abs(quotient_via_cauchy(f, x, CONE) - f(x) / x) <= 2e-10


def test_cauchy_quotients_require_the_base_point():
    f = GalleryFunction(poly_coeffs=(0, 1), base_point=0.1j)
    for run in (quotient_via_cauchy, annular_decomposition):
        with pytest.raises(GalleryError, match="base point 0.1j is not x0 = 0j"):
            run(f, -0.1, CONE, N=8)


def _scopes_where(match) -> list[tuple[str, ...]]:
    """(module, enclosing function and class names) of each node of the
    package's source for which `match(node)` holds, in source order."""
    scopes = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            if match(child):
                scopes.append((module, *scope))
            visit(child, module, scope)

    src = Path(__file__).resolve().parent.parent / "src" / "pointderiv"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return scopes


def test_only_the_builders_construct_paths():
    # a path is simple because only these make one; a new `ContourPath(` call
    # would need its own argument why its path is simple
    allowed = {("build_keyhole",), ("build_annular_piece",), ("full_circle",), ("ContourPath", "reversed")}

    def makes_path(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ContourPath"

    assert set(_scopes_where(makes_path)) == {("contour", *a) for a in allowed}


def test_cauchy_kernel_written_once():
    # a division by a difference of two values, as in w / (z - x) or
    # (f(x) - f(x0)) / (x - x0), or by a product with one, is the Cauchy
    # kernel or a difference quotient: only `_cauchy_kernel` divides by z - x,
    # and only the one term sum `GalleryFunction._terms` writes the quotient out
    def is_difference(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and not any(isinstance(side, ast.Constant) for side in (node.left, node.right))
        )

    def divides_by_a_difference(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            return False
        d = node.right
        factors = (d.left, d.right) if isinstance(d, ast.BinOp) and isinstance(d.op, ast.Mult) else (d,)
        return any(map(is_difference, factors))

    scopes = _scopes_where(divides_by_a_difference)
    assert scopes.count(("contour", "_cauchy_kernel")) == 1
    assert set(scopes) == {("contour", "_cauchy_kernel"), ("lipschitz", "GalleryFunction", "_terms")}


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
    paths = tuple(reverse(build_annular_piece(n, cone)) for n in range(2, 6))
    assert contour._decomposition_contours(cone, 2, 5) is contour._plan(paths + (full_circle(0j, 0.25),))


def test_decomposition_single_circle_reduction():
    # N == M: no annular pieces, and the circle 2^-M alone gives the quotient
    f, tol = GalleryFunction(poly_coeffs=(0, 0, 1)), 1e-10
    for x in (-0.1, -0.2):
        rep = annular_decomposition(f, x, CONE, M=2, N=2, tol=tol)
        assert rep.annular_terms == ()
        assert rep.residual == abs(rep.inner_circle_term - rep.lhs) <= 2 * tol
    # x must lie inside the circle 2^-M
    with pytest.raises(ContourError, match=r"must lie inside the cone and \|z\| < 2\^-2"):
        annular_decomposition(f, -0.3, CONE, M=2, N=2, tol=tol)


@pytest.fixture(scope="module")
def gallery27(domain):
    return build_test_gallery(domain, 27)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    index=st.integers(0, 26),
    M=st.integers(1, 2),
    depth=st.floats(0.01, 12.0),
    angle=st.floats(-0.99, 0.99),
)
def test_quotient_via_cauchy_is_the_difference_quotient(gallery27, index, M, depth, angle):
    # the Cauchy identity for a gallery function and a point x of the open
    # cone inside the sector 2^-M: the keyhole integral is f(x) / (x - x0).
    # From |x| = 2^-16 on, some functions fail with ToleranceError: the
    # keyhole's inbound edge z0 + dz t cancels near its inner end
    f = gallery27[index]
    x = 2.0 ** -(M + depth) * cmath.exp(1j * (CONE.direction + angle * CONE.half_angle))
    tol = 1e-10
    assert abs(quotient_via_cauchy(f, x, CONE, M=M, tol=tol) - f(x) / x) <= tol


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


EDGE = cmath.exp(1j * (CONE.direction + CONE.half_angle))


@pytest.mark.parametrize(
    "pole, M, N",
    [
        (0.25, 1, 10),  # the circle 2^-2 that D_1 and D_2 share
        (2.0**-11 * 1j, 1, 10),  # the keyhole's inner circle 2^-(N+1)
        (0.5, 1, 1),  # the only contour of a degenerate split
        (0.1 * EDGE, 1, 10),  # a cone edge
        (0.25 * (1 + 1e-13), 1, 10),  # within rounding of a circle
    ],
)
def test_decomposition_rejects_pole_on_contour(pole, M, N, monkeypatch):
    # without the check, a shallow depth limit fails in well under a second
    monkeypatch.setattr(contour, "_MAX_DEPTH", 12)
    f = GalleryFunction(rational_terms=((pole, 1.0),))
    with pytest.raises(ContourError, match="lies on"):
        annular_decomposition(f, -0.02 if N > 1 else -0.3, CONE, M=M, N=N)


def test_decomposition_accepts_poles_off_its_contours():
    # a circle outside M..N+1, an edge's line beyond its radii, and a pole
    # a relative 1e-3 off a circle
    for pole, M, N in ((0.5, 2, 8), (0.3 * EDGE, 2, 8), (0.25 * (1 + 1e-3), 1, 10)):
        f = GalleryFunction(rational_terms=((pole, 1e-3),))
        assert annular_decomposition(f, -0.1, CONE, M=M, N=N).residual <= 2e-10


def test_decomposition_ct_disk_across_contour():
    # a Cauchy-transform disk astride the circle 2^-2: f is continuous there
    # with a kink, and the terms still add up to the quotient
    f = GalleryFunction(ct_terms=((Disk(0.25, 0.075), 1.0),))
    rep = annular_decomposition(f, -0.1, CONE, M=1, N=10)
    assert rep.residual <= 2e-10


# the decompose point of the README config, 0.75 * 0.25 * 2^-2 along the cone axis
X_README = -0.046875


@pytest.mark.parametrize(
    "f, N, N_split",
    [
        # inside the inner circle 2^-N (2^-(N+1) for the decomposition); the
        # keyhole was off by 0.0141 and the decomposition's residual 0.0141
        (GalleryFunction(rational_terms=((0.75 * 2.0**-9, 1e-6),)), 8, 8),
        # inside the cone, with the default N: off by 0.013
        (GalleryFunction(rational_terms=((-0.3 + 0.01j, 1e-3),)), None, None),
        # a Cauchy-transform disk inside the cone: off by 0.017
        (GalleryFunction(ct_terms=((Disk(-0.3, 0.02), 1.0),)), 10, 10),
        # a disk astride the decomposition's inner circle 2^-9: residual 4.7e-4
        (GalleryFunction(ct_terms=((Disk(2e-3, 2e-4), 1.0),)), 8, 8),
        # on the closed sector's edge, and on the circle 2^-9 that bounds the
        # keyhole's disk at N = 9 and the decomposition's at N = 8
        (GalleryFunction(rational_terms=((0.1 * EDGE, 1.0),)), 10, 10),
        (GalleryFunction(rational_terms=((2.0**-9 * 1j, 1.0),)), 9, 8),
    ],
    ids=[
        "pole-in-inner-disk", "pole-in-cone", "disk-in-cone",
        "disk-astride-inner-circle", "pole-on-edge", "pole-on-inner-circle",
    ],
)
def test_cauchy_computations_need_f_analytic_on_the_enclosed_region(f, N, N_split, monkeypatch):
    # both identities need f analytic on the closed sector of radius 2^-M and
    # the disk about x0 their contour encloses; each run fails before any integral
    monkeypatch.setattr(contour, "_integrate_many", lambda *a: pytest.fail("integrated"))
    with pytest.raises(ContourError, match="lies on or inside the contour"):
        quotient_via_cauchy(f, X_README, CONE, N=N)
    with pytest.raises(ContourError, match="lies on or inside the contour"):
        annular_decomposition(f, X_README, CONE, N=N_split)


def test_decomposition_accepts_singularities_outside_the_enclosed_region():
    # a pole inside D_9 at N = 9, and a disk inside D_8 at N = 8, lie outside
    # the sector and the disk 2^-(N+1); the residuals are those of the
    # release whose Cauchy kernel is w / (z - x) over the weighted quotient
    pole = GalleryFunction(rational_terms=((0.75 * 2.0**-9, 1e-6),))
    disk = GalleryFunction(ct_terms=((Disk(2.6e-3, 2e-4), 1.0),))
    assert annular_decomposition(pole, X_README, CONE, N=9).residual == 2.3466176853378762e-17
    assert annular_decomposition(disk, X_README, CONE, N=8).residual == 1.814963302083864e-16


def test_only_the_admissibility_check_reads_singularities():
    # f's poles and disks matter to a Cauchy computation only through
    # `_admissible_depth`; another reader would be a second check to keep in step
    def reads_singularities(node):
        return isinstance(node, ast.Attribute) and node.attr in ("rational_terms", "ct_terms")

    readers = [s for s in _scopes_where(reads_singularities) if s[0] == "contour"]
    assert readers and set(readers) == {("contour", "_admissible_depth")}


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


@pytest.mark.parametrize(
    "region, alpha, match",
    [
        (DiskRegion(0j, 0.3), 0.0, "alpha"),
        (DiskRegion(0j, 0.3), 1.0, "alpha"),
        (annulus_minus_cone_region(CONE, 2), 0.0, "alpha"),
        (annulus_minus_cone_region(CONE, 2), 1.0, "alpha"),
        (DiskRegion(0j, 0.0), 0.5, "diameter"),
        (DiskRegion(0j, -0.1), 0.5, "diameter"),
        (DiskRegion(0j, math.nan), 0.5, "diameter"),
    ],
    ids=["disk-0", "disk-1", "sector-0", "sector-1", "radius-0", "radius-neg", "radius-nan"],
)
def test_lemma_check_rejects_alpha_and_diameter(region, alpha, match):
    with pytest.raises(ContourError, match=match):
        lemma_cauchy_bound_check(conjugate_function(), full_circle(0j, 0.3), region, alpha)


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
