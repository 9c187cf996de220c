"""Hand-worked cases for the closed-form references in refs.py.

    python3 perfbench/check_refs.py        # or: python3 -m pytest perfbench/check_refs.py

The last test compares the references with the program itself on the 27
gallery functions of the default roadrunner domain at three points.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402


@dataclass
class _Disk:
    center: complex
    radius: float


@dataclass
class _F:
    """Just the parameters refs reads from a gallery function."""

    poly_coeffs: tuple = ()
    rational_terms: tuple = ()
    ct_terms: tuple = ()
    base_point: complex = 0j
    label: str = field(default="hand")


def close(a, b, tol=1e-15):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_polynomial_quotient():
    # f(z) = 3 + 2z + z^2: (f(x) - f(0))/x = 2 + x
    f = _F(poly_coeffs=(3, 2, 1))
    assert close(refs.quotient(f, 0.5), 2.5)
    assert close(refs.quotient(f, -0.25j), 2 - 0.25j)


def test_pole_quotient():
    # f(z) = 1/(z - 1/2): (f(-1/2) - f(0))/(-1/2) = (-1 - (-2))/(-1/2) = -2
    f = _F(rational_terms=((0.5, 1.0),))
    assert close(refs.quotient(f, -0.5), -2.0)


def test_cauchy_transform_quotient():
    # CT of the disk |z - 1/2| <= 1/10 is (pi/100)/(1/2 - z) outside it, so the
    # quotient at x = -1/2 is (pi/100)(1/1 - 1/(1/2))/(-1/2) = pi/50
    f = _F(ct_terms=((_Disk(0.5, 0.1), 1.0),))
    assert close(refs.quotient(f, -0.5), math.pi / 50)


def test_decomposition_terms():
    # one pole at p = 3/16 (annulus 2) with weight 1, x = -1/4:
    # contribution 1/(p (p - x)) = 1/((3/16)(7/16)) = 256/21
    f = _F(rational_terms=((3 / 16, 1.0),))
    lhs, terms, circle = refs.decomposition(f, -0.25, 1, 4)
    c = 256 / 21
    assert close(lhs, 1 / ((3 / 16) * (-0.25 - 3 / 16)))
    assert terms == {1: 0j, 2: -c, 3: 0j, 4: 0j}
    assert close(circle, lhs + c)
    assert close(sum(terms.values()) + circle, lhs)


def test_cauchy_transform_weight():
    # w CT_{c,r} behaves as -w pi r^2/(z - c) outside the disk
    f = _F(ct_terms=((_Disk(0.25, 0.5**5), 2.0),))
    (p, W), = refs.singularities(f)
    assert p == 0.25 and close(W, -2.0 * math.pi * 0.5**10)


def test_boundary_distance():
    holes = [(0.5, 0.1)]
    assert close(refs.boundary_distance(holes, -0.5), 0.5)  # base point and outer circle tie
    assert close(refs.boundary_distance(holes, 0.75), 0.15)  # hole edge at 0.6
    assert close(refs.boundary_distance(holes, 0.9), 0.1)  # outer circle


def test_roadrunner_terms():
    # r_n = 4^-n, alpha = 1/2: 4^n (2 4^-n)^(3/2) = 2^(3/2) 2^-n exactly
    holes = refs.roadrunner_holes({})
    assert [n for n, _, _ in holes] == list(range(3, 10))
    for n, c, r in holes:
        assert c == 0.75 * 0.5**n and r == 0.25**n
        assert refs.roadrunner_term(n, r, 0.5) == 2.0**1.5 * 2.0**-n


def test_annuli_met():
    # a hole centred on |z| = 1/4 with radius 1/16 meets annuli 1 and 2 only
    assert refs.annuli_met([(0.25j, 1 / 16)], 6) == {1, 2}
    assert refs.annuli_met([(0.75 * 0.5**3, 0.25**3)], 6) == {3}


def test_references_match_program():
    import pointderiv

    cone = pointderiv.ConeSpec(0j, math.pi, math.pi / 6, 0.5, 0.45)
    domain = pointderiv.RoadrunnerFamily().domain()
    worst = 0.0
    for f in pointderiv.build_test_gallery(domain, 27):
        for x in (-0.35 + 0j, -0.05 + 0.01j, -0.006 + 0j):
            worst = max(worst, abs(refs.quotient(f, x) - f(x) / x))
            rep = pointderiv.annular_decomposition(f, x, cone, M=1, N=10, tol=1e-10)
            lhs, terms, circle = refs.decomposition(f, x, 1, 10)
            got = dict(rep.annular_terms)
            worst = max(
                [worst, abs(rep.lhs - lhs), abs(rep.inner_circle_term - circle)]
                + [abs(got[n] - terms[n]) for n in terms]
            )
            assert abs(domain.boundary_distance(x) - refs.boundary_distance(
                [(h.center, h.radius) for h in domain.holes], x)) <= 1e-15
    assert worst <= 1e-13, worst


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
