import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointderiv import (
    ClippedPiece,
    ContentError,
    Disk,
    SwissCheeseDomain,
    annulus_complement,
    disjoint_disk_content,
    greedy_cover_upper,
)
from pointderiv import content
from pointderiv.content import _ring_mask, annulus_content
from pointderiv.geometry import annulus_radii


def _whole_disk_pieces(*disks):
    """Annulus-complement pieces for holes sitting wholly in some annulus."""
    d = SwissCheeseDomain(holes=tuple(disks))
    out = []
    for n in range(1, 40):
        out.extend(p for p in annulus_complement(d, n) if p.is_whole)
    assert len(out) == len(disks)
    return out


def test_disjoint_disk_content_single():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    est = disjoint_disk_content([piece], 0.5)
    assert est.upper == pytest.approx(0.0625**1.5)
    assert est.upper == pytest.approx(0.015625)
    assert est.method == "disjoint_sum"
    assert est.lower_heuristic == pytest.approx(0.25 * est.upper)


def test_disjoint_disk_content_empty():
    est = disjoint_disk_content([], 0.5)
    assert est.upper == 0.0 and est.lower_heuristic == 0.0


def test_disjoint_disk_content_additive():
    pieces = _whole_disk_pieces(Disk(0.1875, 0.03125), Disk(0.1875j, 0.03125))
    est = disjoint_disk_content(pieces, 0.5)
    assert est.upper == pytest.approx(2 * 0.0625**1.5)


def test_disjoint_disk_content_rejects_overlap():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    with pytest.raises(ContentError):
        disjoint_disk_content([piece, piece], 0.5)


def test_greedy_single_disk_within_slack():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    est = greedy_cover_upper([piece], 0.5)
    closed = 0.0625**1.5
    assert est.method == "greedy_cover"
    assert closed / 2.5 <= est.upper <= 2.5 * closed


def test_greedy_empty():
    assert greedy_cover_upper([], 0.5).upper == 0.0


def test_greedy_two_separated_disks():
    pieces = _whole_disk_pieces(Disk(0.1875, 0.03125), Disk(0.1875j, 0.03125))
    est = greedy_cover_upper(pieces, 0.5)
    closed = 2 * 0.0625**1.5
    assert closed / 2.5 <= est.upper <= 2.5 * closed


def test_greedy_monotone_in_pieces():
    pieces = _whole_disk_pieces(Disk(0.1875, 0.03125), Disk(0.1875j, 0.03125))
    one = greedy_cover_upper(pieces[:1], 0.5).upper
    both = greedy_cover_upper(pieces, 0.5).upper
    assert both >= one


def test_greedy_scaling_law():
    a = greedy_cover_upper(_whole_disk_pieces(Disk(0.1875, 0.03125)), 0.5).upper
    b = greedy_cover_upper(_whole_disk_pieces(Disk(0.09375, 0.015625)), 0.5).upper
    assert b == pytest.approx(a * 0.5**1.5, rel=0.01)


def test_greedy_mesh_refinement_nonincreasing():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    coarse = greedy_cover_upper([piece], 0.5, mesh=piece.diameter() / 16).upper
    fine = greedy_cover_upper([piece], 0.5, mesh=piece.diameter() / 128).upper
    assert fine <= coarse * 1.0001


def test_greedy_mesh_validation():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    with pytest.raises(ContentError):
        greedy_cover_upper([piece], 0.5, mesh=1.0)
    with pytest.raises(ContentError):
        greedy_cover_upper([piece], 0.5, mesh=piece.diameter() / 4096, pixel_budget=64)


def test_cover_memo_raises_on_every_call():
    (piece,) = _whole_disk_pieces(Disk(0.1875, 0.03125))
    content._greedy_piece_upper.cache_clear()
    for _ in range(2):
        with pytest.raises(ContentError, match="mesh must be smaller"):
            greedy_cover_upper([piece], 0.5, mesh=1.0)
    assert content._greedy_piece_upper.cache_info().currsize == 0


def test_greedy_vs_disjoint_within_slack(domain):
    for n in (3, 5, 7):
        pieces = [p for p in annulus_complement(domain, n) if p.is_whole]
        if not pieces:
            continue
        dj = disjoint_disk_content(pieces, 0.5).upper
        gr = greedy_cover_upper(pieces, 0.5).upper
        assert dj / 2.5 <= gr <= 2.5 * dj



# The clipped-piece cover as first released, kept as the oracle: boundary
# samples from three complex `exp` calls, the diameter with the centroid
# prune alone, and the cells marked on a full complex grid with `np.abs`.


def _oracle_boundary_samples(piece, per_curve=1024):
    th = np.linspace(0.0, 2.0 * math.pi, per_curve, endpoint=False)
    pts = [piece.hole.center + piece.hole.radius * np.exp(1j * th)]
    if not piece.is_whole:
        rr = np.abs(pts[0] - piece.annulus_center)
        pts[0] = pts[0][(rr >= piece.r_inner) & (rr <= piece.r_outer)]
        for rad in (piece.r_inner, piece.r_outer):
            circ = piece.annulus_center + rad * np.exp(1j * th)
            inside = np.abs(circ - piece.hole.center) <= piece.hole.radius
            pts.append(circ[inside])
    return np.concatenate(pts)


def _oracle_point_set_diameter(pts):
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
    for s in range(0, len(x), 32):
        dx = x[s : s + 32, None] - x[None, s:]
        dy = y[s : s + 32, None] - y[None, s:]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def _oracle_diameter(piece):
    if piece.is_whole:
        return piece.hole.diameter
    return _oracle_point_set_diameter(_oracle_boundary_samples(piece))


def _oracle_marked(piece, xs, ys, slack):
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    centers = cx + 1j * cy
    dh = np.abs(centers - piece.hole.center)
    ra = np.abs(centers - piece.annulus_center)
    return (
        (dh <= piece.hole.radius + slack)
        & (ra >= piece.r_inner - slack)
        & (ra <= piece.r_outer + slack)
    )


def _oracle_piece_upper(piece, alpha, mesh=None):
    diam = _oracle_diameter(piece)
    if diam <= 0.0:
        return 0.0
    if mesh is None:
        mesh = diam / 64.0
    x0, y0, x1, y1 = piece.bounding_box()
    side = max(x1 - x0, y1 - y0)
    k = 2 ** max(int(math.ceil(math.log2(side / mesh))), 0)
    cell = side / k
    xs = x0 + (np.arange(k) + 0.5) * cell
    ys = y0 + (np.arange(k) + 0.5) * cell
    marked = _oracle_marked(piece, xs, ys, cell * math.sqrt(2.0) / 2.0)
    cost = np.where(marked, (cell * math.sqrt(2.0)) ** (1.0 + alpha), 0.0)
    s = cell
    while cost.shape[0] > 1:
        child_sum = (
            cost[0::2, 0::2] + cost[0::2, 1::2] + cost[1::2, 0::2] + cost[1::2, 1::2]
        )
        s *= 2.0
        parent = (s * math.sqrt(2.0)) ** (1.0 + alpha)
        cost = np.where(child_sum > 0.0, np.minimum(parent, child_sum), 0.0)
    return float(cost[0, 0])


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 40),
    outer=st.booleans(),
    frac=st.floats(0.02, 0.98),
    offset=st.floats(-0.98, 0.98),
    angle=st.floats(0.0, 2.0 * math.pi),
    base=st.complex_numbers(max_magnitude=0.4),
    alpha=st.floats(0.01, 0.99),
    mesh_ratio=st.one_of(st.none(), st.floats(1.0 / 100.0, 0.9)),
)
def test_clipped_cover_bitwise_oracle(n, outer, frac, offset, angle, base, alpha, mesh_ratio):
    # a hole straddling the inner or the outer circle of annulus n about `base`
    ri, ro = annulus_radii(n)
    radius = (ro - ri) * frac
    dist = (ro if outer else ri) + offset * radius
    hole = Disk(base + dist * cmath.exp(1j * angle), radius)
    piece = ClippedPiece(hole, base, n, ri, ro, is_whole=False)
    samples = piece.boundary_samples()
    assert np.array_equal(samples, _oracle_boundary_samples(piece))
    diam = piece.diameter()
    assert diam == _oracle_diameter(piece)
    mesh = None if mesh_ratio is None else diam * mesh_ratio
    got = greedy_cover_upper([piece], alpha, mesh=mesh).upper
    assert got == _oracle_piece_upper(piece, alpha, mesh)


def test_clipped_config_covers_bitwise_oracle():
    # the holes of the CLI's clipped config, on the dyadic circles 2^-k
    holes = [
        Disk(2.0**-k * cmath.exp(1j * (-1.2 + 2.4 * (k - 2) / 7)), 0.3 * 2.0**-k)
        for k in range(2, 10)
    ]
    domain = SwissCheeseDomain(holes=tuple(holes))
    pieces = [p for n in range(1, 11) for p in annulus_complement(domain, n)]
    assert len(pieces) == 16
    for p in pieces:
        assert p.diameter() == _oracle_diameter(p)
        for alpha in (0.3, 0.5, 0.9):
            assert greedy_cover_upper([p], alpha).upper == _oracle_piece_upper(p, alpha)


def test_cover_memo_cold_and_warm_bits():
    # annulus_content on the 16 clipped pieces of the CLI's clipped config
    holes = [
        Disk(2.0**-k * cmath.exp(1j * (-1.2 + 2.4 * (k - 2) / 7)), 0.3 * 2.0**-k)
        for k in range(2, 10)
    ]
    domain = SwissCheeseDomain(holes=tuple(holes))
    annuli = [annulus_complement(domain, n) for n in range(1, 11)]
    assert sum(len(pieces) for pieces in annuli) == 16
    memo = content._greedy_piece_upper
    cold = []
    for pieces in annuli:
        memo.cache_clear()
        cold.append(repr(annulus_content(pieces, 0.5)))
    memo.cache_clear()
    for pieces in annuli:
        annulus_content(pieces, 0.5)
    assert memo.cache_info().misses == 16
    warm = [repr(annulus_content(pieces, 0.5)) for pieces in annuli]
    assert memo.cache_info().misses == 16
    assert warm == cold


def test_ring_mask_band_is_decided_by_np_abs():
    # thresholds equal to np.abs(z) for points where np.hypot and Python's
    # abs round to another float: a band fallback using them fails here
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    a = np.abs(z)
    others = [np.hypot(z.real, z.imag), np.array([abs(complex(c)) for c in z])]
    above = np.flatnonzero(np.all([o > a for o in others], axis=0))
    below = np.flatnonzero(np.all([o < a for o in others], axis=0))
    if not len(above) or not len(below):
        pytest.skip("np.hypot and abs agree with np.abs on this numpy build")
    for i in above[:20]:
        xs, ys = np.array([z[i].real]), np.array([z[i].imag])
        assert _ring_mask(xs, ys, 0j, 0.0, a[i]).tolist() == [[True]]
        assert _ring_mask(xs, ys, 0j, a[i], 2.0 * a[i]).tolist() == [[True]]
    for i in below[:20]:
        xs, ys = np.array([z[i].real]), np.array([z[i].imag])
        assert _ring_mask(xs, ys, 0j, a[i], 2.0 * a[i]).tolist() == [[True]]
        assert _ring_mask(xs, ys, 0j, 0.0, np.nextafter(a[i], 0.0)).tolist() == [[False]]


def test_ring_mask_equals_complex_grid():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.choice([1, 2, 7, 64]))
        xs = np.sort(rng.standard_normal(k))
        ys = np.sort(rng.standard_normal(k))
        c = complex(rng.standard_normal(), rng.standard_normal())
        # thresholds on grid distances, so some cells sit exactly on them
        d = np.abs(xs[:, None] + 1j * ys[None, :] - c)
        lo, hi = np.sort(rng.choice(d.ravel(), 2))
        lo = float(lo) if rng.random() < 0.8 else -float(lo)
        want = (d >= lo) & (d <= hi)
        assert np.array_equal(_ring_mask(xs, ys, c, lo, float(hi)), want)
