import math

import pytest

from pointderiv import (
    ContentError,
    Disk,
    SwissCheeseDomain,
    annulus_complement,
    disjoint_disk_content,
    greedy_cover_upper,
)


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


def test_greedy_vs_disjoint_within_slack(domain):
    for n in (3, 5, 7):
        pieces = [p for p in annulus_complement(domain, n) if p.is_whole]
        if not pieces:
            continue
        dj = disjoint_disk_content(pieces, 0.5).upper
        gr = greedy_cover_upper(pieces, 0.5).upper
        assert dj / 2.5 <= gr <= 2.5 * dj
