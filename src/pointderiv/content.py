"""Hausdorff-content estimation for unions of (clipped) disks.

Upper estimates are honest covering sums; the "lower" numbers are clearly
labeled heuristics and must never back a sufficiency verdict.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ClippedPiece

SQRT2 = math.sqrt(2.0)

#: heuristic constant relating a disjoint union's covering sum to a guessed
#: lower value; pragmatic, flagged in every report.
C_LOW = 0.25

PIXEL_BUDGET_DEFAULT = 2**22


class ContentError(ValueError):
    pass


@dataclass(frozen=True)
class ContentEstimate:
    upper: float
    lower_heuristic: float
    method: str  # greedy_cover | disjoint_sum | empty


def _pieces_disjoint(pieces: list[ClippedPiece]) -> bool:
    # overlap: the holes meet, and they differ or their radial bands overlap
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            if abs(a.hole.center - b.hole.center) <= a.hole.radius + b.hole.radius and (
                a.hole != b.hole or min(a.r_outer, b.r_outer) > max(a.r_inner, b.r_inner)
            ):
                return False
    return True


def disjoint_disk_content(pieces: list[ClippedPiece], alpha: float) -> ContentEstimate:
    """Covering sum sum diam^(1+alpha) over pairwise disjoint pieces.

    The upper value covers each piece by a single ball of the same diameter.
    The lower value is the heuristic C_LOW times the upper value; it is not a
    certified lower bound on the lower content.
    """
    if not (0.0 < alpha < 1.0):
        raise ContentError(f"alpha must lie in (0,1), got {alpha}")
    if not _pieces_disjoint(pieces):
        raise ContentError("pieces overlap; disjoint_disk_content requires disjointness")
    upper = float(sum(p.diameter() ** (1.0 + alpha) for p in pieces))
    return ContentEstimate(upper=upper, lower_heuristic=C_LOW * upper, method="disjoint_sum")


@functools.lru_cache(maxsize=1024)
def _greedy_piece_upper(
    piece: ClippedPiece, alpha: float, mesh: float | None, pixel_budget: int
) -> float:
    """Quadtree cover of one piece by dyadic squares, circumscribed-ball costs.

    The grid is anchored at the piece bounding box so the estimate is exactly
    scale-covariant.

    The cover depends only on the piece, not on any function, so it runs
    once per distinct argument tuple; pieces are frozen and compared by
    value.  As for the contour memos, `lru_cache` takes 0.0 and -0.0 (and 1
    and 1.0) for the same key.  An exception, such as the ContentError for a
    mesh at or above the diameter, is not cached: it is raised again on
    every call.
    """
    diam = piece.diameter()
    if diam <= 0.0:
        return 0.0
    if mesh is None:
        mesh = diam / 64.0
    if mesh >= diam:
        raise ContentError("mesh must be smaller than the piece diameter")
    x0, y0, x1, y1 = piece.bounding_box()
    side = max(x1 - x0, y1 - y0)
    levels = max(int(math.ceil(math.log2(side / mesh))), 0)
    k = 2**levels
    if k * k > pixel_budget:
        raise ContentError(f"pixelization {k}x{k} exceeds the pixel budget {pixel_budget}")
    cell = side / k if k else side

    xs = x0 + (np.arange(k) + 0.5) * cell
    ys = y0 + (np.arange(k) + 0.5) * cell
    slack = cell * SQRT2 / 2.0  # half-diagonal: conservative intersection test
    centers = xs[:, None] + 1j * ys[None, :]
    dh = np.abs(centers - piece.hole.center)
    ra = np.abs(centers - piece.annulus_center)
    marked = (
        (dh <= piece.hole.radius + slack)
        & (ra >= piece.r_inner - slack)
        & (ra <= piece.r_outer + slack)
    )

    def h(t: float) -> float:
        return t ** (1.0 + alpha)

    cost = np.where(marked, h(cell * SQRT2), 0.0)
    s = cell
    while cost.shape[0] > 1:
        m = cost.shape[0] // 2
        child_sum = (
            cost[0::2, 0::2] + cost[0::2, 1::2] + cost[1::2, 0::2] + cost[1::2, 1::2]
        )
        s *= 2.0
        parent = h(s * SQRT2)
        cost = np.where(child_sum > 0.0, np.minimum(parent, child_sum), 0.0)
        assert cost.shape[0] == m
    return float(cost[0, 0])


def greedy_cover_upper(
    pieces: list[ClippedPiece],
    alpha: float,
    mesh: float | None = None,
    pixel_budget: int = PIXEL_BUDGET_DEFAULT,
) -> ContentEstimate:
    """Upper content estimate by per-piece dyadic-square covers.

    Squares are converted to circumscribed balls (ball diameter = square
    diagonal) and merged bottom-up whenever the merge decreases the h-value.
    """
    if not (0.0 < alpha < 1.0):
        raise ContentError(f"alpha must lie in (0,1), got {alpha}")
    upper = 0.0
    for p in pieces:
        upper += _greedy_piece_upper(p, alpha, mesh, pixel_budget)
    return ContentEstimate(upper=upper, lower_heuristic=0.0, method="greedy_cover")


def annulus_content(pieces: list[ClippedPiece], alpha: float) -> ContentEstimate:
    """Upper content of one annulus complement: 0, a disjoint sum or a greedy cover."""
    if not pieces:
        return ContentEstimate(0.0, 0.0, "empty")
    if all(p.is_whole for p in pieces):
        return disjoint_disk_content(pieces, alpha)
    return greedy_cover_upper(pieces, alpha)
