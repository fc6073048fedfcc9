"""Inlier coverage maps and coverage scores.

A pixel counts as covered when at least one inlier lies inside the
rectangular neighborhood centred on it, and the coverage score is the
covered fraction of the image.  The neighborhood defaults to roughly
1/15 of each image dimension, which penalizes inlier sets condensed
into a few small clusters.

`coverage_fractions` computes the score exactly, without a raster, for
many images at once, at a cost that grows with the inlier count, not with
the image area; feature assembly uses it.  The per-pixel raster
(`coverage_map`, `coverage_score`) remains for PGM export and as the
reference the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen, is_integer, is_number
from .errors import InvalidConfig, InvariantViolation
from .fileio import atomic_open

DEFAULT_NEIGHBORHOOD_FRACTION = 1.0 / 15.0
INT64_MAX = int(np.iinfo(np.int64).max)
INLIER_BUDGET = 4096  # inliers per batch of the coverage kernel


class ImageDims(Frozen):
    __slots__ = _fields = ("width", "height")

    def __init__(self, width: int, height: int):
        if not (is_integer(width) and is_integer(height)):
            raise InvariantViolation(f"image dims must be integers, got {width!r}x{height!r}")
        if width < 1 or height < 1:
            raise InvariantViolation(f"image dims must be >= 1, got {width}x{height}")
        # coverage_fraction sums the covered area in int64, which would wrap
        if width * height > INT64_MAX:
            raise InvariantViolation(f"{width} x {height} pixels is out of range")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


class CoverageParams(Frozen):
    __slots__ = _fields = ("neighborhood_fraction", "min_half_extent")

    def __init__(self, neighborhood_fraction: float = DEFAULT_NEIGHBORHOOD_FRACTION,
                 min_half_extent: int = 1):
        if not (is_number(neighborhood_fraction) and 0 < neighborhood_fraction <= 1):
            raise InvalidConfig("neighborhood_fraction must be in (0, 1]")
        if not (is_integer(min_half_extent) and min_half_extent >= 1):
            raise InvalidConfig("min_half_extent must be an integer >= 1")
        object.__setattr__(self, "neighborhood_fraction", neighborhood_fraction)
        object.__setattr__(self, "min_half_extent", min_half_extent)


class InlierSet(Frozen):
    """Inlier pixel coordinates bound to the image they were detected in.

    Keeps integer coordinates exact, accepts float positions (floored to
    integer pixels, so feature values are deterministic) and duplicates
    (RANSAC can report coincident inliers).  Out-of-bounds points are
    rejected here, at construction.
    """

    __slots__ = _fields = ("points", "dims")

    def __init__(self, points: np.ndarray, dims: ImageDims):
        """`points` is (n, 2), columns (x, y); it is kept as int64."""
        pts = np.asarray(points)
        # float64 holds integers exactly only up to 2**53, so integer dtypes go
        # to int64 directly; uint64 values past int64 wrap to negatives there,
        # which the bounds check rejects
        is_int = np.issubdtype(pts.dtype, np.integer)
        pts = pts.astype(np.int64 if is_int else np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvariantViolation(
                f"inlier points must have shape (n, 2), got {pts.shape}"
            )
        if not is_int:
            if not np.all(np.isfinite(pts)):
                raise InvariantViolation("inlier coordinates must be finite")
            pts = np.floor(pts).astype(np.int64)
        if len(pts):
            if (
                pts[:, 0].min() < 0
                or pts[:, 1].min() < 0
                or pts[:, 0].max() >= dims.width
                or pts[:, 1].max() >= dims.height
            ):
                raise InvariantViolation(
                    f"inlier outside {dims.width}x{dims.height} image"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dims", dims)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InlierSet):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.points, other.points)


class CoverageMap(Frozen):
    __slots__ = _fields = ("dims", "covered")

    def __init__(self, dims: ImageDims, covered: np.ndarray):
        """`covered` is the (height, width) bool grid."""
        grid = np.asarray(covered, dtype=bool)
        if grid.shape != (dims.height, dims.width):
            raise InvariantViolation(
                f"coverage grid shape {grid.shape} does not match dims "
                f"{dims.height}x{dims.width}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "covered", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.covered, other.covered)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def neighborhood_half_extents(
    dims: ImageDims, params: CoverageParams = CoverageParams()
) -> tuple[int, int]:
    """Half extents (hx, hy) of the covering window, each >= min_half_extent.

    The full window spans (2*hx+1) x (2*hy+1) pixels, approximately
    `neighborhood_fraction` of each image dimension.  Half-up rounding is
    pinned for reproducibility; small variations in the window size do not
    change scores meaningfully.
    """
    hx = max(
        params.min_half_extent,
        _round_half_up(dims.width * params.neighborhood_fraction / 2.0),
    )
    hy = max(
        params.min_half_extent,
        _round_half_up(dims.height * params.neighborhood_fraction / 2.0),
    )
    return hx, hy


def coverage_map(
    inliers: InlierSet, params: CoverageParams = CoverageParams()
) -> CoverageMap:
    """Mark every pixel whose rectangular neighborhood contains an inlier.

    Equivalent to dilating the inlier mask by a (2*hx+1) x (2*hy+1)
    rectangle clipped at the image borders.  Runs in O(n + width*height):
    each inlier opens and closes a horizontal interval per row (difference
    array along x), then a cumulative-sum pass spreads rows vertically
    by hy (windowed-any along y).
    """
    dims = inliers.dims
    w, h = dims.width, dims.height
    hx, hy = neighborhood_half_extents(dims, params)
    if len(inliers) == 0:
        return CoverageMap(dims, np.zeros((h, w), dtype=bool))

    xs = inliers.points[:, 0]
    ys = inliers.points[:, 1]

    # Horizontal pass: per-row interval [x-hx, x+hx] via a difference array.
    # The -1 markers land in a sentinel column that is dropped before cumsum,
    # so intervals reaching the right edge stay open to the end of the row.
    row_diff = np.zeros((h, w + 1), dtype=np.int64)
    np.add.at(row_diff, (ys, np.maximum(xs - hx, 0)), 1)
    np.add.at(row_diff, (ys, np.minimum(xs + hx + 1, w)), -1)
    rows = np.cumsum(row_diff[:, :-1], axis=1) > 0

    # Vertical pass: pixel (x, y) is covered iff any marked row within
    # [y-hy, y+hy] covers column x.
    col_cum = np.zeros((h + 1, w), dtype=np.int64)
    col_cum[1:] = np.cumsum(rows, axis=0, dtype=np.int64)
    y_idx = np.arange(h)
    lo = np.maximum(y_idx - hy, 0)
    hi = np.minimum(y_idx + hy + 1, h)
    covered = (col_cum[hi] - col_cum[lo]) > 0
    return CoverageMap(dims, covered)


def coverage_score(cmap: CoverageMap) -> float:
    """Covered pixels divided by total pixels, in [0, 1]."""
    return float(np.count_nonzero(cmap.covered)) / cmap.dims.pixel_count


def coverage_fraction(inliers: InlierSet, params: CoverageParams = CoverageParams()) -> float:
    """Exactly coverage_score(coverage_map(inliers, params)), as a batch of one."""
    return coverage_fractions([inliers], params)[0]


def coverage_fractions(
    inlier_sets: list[InlierSet], params: CoverageParams = CoverageParams()
) -> list[float]:
    """coverage_fraction of each set.  Images are tiled into blocks of (hx+1) x (hy+1)
    pixels and batched by at most INLIER_BUDGET inliers (or one set) and INT64_MAX
    pixels, which bound the kernel's arrays and int64 keys; no result depends on its batch."""
    batches: list[tuple[list, list]] = []  # per image: the set, and bw, bh, W, H, first key
    inliers = pixels = base = 0
    for s in inlier_sets:
        w, h = s.dims.width, s.dims.height
        hx, hy = neighborhood_half_extents(s.dims, params)
        bh = min(hy, h - 1) + 1  # a wider window covers as much
        if not batches or inliers + len(s) > INLIER_BUDGET or pixels + w * h > INT64_MAX:
            batches.append(([], []))
            inliers = pixels = base = 0
        batches[-1][0].append(s)
        batches[-1][1].append((min(hx, w - 1) + 1, bh, w, h, base))
        inliers, pixels, base = inliers + len(s), pixels + w * h, base + -(-h // bh) * w
    return [f for sets, geometry in batches for f in _block_fractions(sets, geometry)]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and last index of each run of equal keys, and each key's run."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    last = np.roll(first, -1)  # the key after a run's last starts a run, or wraps to the first
    return np.flatnonzero(first), np.flatnonzero(last), np.cumsum(first) - 1


def _running_max(values: np.ndarray, span: np.ndarray, run: np.ndarray, backward=False):
    """Running max within each run of values in [0, span], from its front or
    back; each run is lifted above the earlier ones by at most sum(span)."""
    ahead = np.cumsum(span)
    lift = ((span.sum() - ahead) if backward else (ahead - span))[run]
    step = -1 if backward else 1
    return np.maximum.accumulate((values + lift)[::step])[::step] - lift


def _after(values: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each element's successor in its run, 0 after a run's last."""
    out = np.append(values[1:], 0)
    out[last] = 0
    return out


def _block_fractions(sets: list[InlierSet], geometry: list[tuple]) -> list[float]:
    """The covered fraction of each image of a batch, exactly.

    A block that holds an inlier is covered; an empty one gets pieces from
    its 8 neighbours (`_pieces`).  Every array is 1-D, sorted by an int64
    key, base + (y // bh) * W + x, that counts pixels row of blocks by row
    of blocks; no key, nor any lifted running max, passes the pixel count.
    """
    bw, bh, iw, ih, base = images = np.array(geometry, dtype=np.int64).T
    area = np.zeros(len(sets), dtype=np.int64)
    corner, key, target, rows = _pieces(sets, images, area)
    order = np.argsort(key)  # by block, then by edge
    corner, key, target, rows = corner[order], key[order], target[order], rows[order]
    start, end, run = _runs(target)
    k = np.searchsorted(base, target[start], side="right") - 1
    row, x0 = np.divmod(target[start] - base[k], iw[k])
    width, height = np.minimum(bw[k], iw[k] - x0), np.minimum(bh[k], ih[k] - row * bh[k])
    edge, span = key - target + 1, height[run]
    rows = np.minimum(rows, span)
    top_left, top_right, bottom_left, bottom_right = (rows * (corner == c) for c in range(4))
    # the tallest piece from each corner over the columns [edge, next edge),
    # and before a block's first edge, where only the left-anchored ones reach
    tl, bl = (_running_max(h, height, run, True) for h in (top_left, bottom_left))
    top = np.maximum(_after(tl, end), _running_max(top_right, height, run))
    bottom = np.maximum(_after(bl, end), _running_max(bottom_right, height, run))
    next_edge = _after(edge, end)
    next_edge[end] = width
    covered = (next_edge - edge) * (top + np.minimum(bottom, span - top))
    head = edge[start] * (tl[start] + np.minimum(bl[start], height - tl[start]))
    np.add.at(area, k, np.add.reduceat(covered, start) + head)
    # int / int on Python ints: numpy would round both to float64 first
    return [a / s.dims.pixel_count for a, s in zip(area.tolist(), sets)]


def _pieces(sets: list[InlierSet], images: np.ndarray, area: np.ndarray) -> tuple:
    """Add the occupied blocks' area to `area`; return the corner, key,
    target block key and rows of each piece sent into an empty block.

    An inlier at offset (dx, dy) reaches the columns u < dx of the block to
    its right, u > dx to its left, the rows v < dy below, v > dy above, and
    both diagonally: a piece anchored at corner 2 * bottom + right, which
    covers u < edge (at the left) or u >= edge, and `rows` rows.
    """
    bw, bh, iw, ih, base = images
    points = np.concatenate([s.points for s in sets])
    image = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    by, dy = np.divmod(points[:, 1], bh[image])
    key = base[image] + by * iw[image] + points[:, 0]
    order = np.argsort(key)  # by block, then by column
    key, x, dy, image = key[order], points[order, 0], dy[order], image[order]
    dx = x % bw[image]
    key -= dx  # now the key of the inlier's block, at its first column
    start, _, run = _runs(key)
    occupied, k = key[start], image[start]
    bw_k, bh_k, iw_k, ih_k = bw[k], bh[k], iw[k], ih[k]
    x0, y0 = x[start] - dx[start], by[order[start]] * bh_k
    width, height = np.minimum(bw_k, iw_k - x0), np.minimum(bh_k, ih_k - y0)
    np.add.at(area, k, width * height)

    # each way, only a Pareto frontier sends: in dx order, the inliers whose
    # dy (or flipped dy) is the largest to their block's end (or from its start)
    flipped = (height - 1)[run] - dy
    frontier = [[_running_max(v, height, run, last) == v for last in (True, False)]
                for v in (dy, flipped)]
    # by ddx (or ddy) + 1: where a piece may go, its edge and the target's width
    # (or its rows), and which inliers send one that is not empty, keyed in its block
    inside = [(x0 > 0, True, x0 < iw_k - bw_k), (y0 > 0, True, y0 < ih_k - bh_k)]
    edges, widths = (dx + 1, width[run], dx), (bw_k, width, np.minimum(bw_k, iw_k - x0 - bw_k))
    heights, reach = ((bh_k - 1)[run] - dy, bh_k[run], dy), (dx + 1 < bw_k[run], True, dx > 0)
    searchable, pieces = np.append(occupied, -1), []
    for ddx, ddy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)):
        target = occupied + (ddx * bw_k + ddy * iw_k)
        empty = inside[0][ddx + 1] & inside[1][ddy + 1]
        empty &= searchable[np.searchsorted(occupied, target)] != target
        i = np.flatnonzero(frontier[ddy < 0][ddx < 0] & reach[ddx + 1] & empty[run])
        b = run[i]
        edge = np.minimum(edges[ddx + 1][i], widths[ddx + 1][b])
        corner = np.full(len(i), 2 * (ddy < 0) + (ddx < 0))
        pieces.append((corner, target[b] + edge - 1, target[b], heights[ddy + 1][i]))
    return tuple(np.concatenate([p[j] for p in pieces]) for j in range(4))


def write_pgm(cmap: CoverageMap, path) -> None:
    """Export as a binary P5 graymap for visual inspection (255 = covered)."""
    data = np.where(cmap.covered, 255, 0).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{cmap.dims.width} {cmap.dims.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
