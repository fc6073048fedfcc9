"""Inlier coverage maps and coverage scores.

A pixel counts as covered when at least one inlier lies inside the
rectangular neighborhood centred on it, and the coverage score is the
covered fraction of the image.  The neighborhood defaults to roughly
1/15 of each image dimension, which penalizes inlier sets condensed
into a few small clusters.

`coverage_fraction` computes the score exactly from the inlier windows
and is what feature assembly uses.  The per-pixel raster (`coverage_map`,
`coverage_score`) remains for PGM export and as the reference the tests
compare against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvariantViolation
from .fileio import atomic_open

DEFAULT_NEIGHBORHOOD_FRACTION = 1.0 / 15.0
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ImageDims:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvariantViolation(
                f"image dims must be >= 1, got {self.width}x{self.height}"
            )
        # coverage_fraction sums the covered area in int64, which would wrap
        if self.width * self.height > INT64_MAX:
            raise InvariantViolation(f"{self.width} x {self.height} pixels is out of range")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class CoverageParams:
    neighborhood_fraction: float = DEFAULT_NEIGHBORHOOD_FRACTION
    min_half_extent: int = 1

    def __post_init__(self):
        fraction, extent = self.neighborhood_fraction, self.min_half_extent
        # a bool is a numbers.Integral, so each check refuses it by type
        real = isinstance(fraction, numbers.Real) and not isinstance(fraction, bool)
        if not (real and 0 < fraction <= 1):
            raise InvalidConfig("neighborhood_fraction must be in (0, 1]")
        if isinstance(extent, bool) or not (isinstance(extent, numbers.Integral) and extent >= 1):
            raise InvalidConfig("min_half_extent must be an integer >= 1")


@dataclass(frozen=True, eq=False)
class InlierSet:
    """Inlier pixel coordinates bound to the image they were detected in.

    Keeps integer coordinates exact, accepts float positions (floored to
    integer pixels, so feature values are deterministic) and duplicates
    (RANSAC can report coincident inliers).  Out-of-bounds points are
    rejected here, at construction.
    """

    points: np.ndarray  # (n, 2) int64, columns (x, y)
    dims: ImageDims

    def __post_init__(self):
        pts = np.asarray(self.points)
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
                or pts[:, 0].max() >= self.dims.width
                or pts[:, 1].max() >= self.dims.height
            ):
                raise InvariantViolation(
                    f"inlier outside {self.dims.width}x{self.dims.height} image"
                )
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InlierSet):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.points, other.points)


@dataclass(frozen=True, eq=False)
class CoverageMap:
    dims: ImageDims
    covered: np.ndarray  # (height, width) bool

    def __post_init__(self):
        grid = np.asarray(self.covered, dtype=bool)
        if grid.shape != (self.dims.height, self.dims.width):
            raise InvariantViolation(
                f"coverage grid shape {grid.shape} does not match dims "
                f"{self.dims.height}x{self.dims.width}"
            )
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


def coverage_fraction(
    inliers: InlierSet, params: CoverageParams = CoverageParams()
) -> float:
    """Exactly coverage_score(coverage_map(inliers, params)), without the raster.

    The covered pixels are the union of each inlier's (2*hx+1) x (2*hy+1)
    window clipped to the image.  The union is counted on a grid compressed
    to the windows' distinct x and y edges, so memory and time grow with the
    inlier count, not with the image area: at most min(2n, W+1) x
    min(2n, H+1) cells for n inliers on a W x H image.
    """
    dims = inliers.dims
    hx, hy = neighborhood_half_extents(dims, params)
    hx, hy = min(hx, dims.width), min(hy, dims.height)  # wider windows clip the same
    xs = inliers.points[:, 0]
    ys = inliers.points[:, 1]
    # each window is the half-open pixel range [x0, x1) x [y0, y1); x1 is
    # clipped before it is formed, as x + hx + 1 can pass int64 on wide images
    x0, x1 = np.maximum(xs - hx, 0), xs + 1 + np.minimum(hx, dims.width - 1 - xs)
    y0, y1 = np.maximum(ys - hy, 0), ys + 1 + np.minimum(hy, dims.height - 1 - ys)
    ex, ix = np.unique(np.concatenate([x0, x1]), return_inverse=True)
    ey, iy = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    (i0, i1), (j0, j1) = ix.reshape(2, -1), iy.reshape(2, -1) * len(ex)

    # 2-D difference array over grid cells; after both prefix sums a cell
    # holds the number of windows covering it.  Cell (j, i) spans
    # [ex[i], ex[i+1]) x [ey[j], ey[j+1]); the last row and column lie
    # past every window and stay zero.  The corners are scattered through
    # the flat view at index j * len(ex) + i, with an operand of the grid's
    # dtype: a Python int sends ufunc.at to its slow generic loop.
    diff = np.zeros((len(ey), len(ex)), dtype=np.int32)
    one = np.int32(1)
    np.add.at(diff.reshape(-1), np.concatenate([j0 + i0, j1 + i1]), one)
    np.subtract.at(diff.reshape(-1), np.concatenate([j0 + i1, j1 + i0]), one)
    np.cumsum(diff, axis=0, dtype=np.int32, out=diff)
    np.cumsum(diff, axis=1, dtype=np.int32, out=diff)
    covered = diff[:-1, :-1] > 0
    # einsum reduces the bool grid in buffered chunks; `@` would first cast
    # all of it to int64
    covered_height = np.einsum("j,ji->i", np.diff(ey), covered)
    area = int(covered_height @ np.diff(ex))
    return area / dims.pixel_count


def write_pgm(cmap: CoverageMap, path) -> None:
    """Export as a binary P5 graymap for visual inspection (255 = covered)."""
    data = np.where(cmap.covered, 255, 0).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{cmap.dims.width} {cmap.dims.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
