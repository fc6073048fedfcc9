"""Tests for coverage maps and coverage scores.

Two oracles live here.  `reference_map` marks pixels by direct broadcast
over all inliers, O(n * width * height); the library's separable scan must
match it bit for bit, and the raster-free coverage_fraction must equal the
raster's score exactly.  `grid_fraction` counts the union of the windows on
a grid compressed to their edges, so it checks the block kernel of
coverage_fractions on images far beyond the raster's reach.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poseconf.coverage
from poseconf.coverage import (
    CoverageMap,
    CoverageParams,
    ImageDims,
    InlierSet,
    coverage_fraction,
    coverage_fractions,
    coverage_map,
    coverage_score,
    neighborhood_half_extents,
    write_pgm,
)
from poseconf.errors import InvalidConfig, InvariantViolation


def reference_map(inliers: InlierSet, params: CoverageParams = CoverageParams()):
    """Pixel (x, y) is covered iff some inlier has |px-x|<=hx and |py-y|<=hy."""
    dims = inliers.dims
    hx, hy = neighborhood_half_extents(dims, params)
    if len(inliers) == 0:
        return np.zeros((dims.height, dims.width), dtype=bool)
    xs = np.arange(dims.width)
    ys = np.arange(dims.height)
    px = inliers.points[:, 0][:, None, None]
    py = inliers.points[:, 1][:, None, None]
    near = (np.abs(xs[None, None, :] - px) <= hx) & (
        np.abs(ys[None, :, None] - py) <= hy
    )
    return np.any(near, axis=0)


def grid_fraction(inliers: InlierSet, params: CoverageParams = CoverageParams()) -> float:
    """The covered fraction, counted on a grid compressed to the windows'
    distinct x and y edges: at most min(2n, W+1) x min(2n, H+1) cells for
    n inliers on a W x H image, whatever its area."""
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
    # [ex[i], ex[i+1]) x [ey[j], ey[j+1]); the last row and column lie past
    # every window and stay zero.
    diff = np.zeros((len(ey), len(ex)), dtype=np.int64)
    np.add.at(diff.reshape(-1), np.concatenate([j0 + i0, j1 + i1]), 1)
    np.subtract.at(diff.reshape(-1), np.concatenate([j0 + i1, j1 + i0]), 1)
    covered = np.cumsum(np.cumsum(diff, axis=0), axis=1)[:-1, :-1] > 0
    area = int(np.diff(ey) @ covered @ np.diff(ex))
    return area / dims.pixel_count


class TestHalfExtents:
    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((1600, 1200), (53, 40)),
            ((1200, 1600), (40, 53)),
            ((30, 30), (1, 1)),
            ((320, 240), (11, 8)),
        ],
    )
    def test_known_sizes(self, dims, expected):
        assert neighborhood_half_extents(ImageDims(*dims)) == expected

    def test_rounds_half_up(self):
        # 75 / 15 / 2 = 2.5 exactly; banker's rounding would give 2
        assert neighborhood_half_extents(ImageDims(75, 75)) == (3, 3)

    def test_minimum_clamp(self):
        # 4 / 15 / 2 rounds to 0, clamped up to the minimum
        assert neighborhood_half_extents(ImageDims(4, 4)) == (1, 1)
        params = CoverageParams(min_half_extent=5)
        assert neighborhood_half_extents(ImageDims(30, 30), params) == (5, 5)

    def test_fraction_scales_window(self):
        params = CoverageParams(neighborhood_fraction=0.5)
        assert neighborhood_half_extents(ImageDims(100, 40), params) == (25, 10)


class TestHandCases:
    # 30x30 image with the default fraction has hx = hy = 1: each inlier
    # covers a 3x3 block, clipped at the borders

    def test_single_center_inlier(self):
        inliers = InlierSet(np.array([[15, 15]]), ImageDims(30, 30))
        cmap = coverage_map(inliers)
        assert int(np.count_nonzero(cmap.covered)) == 9
        assert coverage_score(cmap) == pytest.approx(9 / 900)

    def test_single_corner_inlier(self):
        inliers = InlierSet(np.array([[0, 0]]), ImageDims(30, 30))
        cmap = coverage_map(inliers)
        assert int(np.count_nonzero(cmap.covered)) == 4
        assert coverage_score(cmap) == pytest.approx(4 / 900)
        assert cmap.covered[0, 0] and cmap.covered[1, 1]
        assert not cmap.covered[2, 0] and not cmap.covered[0, 2]

    def test_opposite_corner_inlier(self):
        inliers = InlierSet(np.array([[29, 29]]), ImageDims(30, 30))
        cmap = coverage_map(inliers)
        assert int(np.count_nonzero(cmap.covered)) == 4

    def test_edge_inlier(self):
        inliers = InlierSet(np.array([[0, 15]]), ImageDims(30, 30))
        assert int(np.count_nonzero(coverage_map(inliers).covered)) == 6

    def test_empty_set_scores_zero(self):
        inliers = InlierSet(np.zeros((0, 2)), ImageDims(30, 30))
        cmap = coverage_map(inliers)
        assert not cmap.covered.any()
        assert coverage_score(cmap) == 0.0

    def test_grid_saturates_image(self):
        # points every 3 pixels cover everything when the window is 3x3
        coords = np.arange(1, 30, 3)
        pts = np.array([(x, y) for x in coords for y in coords])
        cmap = coverage_map(InlierSet(pts, ImageDims(30, 30)))
        assert coverage_score(cmap) == 1.0

    def test_duplicates_do_not_change_the_map(self):
        dims = ImageDims(30, 30)
        once = coverage_map(InlierSet(np.array([[7, 9]]), dims))
        twice = coverage_map(InlierSet(np.array([[7, 9], [7, 9]]), dims))
        assert once == twice

    def test_float_coordinates_floor_to_pixels(self):
        dims = ImageDims(30, 30)
        floored = coverage_map(InlierSet(np.array([[2.0, 3.0]]), dims))
        fractional = coverage_map(InlierSet(np.array([[2.9, 3.7]]), dims))
        assert floored == fractional


def test_matches_reference_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        w = int(rng.integers(1, 65))
        h = int(rng.integers(1, 65))
        n = int(rng.integers(0, 51))
        pts = np.column_stack(
            [rng.uniform(0, w, size=n), rng.uniform(0, h, size=n)]
        )
        inliers = InlierSet(pts, ImageDims(w, h))
        got = coverage_map(inliers)
        np.testing.assert_array_equal(got.covered, reference_map(inliers))


def test_matches_reference_with_custom_params():
    rng = np.random.default_rng(7)
    params = CoverageParams(neighborhood_fraction=0.3, min_half_extent=2)
    for _ in range(50):
        w = int(rng.integers(2, 40))
        h = int(rng.integers(2, 40))
        pts = np.column_stack(
            [rng.uniform(0, w, size=12), rng.uniform(0, h, size=12)]
        )
        inliers = InlierSet(pts, ImageDims(w, h))
        np.testing.assert_array_equal(
            coverage_map(inliers, params).covered, reference_map(inliers, params)
        )


class TestValidation:
    def test_image_dims_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            ImageDims(0, 10)
        with pytest.raises(InvariantViolation):
            ImageDims(10, -1)

    @pytest.mark.parametrize("width, height", [
        (2.5, 3), (3, 2.0), (True, 5), (5, False), ("4", 3), (None, 3),
    ])
    def test_image_dims_refuse_a_non_integer_by_type(self, width, height):
        with pytest.raises(InvariantViolation, match="must be integers"):
            ImageDims(width, height)

    def test_image_dims_take_any_integer_type(self):
        assert ImageDims(np.int64(4), np.uint16(3)).pixel_count == 12

    def test_pixel_count_must_fit_int64(self):
        # coverage_fraction sums the covered area in int64; 2**62 x 24 would wrap
        with pytest.raises(InvariantViolation):
            ImageDims(2**62, 24)
        with pytest.raises(InvariantViolation):
            ImageDims(2**32, 2**31)
        assert ImageDims(2**32, 2**31 - 1).pixel_count == 2**63 - 2**32

    def test_window_edge_near_int64_does_not_wrap(self):
        # x + hx + 1 passes 2**63 here; the window must still end at the border
        width = 2**63 - 2048
        dims = ImageDims(width, 1)
        hx, _ = neighborhood_half_extents(dims)
        inliers = InlierSet(np.array([[width - 2048, 0]]), dims)
        assert coverage_fraction(inliers) == (hx + 2048) / width
        huge = CoverageParams(min_half_extent=2**70)
        assert coverage_fraction(inliers, huge) == 1.0

    def test_int64_coordinates_stay_exact(self):
        # float64 holds every integer only up to 2**53
        source = np.array([[2**53 + 1, 0]])
        inliers = InlierSet(source, ImageDims(2**62, 1))
        source[0, 0] = 0  # the set holds its own copy
        assert inliers.points[0, 0] == 2**53 + 1

    def test_coordinate_near_int64_max_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a float64 round trip warns on the cast back
            inliers = InlierSet(np.array([[2**63 - 300, 0]]), ImageDims(2**63 - 1, 1))
        assert inliers.points[0, 0] == 2**63 - 300

    def test_uint64_coordinates_stay_exact(self):
        source = np.array([[2**53 + 1, 0]], dtype=np.uint64)
        inliers = InlierSet(source, ImageDims(2**62, 1))
        assert inliers.points.dtype == np.int64
        assert inliers.points[0, 0] == 2**53 + 1

    def test_uint64_coordinate_beyond_int64_is_rejected(self):
        source = np.array([[2**63 + 5, 0]], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way
            with pytest.raises(InvariantViolation):
                InlierSet(source, ImageDims(2**63 - 1, 1))

    def test_int32_coordinates_are_accepted(self):
        inliers = InlierSet(np.array([[3, 4], [7, 5]], dtype=np.int32), ImageDims(8, 6))
        assert inliers.points.dtype == np.int64
        assert inliers.points.tolist() == [[3, 4], [7, 5]]

    def test_params_validation(self):
        with pytest.raises(InvalidConfig):
            CoverageParams(neighborhood_fraction=0.0)
        with pytest.raises(InvalidConfig):
            CoverageParams(neighborhood_fraction=1.5)
        with pytest.raises(InvalidConfig):
            CoverageParams(min_half_extent=0)
        # as read from a model file
        with pytest.raises(InvalidConfig):
            CoverageParams(neighborhood_fraction="0.1")
        with pytest.raises(InvalidConfig):
            CoverageParams(neighborhood_fraction=float("nan"))
        with pytest.raises(InvalidConfig):
            CoverageParams(min_half_extent=1.5)

    @pytest.mark.parametrize("field", ["neighborhood_fraction", "min_half_extent"])
    def test_a_bool_is_not_a_param(self, field):
        with pytest.raises(InvalidConfig, match=field):
            CoverageParams(**{field: True})

    def test_out_of_bounds_points_rejected(self):
        dims = ImageDims(30, 30)
        with pytest.raises(InvariantViolation):
            InlierSet(np.array([[30, 0]]), dims)  # x == width
        with pytest.raises(InvariantViolation):
            InlierSet(np.array([[0, 30]]), dims)
        with pytest.raises(InvariantViolation):
            InlierSet(np.array([[-0.5, 5]]), dims)  # floors to -1

    def test_bad_point_shapes_rejected(self):
        dims = ImageDims(30, 30)
        with pytest.raises(InvariantViolation):
            InlierSet(np.zeros((2, 3)), dims)
        with pytest.raises(InvariantViolation):
            InlierSet(np.array([[np.nan, 1.0]]), dims)

    def test_coverage_map_shape_checked(self):
        with pytest.raises(InvariantViolation):
            CoverageMap(ImageDims(4, 3), np.zeros((4, 4), dtype=bool))


points_strategy = st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 29)), min_size=0, max_size=25
)


@settings(max_examples=80, deadline=None)
@given(points=points_strategy)
def test_score_is_a_fraction(points):
    inliers = InlierSet(np.array(points, dtype=float).reshape(-1, 2), ImageDims(40, 30))
    score = coverage_score(coverage_map(inliers))
    assert 0.0 <= score <= 1.0
    if points:
        assert score > 0.0


@settings(max_examples=80, deadline=None)
@given(points=points_strategy, extra=st.tuples(st.integers(0, 39), st.integers(0, 29)))
def test_adding_a_point_never_shrinks_coverage(points, extra):
    dims = ImageDims(40, 30)
    base = coverage_map(InlierSet(np.array(points, dtype=float).reshape(-1, 2), dims))
    grown = coverage_map(
        InlierSet(np.array(points + [extra], dtype=float).reshape(-1, 2), dims)
    )
    # every pixel covered before stays covered
    assert np.all(grown.covered >= base.covered)
    assert coverage_score(grown) >= coverage_score(base)


@st.composite
def inliers_and_params(draw):
    """Any image from 1x1 up, with points biased to borders and duplicates."""
    w = draw(st.integers(1, 48))
    h = draw(st.integers(1, 48))
    xs = st.one_of(st.sampled_from([0, w - 1]), st.integers(0, w - 1))
    ys = st.one_of(st.sampled_from([0, h - 1]), st.integers(0, h - 1))
    points = draw(st.lists(st.tuples(xs, ys), max_size=30))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=5))  # duplicates
    params = CoverageParams(
        neighborhood_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_half_extent=draw(st.integers(1, 6)),
    )
    inliers = InlierSet(np.array(points, dtype=np.int64).reshape(-1, 2), ImageDims(w, h))
    return inliers, params


@settings(max_examples=300, deadline=None)
@given(case=inliers_and_params())
def test_fraction_equals_raster_score(case):
    inliers, params = case
    assert coverage_fraction(inliers, params) == coverage_score(coverage_map(inliers, params))


def test_pgm_export_bytes(tmp_path):
    grid = np.array([[True, False, True], [False, True, False]])
    cmap = CoverageMap(ImageDims(3, 2), grid)
    path = tmp_path / "map.pgm"
    write_pgm(cmap, path)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + bytes([255, 0, 255, 0, 255, 0])


@st.composite
def batches(draw):
    """Images of any size W x H <= 2**63 - 1, alone or together, with random
    params, empty sets, duplicates and points at the borders or in a cluster."""
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        w, h = draw(st.one_of(
            st.sampled_from([(1, 2**63 - 1), (2**63 - 1, 1), (3037000499, 3037000499)]),
            st.tuples(st.integers(1, 48), st.integers(1, 48)),
            st.integers(1, 2**63 - 1).flatmap(
                lambda w: st.tuples(st.just(w), st.integers(1, (2**63 - 1) // w))
            ),
        ))
        cx, cy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        xs = st.one_of(
            st.sampled_from([0, w - 1]), st.integers(0, w - 1),
            st.integers(max(cx - 12, 0), min(cx + 12, w - 1)),
        )
        ys = st.one_of(
            st.sampled_from([0, h - 1]), st.integers(0, h - 1),
            st.integers(max(cy - 12, 0), min(cy + 12, h - 1)),
        )
        points = draw(st.lists(st.tuples(xs, ys), max_size=30))
        if points:
            points += draw(st.lists(st.sampled_from(points), max_size=5))  # duplicates
        sets.append(InlierSet(np.array(points, dtype=np.int64).reshape(-1, 2), ImageDims(w, h)))
    params = CoverageParams(
        neighborhood_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_half_extent=draw(st.one_of(st.integers(1, 6), st.integers(1, 2**70))),
    )
    return sets, params


@settings(max_examples=300, deadline=None)
@given(case=batches())
@example(case=(  # windows wider than images as wide or as tall as int64 allows
    [InlierSet(np.array([[0, 0], [2**63 - 2, 0]]), ImageDims(2**63 - 1, 1)),
     InlierSet(np.array([[0, 2**62]]), ImageDims(1, 2**63 - 1))],
    CoverageParams(min_half_extent=2**70),
))
def test_batch_equals_grid_oracle_on_any_image(case):
    sets, params = case
    expected = [grid_fraction(s, params) for s in sets]
    assert coverage_fractions(sets, params) == expected
    assert [coverage_fraction(s, params) for s in sets] == expected
    with mock.patch.object(poseconf.coverage, "INLIER_BUDGET", 5):  # batches cut between sets
        assert coverage_fractions(sets, params) == expected


def _peak_mb(batch) -> float:
    coverage_fractions(batch)  # any first-call allocation is not the kernel's
    tracemalloc.start()
    try:
        coverage_fractions(batch)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_grows_with_the_inliers_not_the_area():
    rng = np.random.default_rng(8000)
    points = np.column_stack([rng.integers(0, 4032, 8000), rng.integers(0, 3024, 8000)])
    assert _peak_mb([InlierSet(points, ImageDims(4032, 3024))]) < 8  # an area-sized grid is 60 MB
    tall = InlierSet(np.array([[0, 0], [0, 2**62], [0, 2**63 - 2]]), ImageDims(1, 2**63 - 1))
    assert _peak_mb([tall]) < 1
