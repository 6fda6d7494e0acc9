"""Context pipeline: extraction, windowing, normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.context import (
    CellFeatureTransform,
    ContextBuilder,
    EnvFeatureNormalizer,
    EnvironmentContextExtractor,
    N_CELL_ATTRIBUTES,
    N_CELL_FEATURES,
    NetworkContextExtractor,
    TargetNormalizer,
    window_starts,
)
from repro.context import extract
from repro.context.extract import D_S_M, ENV_CELL_M
from repro.core import GenDTConfig
from repro.context.normalize import P_MAX_MEAN_DBM, P_MAX_STD_DB
from repro.geo import LocalFrame, Trajectory, from_waypoints
from repro.world import POI_CLASSES
from repro.world.poi import STRIP_M, PoiIndex
from repro.world.attributes import N_LAND_USE


def loop_fractions_within(raster, lat, lon, radius_m):
    """``LandUseRaster.fractions_within`` as a loop over pixel offsets.

    The per-offset form the vectorised query must match bit for bit: each
    offset adds its masked pixel into the running total in this order.
    """
    x, y = raster.frame.to_xy(lat, lon)
    shape = np.shape(x)
    x, y = np.ravel(x), np.ravel(y)
    rows, cols = raster.shape
    r_pix = max(1, int(np.ceil(radius_m / raster.pixel_m)))
    row0, col0 = raster._pixel_of_xy(x, y)
    total = np.zeros((len(x), N_LAND_USE))
    n_pixels = np.zeros(len(x))
    for d_row in range(-r_pix, r_pix + 1):
        row = row0 + d_row
        row_in = (row >= 0) & (row < rows)
        dy2 = ((row + 0.5) * raster.pixel_m + raster.y_min - y) ** 2
        for d_col in range(-r_pix, r_pix + 1):
            col = col0 + d_col
            dx2 = ((col + 0.5) * raster.pixel_m + raster.x_min - x) ** 2
            hit = row_in & (col >= 0) & (col < cols) & (dy2 + dx2 <= radius_m**2)
            pixel = raster.fractions[np.clip(row, 0, rows - 1), np.clip(col, 0, cols - 1)]
            total += pixel * hit[:, None]
            n_pixels += hit
    out = total / np.maximum(n_pixels, 1.0)[:, None]
    for i in np.flatnonzero(n_pixels == 0):
        block = raster.fractions[
            max(0, row0[i] - r_pix) : row0[i] + r_pix + 1,
            max(0, col0[i] - r_pix) : col0[i] + r_pix + 1,
        ]
        out[i] = block.reshape(-1, N_LAND_USE).mean(axis=0)
    return out.reshape(shape + (N_LAND_USE,))


def poi_points(pois):
    """The index's PoIs as an [P, 2] array, in the order of ``pois._class_of``."""
    return np.stack([pois._x, pois._y], axis=1)


def loop_counts_within(pois, lat, lon, radius_m):
    """``PoiIndex.counts_within`` as one k-d tree and one ball query per class."""
    x, y = pois.frame.to_xy(lat, lon)
    centres = np.stack([np.ravel(x), np.ravel(y)], axis=1)
    points = poi_points(pois)
    counts = np.stack(
        [
            cKDTree(points[pois._class_of == k]).query_ball_point(centres, radius_m, return_length=True)
            for k in range(len(POI_CLASSES))
        ],
        axis=1,
    ).astype(float)
    return counts.reshape(np.shape(x) + (len(POI_CLASSES),))


def loop_cell_transform(frame, window, ue_lat, ue_lon):
    """``CellFeatureTransform.__call__`` as a loop over cells (the bitwise reference)."""
    raw = window.cell_features
    length, n_cells, _ = raw.shape
    ux, uy = frame.to_xy(ue_lat, ue_lon)
    out = np.empty((length, n_cells, N_CELL_FEATURES))
    for j in range(n_cells):
        cx, cy = frame.to_xy(raw[0, j, 0], raw[0, j, 1])
        dx = (float(cx) - ux) / 1000.0
        dy = (float(cy) - uy) / 1000.0
        out[:, j, 0] = dx
        out[:, j, 1] = dy
        out[:, j, 2] = (raw[:, j, 2] - P_MAX_MEAN_DBM) / P_MAX_STD_DB
        bearing_to_ue = np.degrees(np.arctan2(-dx, -dy)) % 360.0
        dir_rel = np.radians(bearing_to_ue - raw[:, j, 3])
        out[:, j, 3] = np.sin(dir_rel)
        out[:, j, 4] = np.cos(dir_rel)
        out[:, j, 5] = raw[:, j, 4] / 1000.0
    return out


class TestWindowStarts:
    def test_exact_cover(self):
        assert window_starts(100, 50, 50) == [0, 50]

    def test_overlapping(self):
        starts = window_starts(100, 50, 10)
        assert starts[0] == 0
        assert starts[-1] == 50
        assert all(b - a == 10 for a, b in zip(starts[:-2], starts[1:-1]))

    def test_tail_anchored(self):
        starts = window_starts(103, 50, 50)
        assert starts[-1] == 53  # tail window covers the last samples

    def test_short_series(self):
        assert window_starts(30, 50, 10) == [0]

    def test_empty(self):
        assert window_starts(0, 50, 10) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            window_starts(100, 0, 10)
        with pytest.raises(ValueError):
            window_starts(100, 10, 0)


class TestNetworkContext:
    @pytest.fixture(scope="class")
    def extractor(self, small_region):
        return NetworkContextExtractor(small_region)

    def test_distances_shape(self, extractor, sample_trajectory, small_region):
        d = extractor.distances(sample_trajectory)
        assert d.shape == (len(sample_trajectory), len(small_region.deployment))

    def test_window_cells_within_ds(self, extractor, sample_trajectory):
        distances = extractor.distances(sample_trajectory)
        cells = extractor.window_cells(distances, 0, 30)
        assert len(cells) > 0
        block = distances[0:30][:, cells]
        assert (block <= D_S_M).any(axis=0).all()

    def test_max_cells_cap(self, extractor, sample_trajectory):
        distances = extractor.distances(sample_trajectory)
        cells = extractor.window_cells(distances, 0, 30, max_cells=3)
        assert len(cells) <= 3

    def test_cells_sorted_by_mean_distance(self, extractor, sample_trajectory):
        distances = extractor.distances(sample_trajectory)
        cells = extractor.window_cells(distances, 0, 30)
        means = distances[0:30][:, cells].mean(axis=0)
        assert np.all(np.diff(means) >= 0)

    def test_coverage_hole_falls_back_to_the_nearest_cell_by_mean(self, small_region, monkeypatch):
        # No cell within d_s anywhere in the window: the one cell with the
        # smallest mean distance over the window's rows, not the one that
        # comes nearest at a single step (cell 0, at step 0).
        monkeypatch.setattr(extract, "D_S_M", 0.5)
        extractor = NetworkContextExtractor(small_region)
        distances = np.array([
            [1.0, 40.0, 12.0],
            [30.0, 11.0, 12.0],
            [30.0, 11.0, 12.0],
            [30.0, 11.0, 12.0],
        ])
        assert extractor.window_cells(distances, 0, 4) == [2]
        assert extractor.window_cells(distances, 1, 4, max_cells=3) == [1]

    def test_coverage_hole_on_a_route(self, small_region, sample_trajectory, monkeypatch):
        monkeypatch.setattr(extract, "D_S_M", 1e-3)
        extractor = NetworkContextExtractor(small_region)
        distances = extractor.distances(sample_trajectory)
        assert (distances[:30] > 1e-3).all()
        expected = int(np.argmin(distances[:30].mean(axis=0)))
        assert extractor.window_cells(distances, 0, 30, max_cells=8) == [expected]

    def test_window_features_schema(self, extractor, sample_trajectory):
        distances = extractor.distances(sample_trajectory)
        cells = extractor.window_cells(distances, 0, 20, max_cells=4)
        features = extractor.window_features(distances, cells, 0, 20)
        assert features.shape == (20, len(cells), N_CELL_ATTRIBUTES)
        # Static attributes constant over the window; distance varies.
        assert np.all(features[0, :, 0] == features[-1, :, 0])  # lat
        assert np.all(features[:, :, 4] >= 0)                   # distance
        for j, idx in enumerate(cells):
            cell = extractor.deployment.cells[idx]
            static = [cell.lat, cell.lon, cell.p_max_dbm, cell.direction_deg]
            assert np.array_equal(features[:, j, :4], np.tile(static, (20, 1)))
            assert np.array_equal(features[:, j, 4], distances[0:20, idx])


def location_cells(region, trajectory):
    """The 50 m location cell of every sample, as (ix, iy) rows."""
    x, y = region.frame.to_xy(trajectory.lat, trajectory.lon)
    return np.stack([x // ENV_CELL_M, y // ENV_CELL_M], axis=1).astype(int)


class TestEnvironmentContext:
    def test_features_shape(self, small_region, sample_trajectory):
        extractor = EnvironmentContextExtractor(small_region)
        env = extractor.features(sample_trajectory)
        assert env.shape == (len(sample_trajectory), 26)
        # Land-use fractions sum to ~1.
        np.testing.assert_allclose(env[:, :12].sum(axis=1), 1.0, atol=1e-6)
        assert np.all(env[:, 12:] >= 0)  # PoI counts

    def test_empty_trajectory_gives_no_rows(self, small_region):
        empty = Trajectory(np.zeros(0), np.zeros(0), np.zeros(0))
        env = EnvironmentContextExtractor(small_region).features(empty)
        assert env.shape == (0, 26) and env.dtype == np.float64

    def test_cache_effective(self, small_region, sample_trajectory):
        extractor = EnvironmentContextExtractor(small_region)
        extractor.features(sample_trajectory)
        n_cache = len(extractor._cache)
        assert n_cache < len(sample_trajectory)  # nearby samples share entries

    def test_features_at_is_one_point_of_features(self, small_region, sample_trajectory):
        env = EnvironmentContextExtractor(small_region).features(sample_trajectory)
        extractor = EnvironmentContextExtractor(small_region)
        for t in (0, 17, len(sample_trajectory) - 1):
            point = extractor.features_at(sample_trajectory.lat[t], sample_trajectory.lon[t])
            assert np.array_equal(point, env[t])

    def test_reversed_trajectory_gives_reversed_features(self, small_region, sample_trajectory):
        forward = EnvironmentContextExtractor(small_region).features(sample_trajectory)
        t, lat, lon = sample_trajectory.t, sample_trajectory.lat, sample_trajectory.lon
        backward = EnvironmentContextExtractor(small_region).features(
            Trajectory(t, lat[::-1], lon[::-1])
        )
        assert np.array_equal(backward, forward[::-1])

    def test_features_independent_of_earlier_routes(self, small_region, sample_trajectory):
        fresh = EnvironmentContextExtractor(small_region).features(sample_trajectory)
        warmed = EnvironmentContextExtractor(small_region)
        rng = np.random.default_rng(21)
        roads = small_region.roads
        for _ in range(2):
            route = roads.random_walk_route(rng, 3000.0, city="testcity")
            warmed.features(roads.route_to_trajectory(route, 6.0, 1.0, "warm", rng))
        # A walk back along the same streets visits the same cells first.
        path = list(zip(sample_trajectory.lat, sample_trajectory.lon))[::-1]
        warmed.features(from_waypoints(path, speed_mps=1.4, interval_s=1.0))
        assert np.array_equal(warmed.features(sample_trajectory), fresh)

    def test_shared_road_segment_gets_identical_context(self, small_region):
        """Spatial consistency: the same place gets the same conditioning.

        A walk and a bus share the middle of their routes, driven in
        opposite directions, each through its own extractor; wherever their
        samples fall in the same location cell, the environment context
        must be identical.
        """
        rng = np.random.default_rng(8)
        nodes = small_region.roads.random_walk_route(rng, 2500.0, city="testcity")
        walk = from_waypoints(nodes[:-2], speed_mps=1.4, interval_s=1.0)
        bus = from_waypoints(nodes[2:][::-1], speed_mps=7.3, interval_s=1.0)
        walk_env = EnvironmentContextExtractor(small_region).features(walk)
        bus_env = EnvironmentContextExtractor(small_region).features(bus)
        walk_cells = location_cells(small_region, walk)
        bus_cells = location_cells(small_region, bus)
        shared = 0
        for j, cell in enumerate(bus_cells):
            same = np.flatnonzero((walk_cells == cell).all(axis=1))
            for i in same:
                assert np.array_equal(walk_env[i], bus_env[j])
            shared += len(same) > 0
        assert 20 <= shared < len(bus)


class TestVectorisedEnvironmentQueries:
    """Batched land-use and PoI queries against a per-point brute force."""

    RADIUS_M = 500.0

    @pytest.fixture(scope="class")
    def points(self, small_region):
        land_use = small_region.land_use
        rows, cols = land_use.shape
        x_max = land_use.x_min + cols * land_use.pixel_m
        y_max = land_use.y_min + rows * land_use.pixel_m
        rng = np.random.default_rng(4)
        inside = rng.uniform([land_use.x_min, land_use.y_min], [x_max, y_max], size=(300, 2))
        edges = np.array([
            [land_use.x_min, land_use.y_min], [x_max, y_max], [land_use.x_min, 0.0],
            [0.0, y_max], [x_max - 1e-6, land_use.y_min + 1e-6],
        ])
        near = np.array([[land_use.x_min - 300.0, 0.0], [x_max + 300.0, y_max + 10.0]])
        far = np.array([[land_use.x_min - 2000.0, 0.0], [x_max + 5000.0, y_max + 5000.0]])
        xy = np.concatenate([inside, edges, near, far])
        lat, lon = small_region.frame.to_latlon(xy[:, 0], xy[:, 1])
        return xy, lat, lon

    def test_fractions_match_per_point_brute_force(self, small_region, points):
        xy, lat, lon = points
        land_use = small_region.land_use
        rows, cols = land_use.shape
        centre_y = (np.arange(rows) + 0.5) * land_use.pixel_m + land_use.y_min
        centre_x = (np.arange(cols) + 0.5) * land_use.pixel_m + land_use.x_min
        r_pix = int(np.ceil(self.RADIUS_M / land_use.pixel_m))
        expected, fallbacks = [], 0
        for x, y in xy:
            in_disk = (centre_y[:, None] - y) ** 2 + (centre_x[None, :] - x) ** 2 <= self.RADIUS_M**2
            if in_disk.any():
                expected.append(land_use.fractions[in_disk].mean(axis=0))
                continue
            fallbacks += 1
            row = int(np.clip((y - land_use.y_min) // land_use.pixel_m, 0, rows - 1))
            col = int(np.clip((x - land_use.x_min) // land_use.pixel_m, 0, cols - 1))
            block = land_use.fractions[
                max(0, row - r_pix) : row + r_pix + 1, max(0, col - r_pix) : col + r_pix + 1
            ]
            expected.append(block.reshape(-1, block.shape[-1]).mean(axis=0))
        assert fallbacks == 2  # the far points exercise the fallback branch
        got = land_use.fractions_within(lat, lon, self.RADIUS_M)
        np.testing.assert_allclose(got, np.array(expected), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("radius_m", [50.0, 150.0, 500.0, 1000.0])
    def test_fractions_bit_equal_to_offset_loop(self, small_region, points, radius_m):
        _, lat, lon = points
        land_use = small_region.land_use
        got = land_use.fractions_within(lat, lon, radius_m)
        assert np.array_equal(got, loop_fractions_within(land_use, lat, lon, radius_m))

    def test_fractions_bit_equal_over_many_chunks(self, small_region, points):
        # Four copies of the fixture (inside, edge, near and far points),
        # shuffled: well over one chunk of points, with fallbacks in several.
        _, lat, lon = points
        order = np.random.default_rng(6).permutation(4 * len(lat))
        lat, lon = np.tile(lat, 4)[order], np.tile(lon, 4)[order]
        land_use = small_region.land_use
        got = land_use.fractions_within(lat, lon, self.RADIUS_M)
        assert got.shape == (len(lat), N_LAND_USE)
        assert np.array_equal(got, loop_fractions_within(land_use, lat, lon, self.RADIUS_M))

    def test_fractions_scalar_and_empty_input(self, small_region, points):
        _, lat, lon = points
        land_use = small_region.land_use
        for i in (0, len(lat) - 1):  # an inside point and a far (fallback) one
            got = land_use.fractions_within(lat[i], lon[i], self.RADIUS_M)
            assert got.shape == (N_LAND_USE,)
            want = loop_fractions_within(land_use, lat[i], lon[i], self.RADIUS_M)
            assert np.array_equal(got, want)
        empty = land_use.fractions_within(np.zeros(0), np.zeros(0), self.RADIUS_M)
        assert empty.shape == (0, N_LAND_USE)

    def test_poi_counts_match_per_point_brute_force(self, small_region, points):
        xy, lat, lon = points
        pois = small_region.pois
        expected = np.array([
            [
                np.count_nonzero(
                    ((poi_points(pois)[pois._class_of == k] - point) ** 2).sum(axis=1)
                    <= self.RADIUS_M**2
                )
                for k in range(len(POI_CLASSES))
            ]
            for point in xy
        ])
        assert expected.sum() > 0
        assert np.array_equal(pois.counts_within(lat, lon, self.RADIUS_M), expected)


    def test_poi_counts_match_per_class_loop(self, small_region, points):
        _, lat, lon = points
        pois = small_region.pois
        got = pois.counts_within(lat, lon, self.RADIUS_M)
        assert np.array_equal(got, loop_counts_within(pois, lat, lon, self.RADIUS_M))
        # Query points sitting on PoIs, and the scalar and empty cases.
        on_lat, on_lon = pois.frame.to_latlon(*poi_points(pois)[::7].T)
        assert np.array_equal(
            pois.counts_within(on_lat, on_lon, self.RADIUS_M),
            loop_counts_within(pois, on_lat, on_lon, self.RADIUS_M),
        )
        assert np.array_equal(
            pois.counts_within(lat[0], lon[0], self.RADIUS_M),
            loop_counts_within(pois, lat[0], lon[0], self.RADIUS_M),
        )
        assert pois.counts_within(np.zeros(0), np.zeros(0), self.RADIUS_M).shape == (0, len(POI_CLASSES))

    def test_poi_at_exactly_the_radius_counts(self):
        frame = LocalFrame(51.5, -0.1)
        radius = self.RADIUS_M
        just_out = np.nextafter(radius, np.inf)
        points = {
            POI_CLASSES[0]: np.array([[radius, 0.0], [0.0, -radius], [just_out, 0.0]]),
            POI_CLASSES[3]: np.array([[-radius, 0.0], [0.0, just_out]]),
            POI_CLASSES[-1]: np.array([[0.0, 0.0]]),
        }
        pois = PoiIndex(frame, points)
        want = np.zeros(len(POI_CLASSES))
        want[[0, 3, -1]] = [2, 1, 1]
        assert np.array_equal(pois.counts_within(frame.lat0, frame.lon0, radius), want)
        assert np.array_equal(loop_counts_within(pois, frame.lat0, frame.lon0, radius), want)


def brute_counts_within(points, class_of, qx, qy, radius_m):
    """PoIs of each class within ``radius_m`` of each (qx, qy), one distance per pair."""
    d = points[None, :, :] - np.stack([qx, qy], axis=1)[:, None, :]
    hit = (d * d).sum(axis=2) <= radius_m * radius_m
    return np.stack([hit[:, class_of == k].sum(axis=1) for k in range(len(POI_CLASSES))], axis=1)


class TestPoiIndexProperties:
    FRAME = LocalFrame(51.5, -0.1)
    #: PoI and query coordinates on a 25 m grid, so PoIs sit exactly a
    #: radius away along x, along y or on a 3-4-5 diagonal.
    GRID = st.integers(-60, 60).map(lambda i: i * 25.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_match_brute_force(self, data):
        frame = self.FRAME
        radius = data.draw(st.sampled_from([1.0, 50.0, 125.0, 333.3, 500.0, 1250.0]), "radius")
        near = data.draw(st.lists(st.tuples(self.GRID, self.GRID), max_size=6), "queries")
        far_coord = st.sampled_from([-1e7, -3e4, 3e4, 1e7])
        far = data.draw(st.lists(st.tuples(far_coord, self.GRID | far_coord), max_size=2), "far")
        wanted = np.array(near + far, dtype=float).reshape(-1, 2)
        lat, lon = frame.to_latlon(wanted[:, 0], wanted[:, 1])
        qx, qy = frame.to_xy(lat, lon)  # what the index sees
        # Few PoIs over few classes, so most classes are empty.
        cls = st.integers(0, len(POI_CLASSES) - 1)
        pois = data.draw(st.lists(st.tuples(cls, self.GRID, self.GRID), max_size=40), "pois")
        for i in range(len(near)):
            # A PoI exactly ``radius`` from the query point along x or along y.
            for dx, dy in data.draw(st.lists(st.sampled_from(
                [(radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius)]
            ), max_size=2)):
                pois.append((data.draw(cls), qx[i] + dx, qy[i] + dy))
        if near and data.draw(st.booleans(), "strip edge"):
            # The lowest PoI sets the strips: put an edge at a query point's y,
            # or at the top or bottom of its reach.
            i = data.draw(st.integers(0, len(near) - 1))
            edge = qy[i] + data.draw(st.sampled_from([0.0, radius, radius + 1.0, -radius - 1.0]))
            y0 = edge - data.draw(st.integers(0, 3)) * STRIP_M
            pois = [p for p in pois if p[2] >= y0] + [(data.draw(cls), qx[i], y0)]
        points = np.array([p[1:] for p in pois], dtype=float).reshape(-1, 2)
        class_of = np.array([p[0] for p in pois], dtype=int)
        index = PoiIndex(frame, {
            name: points[class_of == k]
            for k, name in enumerate(POI_CLASSES)
            if data.draw(st.booleans()) or (class_of == k).any()  # some empty classes given
        })

        want = brute_counts_within(points, class_of, qx, qy, radius)
        got = index.counts_within(lat, lon, radius)
        assert got.shape == (len(wanted), len(POI_CLASSES))
        assert np.array_equal(got, want)
        if len(wanted):
            assert np.array_equal(index.counts_within(lat[0], lon[0], radius), want[0])
        assert index.counts_within(np.zeros(0), np.zeros(0), radius).shape == (0, len(POI_CLASSES))

    def test_index_with_no_pois(self):
        frame = self.FRAME
        index = PoiIndex(frame, {})
        lat, lon = frame.to_latlon(np.array([0.0, 1e3, -1e7]), np.array([0.0, -5e2, 1e7]))
        assert np.array_equal(index.counts_within(lat, lon, 500.0), np.zeros((3, len(POI_CLASSES))))
        assert np.array_equal(index.counts_within(lat[0], lon[0], 500.0), np.zeros(len(POI_CLASSES)))
        assert index.counts_within(np.zeros(0), np.zeros(0), 500.0).shape == (0, len(POI_CLASSES))


class TestContextBuilder:
    @pytest.fixture(scope="class")
    def builder(self, small_region):
        return ContextBuilder(small_region, 5)

    def test_training_windows(self, builder, sample_record):
        windows = builder.training_windows([sample_record], ["rsrp", "rsrq"], 30, 10)
        assert len(windows) > 2
        w = windows[0]
        assert w.cell_features.shape[0] == 30
        assert w.cell_features.shape[2] == N_CELL_ATTRIBUTES
        assert w.env_features.shape == (30, 26)
        assert w.target.shape == (30, 2)
        assert len(w.ue_lat) == 30

    def test_generation_windows_cover_everything(self, builder, sample_trajectory):
        windows = builder.generation_windows(sample_trajectory, 30)
        covered = np.zeros(len(sample_trajectory), dtype=bool)
        for w in windows:
            covered[w.start : w.start + w.length] = True
        assert covered.all()

    def test_target_alignment(self, builder, sample_record):
        windows = builder.training_windows([sample_record], ["rsrp"], 25, 25)
        full = sample_record.kpi["rsrp"]
        for w in windows:
            np.testing.assert_allclose(w.target[:, 0], full[w.start : w.start + 25])

    def test_misaligned_target_rejected(self, builder, sample_trajectory):
        with pytest.raises(ValueError):
            builder.windows_for_trajectory(
                sample_trajectory, 30, 10, target_matrix=np.zeros((5, 2))
            )


class TestNormalizers:
    def test_cell_transform_shape(self, small_region, sample_record):
        builder = ContextBuilder(small_region, 5)
        window = builder.training_windows([sample_record], ["rsrp"], 20, 20)[0]
        transform = CellFeatureTransform(small_region.frame)
        out = transform(window)
        assert out.shape == (20, window.n_cells, N_CELL_FEATURES)
        # sin/cos columns bounded.
        assert np.all(np.abs(out[:, :, 3:5]) <= 1.0 + 1e-9)
        # distance column in km, consistent with the raw attribute.
        np.testing.assert_allclose(
            out[:, :, 5], window.cell_features[:, :, 4] / 1000.0
        )

    @pytest.mark.parametrize("max_cells", [1, GenDTConfig().max_cells])
    def test_cell_transform_bit_equal_to_per_cell_loop(self, small_region, sample_record, max_cells):
        builder = ContextBuilder(small_region, max_cells)
        windows = builder.training_windows([sample_record], ["rsrp"], 25, 5)
        assert {w.n_cells for w in windows} == {max_cells}
        transform = CellFeatureTransform(small_region.frame)
        for window in windows:
            got = transform(window)
            want = loop_cell_transform(small_region.frame, window, window.ue_lat, window.ue_lon)
            assert np.array_equal(got, want)

    def test_env_normalizer_round_trip_properties(self, rng):
        raw = np.abs(rng.normal(size=(100, 26)))
        raw[:, :12] /= raw[:, :12].sum(axis=1, keepdims=True)
        norm = EnvFeatureNormalizer().fit(raw)
        out = norm(raw)
        assert out.shape == raw.shape
        # PoI columns are z-scored after log1p.
        assert np.abs(out[:, 12:].mean(axis=0)).max() < 1e-6

    def test_env_normalizer_requires_fit(self):
        with pytest.raises(RuntimeError):
            EnvFeatureNormalizer()(np.zeros((1, 26)))

    def test_env_normalizer_state_round_trip(self, rng):
        raw = np.abs(rng.normal(size=(50, 26)))
        norm = EnvFeatureNormalizer().fit(raw)
        restored = EnvFeatureNormalizer.from_state(norm.state())
        np.testing.assert_allclose(restored(raw), norm(raw))

    def test_target_normalizer_round_trip(self, rng):
        data = rng.normal(loc=[-90, -12], scale=[10, 2], size=(500, 2))
        norm = TargetNormalizer().fit(data)
        z = norm.normalize(data)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(norm.denormalize(z), data)

    def test_target_normalizer_state(self, rng):
        data = rng.normal(size=(100, 3))
        norm = TargetNormalizer().fit(data)
        restored = TargetNormalizer.from_state(norm.state())
        np.testing.assert_allclose(restored.normalize(data), norm.normalize(data))

    def test_target_normalizer_requires_fit(self):
        with pytest.raises(RuntimeError):
            TargetNormalizer().normalize(np.zeros((1, 2)))
