import io
from datetime import date

import numpy as np
import pytest
from conftest import T0, UTC
from hypothesis import given
from hypothesis import strategies as st

from microclimap.campaign import (AggregatedDrivers, CampaignPlan, Environment,
                                  Phase, PointResult, TraversePoint)
from microclimap.errors import DomainError, GridError
from microclimap.raster import (RasterLayer, Semantic, compute_ucp,
                                export_heat_map, geojson_dumps,
                                normalize_irradiance, parse_ascii_grid,
                                sample_at, write_ascii_grid)
from microclimap.thermal import ReferenceConditions, UtciInput, utci_offset, vapor_pressure

NODATA = -9999.0


def layer(values, semantic, xll=0.0, yll=0.0, cellsize=1.0, nodata=NODATA):
    arr = np.array(values, dtype=float)
    return RasterLayer(ncols=arr.shape[1], nrows=arr.shape[0],
                       xllcorner=xll, yllcorner=yll, cellsize=cellsize,
                       nodata=nodata, values=arr, semantic=semantic)


def grid_text(rows, nodata=NODATA):
    lines = [f"ncols {len(rows[0])}", f"nrows {len(rows)}",
             "xllcorner 0.0", "yllcorner 0.0", "cellsize 1.0",
             f"NODATA_value {nodata}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestParseAsciiGrid:
    def test_two_by_two_albedo(self):
        grid = parse_ascii_grid(io.StringIO(grid_text([[0.25, 0.25],
                                                       [0.25, 0.25]])),
                                Semantic.ALBEDO)
        assert grid.values.size == 4
        assert grid.values.shape == (2, 2)
        assert grid.cellsize == 1.0

    def test_albedo_above_one_is_range_error(self):
        src = io.StringIO(grid_text([[0.25, 1.3], [0.25, 0.25]]))
        with pytest.raises(GridError, match="1.3"):
            parse_ascii_grid(src, Semantic.ALBEDO)

    def test_nodata_cells_preserved(self):
        src = io.StringIO(grid_text([[0.25, NODATA], [NODATA, 0.5]]))
        grid = parse_ascii_grid(src, Semantic.ALBEDO)
        assert grid.mask().sum() == 2
        assert grid.values[0, 1] == NODATA

    def test_nodata_exempt_from_range_check(self):
        src = io.StringIO(grid_text([[0.25, NODATA]]))
        parse_ascii_grid(src, Semantic.VEGETATION_FRACTION)  # no error

    def test_missing_header_key(self):
        src = io.StringIO("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n0.1 0.2\n")
        with pytest.raises(GridError, match="cellsize"):
            parse_ascii_grid(src, Semantic.ALBEDO)

    def test_value_count_mismatch(self):
        src = io.StringIO(grid_text([[0.1, 0.2]]).replace("0.1 0.2", "0.1"))
        with pytest.raises(GridError, match="expected 2"):
            parse_ascii_grid(src, Semantic.ALBEDO)

    def test_non_numeric_cell(self):
        src = io.StringIO(grid_text([[0.1, 0.2]]).replace("0.2", "abc"))
        with pytest.raises(GridError):
            parse_ascii_grid(src, Semantic.ALBEDO)

    def test_raw_irradiance_not_bounds_checked(self):
        src = io.StringIO(grid_text([[850.0, 900.0]]))
        grid = parse_ascii_grid(src, Semantic.IRRADIANCE_RAW)
        assert grid.values[0, 0] == 850.0

    def test_round_trip_bit_exact(self):
        values = [[0.1, 1 / 3, NODATA], [0.7000000000000001, 0.0, 1.0]]
        original = layer(values, Semantic.ALBEDO, xll=652_100.25, yll=6_860_300.5)
        buf = io.StringIO()
        write_ascii_grid(original, buf)
        buf.seek(0)
        again = parse_ascii_grid(buf, Semantic.ALBEDO)
        assert np.array_equal(again.values, original.values)
        assert again.xllcorner == original.xllcorner
        assert again.nodata == original.nodata
        # a second write is byte-identical
        buf2 = io.StringIO()
        write_ascii_grid(again, buf2)
        assert buf2.getvalue() == buf.getvalue()


class TestNormalizeIrradiance:
    def test_scaling(self):
        raw = layer([[800.0, 1000.0], [0.0, 500.0]], Semantic.IRRADIANCE_RAW)
        out = normalize_irradiance(raw, clear_sky_max=1000.0)
        assert out.semantic is Semantic.IRRADIANCE_NORMALIZED
        assert out.values.tolist() == [[0.8, 1.0], [0.0, 0.5]]

    def test_values_above_reference_clamped(self):
        raw = layer([[1200.0]], Semantic.IRRADIANCE_RAW)
        assert normalize_irradiance(raw, 1000.0).values[0, 0] == 1.0

    def test_nodata_untouched(self):
        raw = layer([[NODATA, 500.0]], Semantic.IRRADIANCE_RAW)
        out = normalize_irradiance(raw, 1000.0)
        assert out.values[0, 0] == NODATA

    def test_reference_must_be_positive(self):
        raw = layer([[500.0]], Semantic.IRRADIANCE_RAW)
        with pytest.raises(DomainError):
            normalize_irradiance(raw, 0.0)


class TestComputeUcp:
    def test_bare_sunlit_pavement_anchor(self):
        albedo = layer([[0.0]], Semantic.ALBEDO)
        veg = layer([[0.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[1.0]], Semantic.IRRADIANCE_NORMALIZED)
        assert compute_ucp(albedo, veg, sun).values[0, 0] == 1.0

    def test_dense_vegetation_anchor(self):
        albedo = layer([[0.4]], Semantic.ALBEDO)
        veg = layer([[1.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        assert compute_ucp(albedo, veg, sun).values[0, 0] == 0.0

    def test_product_form_value(self):
        albedo = layer([[0.25]], Semantic.ALBEDO)
        veg = layer([[0.5]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.8]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun)
        assert out.values[0, 0] == pytest.approx(0.30, abs=1e-12)
        assert out.semantic is Semantic.UCP

    def test_nodata_propagates_from_any_input(self):
        albedo = layer([[NODATA, 0.2, 0.2]], Semantic.ALBEDO)
        veg = layer([[0.1, NODATA, 0.1]], Semantic.VEGETATION_FRACTION)
        sun = layer([[0.9, 0.9, 0.9]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun)
        assert out.values[0, 0] == NODATA
        assert out.values[0, 1] == NODATA
        assert out.values[0, 2] != NODATA

    def test_misaligned_grids_rejected(self):
        albedo = layer([[0.2]], Semantic.ALBEDO)
        veg = layer([[0.1]], Semantic.VEGETATION_FRACTION, xll=5.0)
        sun = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        with pytest.raises(GridError, match="co-registered"):
            compute_ucp(albedo, veg, sun)

    def test_wrong_semantic_rejected(self):
        raw_sun = layer([[900.0]], Semantic.IRRADIANCE_RAW)
        albedo = layer([[0.2]], Semantic.ALBEDO)
        veg = layer([[0.1]], Semantic.VEGETATION_FRACTION)
        with pytest.raises(GridError, match="irradiance"):
            compute_ucp(albedo, veg, raw_sun)

    def test_weighted_sum_form(self):
        albedo = layer([[0.0]], Semantic.ALBEDO)
        veg = layer([[0.0]], Semantic.VEGETATION_FRACTION)
        sun = layer([[1.0]], Semantic.IRRADIANCE_NORMALIZED)
        out = compute_ucp(albedo, veg, sun, formula="weighted_sum")
        assert out.values[0, 0] == 1.0
        # non-normalized weights are rescaled to sum to one
        out = compute_ucp(albedo, veg, sun, formula="weighted_sum",
                          weights=(2.0, 1.0, 1.0))
        assert out.values[0, 0] == 1.0

    def test_unknown_formula(self):
        a = layer([[0.2]], Semantic.ALBEDO)
        v = layer([[0.1]], Semantic.VEGETATION_FRACTION)
        s = layer([[0.9]], Semantic.IRRADIANCE_NORMALIZED)
        with pytest.raises(DomainError, match="geometric"):
            compute_ucp(a, v, s, formula="geometric")

    unit = st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)

    @given(alb=unit, veg=unit, sun=unit)
    def test_output_always_in_unit_interval(self, alb, veg, sun):
        shape = (3, 3)
        out = compute_ucp(
            layer(np.reshape(alb, shape), Semantic.ALBEDO),
            layer(np.reshape(veg, shape), Semantic.VEGETATION_FRACTION),
            layer(np.reshape(sun, shape), Semantic.IRRADIANCE_NORMALIZED))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    @given(alb=unit, veg=unit, sun=unit)
    def test_cellwise_monotonicity(self, alb, veg, sun):
        shape = (3, 3)
        a = np.reshape(alb, shape)
        v = np.reshape(veg, shape)
        s = np.reshape(sun, shape)

        def ucp(a_, v_, s_):
            return compute_ucp(layer(a_, Semantic.ALBEDO),
                               layer(v_, Semantic.VEGETATION_FRACTION),
                               layer(s_, Semantic.IRRADIANCE_NORMALIZED)).values

        base = ucp(a, v, s)
        # brighter/greener surfaces never increase the indicator
        assert np.all(ucp(a + (1 - a) * 0.5, v, s) <= base + 1e-12)
        assert np.all(ucp(a, v + (1 - v) * 0.5, s) <= base + 1e-12)
        # more sun never decreases it
        assert np.all(ucp(a, v, s * 0.5) <= base + 1e-12)


class TestSampleAt:
    def make(self):
        return layer([[0.6, 0.8], [0.2, 0.4]], Semantic.UCP)

    def test_cell_center_exact(self):
        grid = self.make()
        assert sample_at(grid, 0.5, 0.5) == 0.2
        assert sample_at(grid, 1.5, 1.5) == 0.8

    def test_midpoint_between_two_cells(self):
        assert sample_at(self.make(), 1.0, 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_outside_extent_is_error(self):
        with pytest.raises(DomainError, match="outside"):
            sample_at(self.make(), 2.5, 0.5)

    def test_corner_clamped_to_nearest_center(self):
        assert sample_at(self.make(), 0.0, 0.0) == 0.2

    def test_nodata_neighbor_falls_back_to_nearest(self):
        grid = layer([[0.6, NODATA], [0.2, 0.4]], Semantic.UCP)
        assert sample_at(grid, 0.6, 1.4) == 0.6

    def test_nearest_nodata_returns_none(self):
        grid = layer([[NODATA, NODATA], [NODATA, 0.4]], Semantic.UCP)
        assert sample_at(grid, 0.5, 1.5) is None

    @given(x=st.floats(0.0, 3.0), y=st.floats(0.0, 3.0),
           cells=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
    def test_bilinear_bounded_by_neighbors(self, x, y, cells):
        grid = layer(np.reshape(cells, (3, 3)), Semantic.UCP)
        value = sample_at(grid, x, y)
        assert grid.values.min() - 1e-12 <= value <= grid.values.max() + 1e-12


def heat_plan(locations):
    points = [TraversePoint(f"P{i + 1}", loc, Environment.FULL_SUN)
              for i, loc in enumerate(locations)]
    return CampaignPlan(campaign_id="c1", phase=Phase.BEFORE,
                        day=date(2019, 7, 25), tz=UTC, points=points,
                        control_station_id="ctrl")


def heat_result(point_id, t_mrt=45.0):
    drivers = AggregatedDrivers(
        timestamp=T0, t_air=30.0, rh=40.0, t_globe=t_mrt, wind_measured=0.5,
        wind_10m=0.5, t_mrt=t_mrt, sample_counts={"t_air": 13})
    ref = ReferenceConditions(t_air=30.0, rh=40.0, matched_at=T0)
    mobile = UtciInput(30.0, t_mrt, 0.5, vapor_pressure(30.0, 40.0))
    return PointResult(drivers, utci_offset(mobile, ref, point_id, T0))


class TestExportHeatMap:
    def test_three_points_without_raster(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        results = [heat_result(f"P{i}") for i in (1, 2, 3)]
        collection = export_heat_map(results, plan)
        assert len(collection["features"]) == 3
        props = collection["features"][0]["properties"]
        assert "ucp" not in props
        assert list(props) == ["point_id", "phase", "environment", "utci_mobile",
                               "utci_ref", "offset_c", "stress_category"]
        assert props["offset_c"] == pytest.approx(
            props["utci_mobile"] - props["utci_ref"], abs=2e-3)

    def test_ucp_sampled_when_raster_supplied(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        grid = layer([[0.6, 0.8], [0.2, 0.4]], Semantic.UCP)
        results = [heat_result(f"P{i}") for i in (1, 2, 3)]
        collection = export_heat_map(results, plan, ucp=grid)
        for feature in collection["features"]:
            assert 0.0 <= feature["properties"]["ucp"] <= 1.0
        assert collection["features"][0]["properties"]["ucp"] == 0.2

    def test_empty_results_rejected(self):
        plan = heat_plan([(0.5, 0.5)])
        with pytest.raises(DomainError, match="no point results"):
            export_heat_map([], plan)

    def test_serialization_is_deterministic(self):
        plan = heat_plan([(0.5, 0.5), (1.5, 1.5)])
        results = [heat_result("P1"), heat_result("P2", t_mrt=50.0)]
        first = geojson_dumps(export_heat_map(results, plan))
        second = geojson_dumps(export_heat_map(list(reversed(results)), plan))
        assert first == second
        assert first.endswith("}\n")


class TestLayerValidation:
    def test_shape_mismatch(self):
        with pytest.raises(GridError, match="shape"):
            RasterLayer(ncols=3, nrows=2, xllcorner=0, yllcorner=0, cellsize=1,
                        nodata=NODATA, values=np.zeros((2, 2)),
                        semantic=Semantic.ALBEDO)

    def test_nonpositive_cellsize(self):
        with pytest.raises(GridError, match="cellsize"):
            layer([[0.2]], Semantic.ALBEDO, cellsize=0.0)

    def test_extent(self):
        grid = layer([[0.2, 0.3]], Semantic.ALBEDO, xll=10.0, yll=20.0,
                     cellsize=2.0)
        assert grid.extent() == (10.0, 20.0, 14.0, 22.0)
