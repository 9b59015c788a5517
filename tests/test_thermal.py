import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microclimap._utci_coeffs import UTCI_POLYNOMIAL_TERMS
from microclimap.errors import DomainError, ValidityError
from microclimap.thermal import (GlobeFormula, GlobeSpec, HeatStressCategory,
                                 ReferenceConditions, UtciInput, heat_stress_category,
                                 mrt_from_globe, utci, utci_offset, utci_values,
                                 _utci_polynomial, vapor_pressure, wind_to_10m)
from utci_reference import utci_reference

ISO_SPEC = GlobeSpec(formula_variant=GlobeFormula.ISO7726_FORCED)
ASHRAE_SPEC = GlobeSpec(formula_variant=GlobeFormula.ASHRAE_STANDARD_GLOBE)


class TestVaporPressure:
    def test_zero_humidity(self):
        assert vapor_pressure(20.0, 0.0) == 0.0

    def test_freezing_point_half_saturation(self):
        # exponent vanishes at 0 degC, so es = 6.1078 hPa exactly
        assert vapor_pressure(0.0, 50.0) == pytest.approx(3.0539, abs=1e-9)

    def test_saturation_at_20c(self):
        # frozen from a desk evaluation of the Magnus form
        assert vapor_pressure(20.0, 100.0) == pytest.approx(23.382047063802645, abs=1e-12)
        # standard psychrometric tables give es(20 degC) = 23.39 hPa
        assert vapor_pressure(20.0, 100.0) == pytest.approx(23.39, abs=0.5)

    @pytest.mark.parametrize("t_air,rh", [(20, -1), (20, 101), (float("nan"), 50),
                                          (20, float("inf")), (70, 50)])
    def test_domain_errors(self, t_air, rh):
        with pytest.raises(DomainError):
            vapor_pressure(t_air, rh)

    @given(t=st.floats(-40, 55), rh=st.floats(0, 99))
    def test_monotone_in_both_arguments(self, t, rh):
        assert vapor_pressure(t + 0.5, rh) >= vapor_pressure(t, rh)
        assert vapor_pressure(t, rh + 1) >= vapor_pressure(t, rh)


class TestMrtFromGlobe:
    @pytest.mark.parametrize("spec", [ISO_SPEC, ASHRAE_SPEC])
    def test_equal_temperatures_identity(self, spec):
        assert mrt_from_globe(30.0, 30.0, 1.0, spec) == pytest.approx(30.0, abs=1e-9)

    @pytest.mark.parametrize("spec", [ISO_SPEC, ASHRAE_SPEC])
    def test_zero_wind_identity(self, spec):
        assert mrt_from_globe(35.0, 30.0, 0.0, spec) == pytest.approx(35.0, abs=1e-9)

    def test_iso_golden_value(self):
        # frozen from an independent desk evaluation of the closed form
        assert mrt_from_globe(40.0, 30.0, 1.0, ISO_SPEC) == pytest.approx(
            58.46339236635896, abs=1e-9)

    def test_ashrae_golden_value(self):
        assert mrt_from_globe(40.0, 30.0, 1.0, ASHRAE_SPEC) == pytest.approx(
            58.44246502230408, abs=1e-9)

    def test_negative_radicand_is_domain_error(self):
        with pytest.raises(DomainError, match="t_globe=-270"):
            mrt_from_globe(-270.0, 30.0, 10.0, ISO_SPEC)

    def test_negative_wind_rejected(self):
        with pytest.raises(DomainError):
            mrt_from_globe(30.0, 30.0, -1.0, ISO_SPEC)

    @given(t=st.floats(-30, 60), v=st.floats(0, 15),
           variant=st.sampled_from(list(GlobeFormula)))
    def test_identity_property(self, t, v, variant):
        spec = GlobeSpec(formula_variant=variant)
        assert mrt_from_globe(t, t, v, spec) == pytest.approx(t, abs=1e-9)

    @given(t_air=st.floats(0, 45), delta=st.floats(-2, 30), v=st.floats(0, 10),
           variant=st.sampled_from(list(GlobeFormula)))
    def test_strictly_increasing_in_globe_temperature(self, t_air, delta, v, variant):
        # globe readings close to or above air temperature stay physical
        spec = GlobeSpec(formula_variant=variant)
        t_globe = t_air + delta
        assert (mrt_from_globe(t_globe + 0.5, t_air, v, spec)
                > mrt_from_globe(t_globe, t_air, v, spec))

    @pytest.mark.parametrize("diameter,emissivity", [(0.0, 0.95), (-1, 0.95),
                                                     (0.15, 0.0), (0.15, 1.5)])
    def test_invalid_spec(self, diameter, emissivity):
        with pytest.raises(DomainError):
            GlobeSpec(diameter=diameter, emissivity=emissivity)


class TestUtci:
    def test_reference_condition_golden_value(self):
        # frozen from the independent transliteration of the published polynomial
        value = utci(UtciInput(20.0, 20.0, 0.5, vapor_pressure(20.0, 50.0)))
        assert value == pytest.approx(19.846610670075947, abs=1e-9)

    def test_low_wind_clamped_to_half_meter_per_second(self):
        vp = vapor_pressure(25.0, 50.0)
        clamped = utci(UtciInput(25.0, 30.0, 0.3, vp))
        assert clamped == utci(UtciInput(25.0, 30.0, 0.5, vp))

    @pytest.mark.parametrize("inp,fragment", [
        (UtciInput(60.0, 60.0, 1.0, 10.0), "t_air"),
        (UtciInput(-55.0, -55.0, 1.0, 1.0), "t_air"),
        (UtciInput(25.0, 25.0, 18.0, 10.0), "wind"),
        (UtciInput(25.0, 100.0, 1.0, 10.0), "t_mrt"),
        (UtciInput(25.0, -10.0, 1.0, 10.0), "t_mrt"),
        (UtciInput(25.0, 25.0, 1.0, 55.0), "vapor_pressure"),
    ])
    def test_range_errors_name_the_violated_bound(self, inp, fragment):
        with pytest.raises(ValidityError, match=fragment):
            utci(inp)

    def test_matches_reference_on_spot_grid(self):
        for ta in (-40.0, -10.0, 0.0, 15.0, 30.0, 45.0):
            for vel in (0.5, 2.0, 8.0, 16.0):
                for dtr in (-20.0, 0.0, 30.0, 65.0):
                    for vp in (0.5, 10.0, 30.0):
                        ours = utci(UtciInput(ta, ta + dtr, vel, vp))
                        ref = utci_reference(ta, vel, dtr, vp / 10.0)
                        assert ours == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_mrt_and_air_temperature(self):
        vp = 15.0
        for ta in (0.0, 15.0, 30.0):
            values = [utci(UtciInput(ta, ta + dtr, 1.0, vp))
                      for dtr in range(-10, 50, 2)]
            assert values == sorted(values)
        for dtr in (0.0, 20.0):
            values = [utci(UtciInput(ta, ta + dtr, 1.0, vp))
                      for ta in range(0, 41, 2)]
            assert values == sorted(values)

    def test_pure_and_deterministic(self):
        inp = UtciInput(28.3, 47.1, 1.7, 21.9)
        assert utci(inp) == utci(inp)


class TestUtciOffset:
    def test_zero_for_equal_drivers(self):
        ref = ReferenceConditions(t_air=27.0, rh=45.0)
        off = utci_offset(ref.to_utci_input(), ref)
        assert off.value == 0.0

    def test_antisymmetric_under_driver_swap(self):
        a = ReferenceConditions(t_air=25.0, rh=40.0)
        b = ReferenceConditions(t_air=31.0, rh=60.0)
        forward = utci_offset(a.to_utci_input(), b)
        backward = utci_offset(b.to_utci_input(), a)
        assert forward.value == -backward.value

    def test_sun_exposed_point_is_positive(self):
        mobile = UtciInput(30.0, 60.0, 1.0, vapor_pressure(30.0, 40.0))
        ref = ReferenceConditions(t_air=30.0, rh=40.0)
        off = utci_offset(mobile, ref, point_id="P1")
        assert off.value > 0
        # magnitude pinned by the independent reference polynomial
        vp = vapor_pressure(30.0, 40.0)
        expected = (utci_reference(30.0, 1.0, 30.0, vp / 10.0)
                    - utci_reference(30.0, 0.5, 0.0, vp / 10.0))
        assert off.value == pytest.approx(expected, abs=1e-9)

    def test_within_instrument_uncertainty_stays_small(self):
        # Table-level sensor uncertainties: 0.1 degC air, 1.5% RH, 0.3 m/s wind
        ref = ReferenceConditions(t_air=30.0, rh=40.0)
        worst = 0.0
        for dt in (-0.1, 0.1):
            for drh in (-1.5, 1.5):
                for dv in (0.0, 0.3):
                    mobile = UtciInput(30.0 + dt, 30.0 + dt, 0.5 + dv,
                                       vapor_pressure(30.0 + dt, 40.0 + drh))
                    worst = max(worst, abs(utci_offset(mobile, ref).value))
        assert worst < 0.5

    def test_errors_labeled_by_side(self):
        ref = ReferenceConditions(t_air=30.0, rh=40.0)
        with pytest.raises(ValidityError, match="mobile side"):
            utci_offset(UtciInput(30.0, 120.0, 1.0, 10.0), ref)
        bad_ref = ReferenceConditions(t_air=55.0, rh=40.0)
        with pytest.raises(ValidityError, match="reference side"):
            utci_offset(UtciInput(30.0, 35.0, 1.0, 10.0), bad_ref)


class TestHeatStressCategory:
    @pytest.mark.parametrize("value,expected", [
        (35.0, HeatStressCategory.STRONG_HEAT_STRESS),
        (20.0, HeatStressCategory.NO_THERMAL_STRESS),
        (32.0, HeatStressCategory.STRONG_HEAT_STRESS),  # half-open boundary
        (26.0, HeatStressCategory.MODERATE_HEAT_STRESS),
        (38.0, HeatStressCategory.VERY_STRONG_HEAT_STRESS),
        (46.0, HeatStressCategory.EXTREME_HEAT_STRESS),
        (9.0, HeatStressCategory.NO_THERMAL_STRESS),
        (0.0, HeatStressCategory.SLIGHT_COLD_STRESS),
        (-0.001, HeatStressCategory.MODERATE_COLD_STRESS),
        (-13.0, HeatStressCategory.MODERATE_COLD_STRESS),
        (-27.0, HeatStressCategory.STRONG_COLD_STRESS),
        (-40.0, HeatStressCategory.VERY_STRONG_COLD_STRESS),
        (-41.0, HeatStressCategory.EXTREME_COLD_STRESS),
    ])
    def test_scale(self, value, expected):
        assert heat_stress_category(value) is expected

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            heat_stress_category(float("nan"))


class TestWindProfile:
    def test_log_profile_conversion(self):
        assert wind_to_10m(1.0, 1.5, 0.01) == pytest.approx(
            math.log(1000) / math.log(150), abs=1e-12)

    def test_identity_at_10m(self):
        assert wind_to_10m(3.2, 10.0) == 3.2

    def test_invalid_roughness(self):
        with pytest.raises(DomainError):
            wind_to_10m(1.0, 1.5, 2.0)


def criterion_one_grid(n=1000):
    """The 1000-point grid of acceptance criterion 1 (same seed and draws)."""
    rng = np.random.default_rng(1)
    ta = rng.uniform(-49.5, 49.5, n)
    vel = rng.uniform(0.5, 16.9, n)
    dtr = rng.uniform(-29.5, 69.5, n)
    vp = rng.uniform(0.1, 45.0, n)
    return ta, vel, dtr, vp


def table_loop_polynomial(ta, vel, d_tr, pa):
    """The table evaluated term by term over all four powers, x ** 0 included."""
    p_ta, p_vel, p_dtr, p_pa = ([x ** n for n in range(7)] for x in (ta, vel, d_tr, pa))
    result = ta
    for i, j, k, l, coeff in UTCI_POLYNOMIAL_TERMS:
        result = result + coeff * p_ta[i] * p_vel[j] * p_dtr[k] * p_pa[l]
    return result


DRIVERS = (st.floats(-50.0, 50.0), st.floats(0.5, 17.0), st.floats(-30.0, 70.0),
           st.floats(0.0, 5.0))


class TestPolynomialKernel:
    """Leaving out the x ** 0 factors changes no bit of a float or array result."""

    @given(*DRIVERS)
    def test_float_bitwise_equal_to_table_loop(self, ta, vel, d_tr, pa):
        got = _utci_polynomial(ta, vel, d_tr, pa)
        assert type(got) is float
        assert (np.float64(got).view(np.int64)
                == np.float64(table_loop_polynomial(ta, vel, d_tr, pa)).view(np.int64))

    @given(st.lists(st.tuples(*DRIVERS), min_size=1, max_size=50))
    def test_array_bitwise_equal_to_table_loop(self, rows):
        columns = [np.array(c) for c in zip(*rows)]
        got = _utci_polynomial(*columns)
        assert (got.view(np.int64) == table_loop_polynomial(*columns).view(np.int64)).all()


class TestArrayForms:
    def test_array_utci_matches_scalar_and_reference(self):
        ta, vel, dtr, vp = criterion_one_grid()
        values = utci_values(ta, ta + dtr, vel, vp)
        assert isinstance(values, np.ndarray) and values.shape == ta.shape
        for i in range(len(ta)):
            scalar = utci(UtciInput(float(ta[i]), float(ta[i] + dtr[i]),
                                    float(vel[i]), float(vp[i])))
            assert abs(values[i] - scalar) <= 1e-9
            ref = utci_reference(ta[i], vel[i], dtr[i], vp[i] / 10.0)
            assert abs(values[i] - ref) < 0.01

    @pytest.mark.parametrize("column,bad,fragment", [
        ("t_air", 55.0, "t_air"),
        ("wind", 18.0, "wind"),
        ("t_mrt", 120.0, "t_mrt"),
        ("vp", 55.0, "vapor_pressure"),
    ])
    def test_out_of_range_element_names_the_bound(self, column, bad, fragment):
        cols = {"t_air": np.full(5, 25.0), "t_mrt": np.full(5, 30.0),
                "wind": np.full(5, 1.0), "vp": np.full(5, 15.0)}
        cols[column][3] = bad
        with pytest.raises(ValidityError, match=fragment):
            utci_values(cols["t_air"], cols["t_mrt"], cols["wind"], cols["vp"])

    def test_low_wind_clamped_as_in_scalar_path(self):
        ta, t_mrt, vp = np.full(3, 25.0), np.full(3, 30.0), np.full(3, 12.0)
        low = utci_values(ta, t_mrt, np.array([0.0, 0.3, 0.5]), vp)
        assert low[0] == low[1] == low[2]
        assert low[1] == pytest.approx(utci(UtciInput(25.0, 30.0, 0.3, 12.0)), abs=1e-9)

    def test_negative_wind_is_domain_error(self):
        with pytest.raises(DomainError, match="wind"):
            utci_values(np.full(2, 25.0), np.full(2, 25.0), np.array([1.0, -0.1]),
                        np.full(2, 10.0))

    def test_driver_arrays_match_scalars(self):
        rng = np.random.default_rng(4)
        t_air = rng.uniform(-20.0, 45.0, 200)
        rh = rng.uniform(0.0, 100.0, 200)
        t_globe = t_air + rng.uniform(-2.0, 25.0, 200)
        wind = rng.uniform(0.0, 8.0, 200)
        vp = vapor_pressure(t_air, rh)
        mrt = {spec: mrt_from_globe(t_globe, t_air, wind, spec)
               for spec in (ISO_SPEC, ASHRAE_SPEC)}
        w10 = wind_to_10m(wind, 1.5)
        for i in range(200):
            assert vp[i] == pytest.approx(vapor_pressure(t_air[i], rh[i]), abs=1e-12)
            assert w10[i] == pytest.approx(wind_to_10m(wind[i], 1.5), abs=1e-12)
            for spec, values in mrt.items():
                assert values[i] == pytest.approx(
                    mrt_from_globe(t_globe[i], t_air[i], wind[i], spec), abs=1e-9)

    def test_driver_array_domain_errors(self):
        with pytest.raises(DomainError, match="relative humidity"):
            vapor_pressure(np.array([20.0, 20.0]), np.array([50.0, 101.0]))
        with pytest.raises(DomainError, match="non-finite"):
            vapor_pressure(np.array([20.0, np.nan]), np.array([50.0, 50.0]))
        with pytest.raises(DomainError, match="radiative balance"):
            mrt_from_globe(np.array([30.0, -200.0]), np.array([30.0, 30.0]),
                           np.array([1.0, 1.0]))
        with pytest.raises(DomainError, match="wind"):
            wind_to_10m(np.array([1.0, -1.0]), 1.5)
