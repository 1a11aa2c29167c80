import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.errors import ValidationError
from tsdiag.geodesy import (
    Ellipsoid,
    GeoPoint,
    WGS84,
    geodesic_inverse,
    probe_distances,
)

EQUATOR_DEG_M = 111319.4908  # one degree of longitude on the WGS84 equator


def dist(lat1, lon1, lat2, lon2, ellipsoid=WGS84):
    return geodesic_inverse(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2), ellipsoid).distance_m


class TestGeoPoint:
    def test_latitude_bounds(self):
        with pytest.raises(ValidationError):
            GeoPoint(95.0, 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(-90.0001, 0.0)

    def test_longitude_normalized_to_half_open_range(self):
        assert GeoPoint(0.0, 185.0).longitude_deg == pytest.approx(-175.0)
        assert GeoPoint(0.0, -180.0).longitude_deg == 180.0
        assert GeoPoint(0.0, 540.0).longitude_deg == 180.0
        assert GeoPoint(0.0, -200.0).longitude_deg == pytest.approx(160.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(0.0, float("inf"))


class TestEllipsoid:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Ellipsoid(-1.0, 0.0)
        with pytest.raises(ValidationError):
            Ellipsoid(6378137.0, 1.5)

    def test_wgs84_values(self):
        assert WGS84.semi_major_axis_m == 6378137.0
        assert WGS84.flattening == pytest.approx(1 / 298.257223563)


class TestInverseClosedForms:
    def test_coincident_points(self):
        solution = geodesic_inverse(GeoPoint(12.5, -30.0), GeoPoint(12.5, -30.0))
        assert solution.distance_m == 0.0
        assert solution.azimuth1_deg == 0.0
        assert solution.azimuth2_deg == 0.0

    def test_equatorial_degree(self):
        expected = WGS84.semi_major_axis_m * math.pi / 180.0
        assert dist(0, 0, 0, 1) == pytest.approx(expected, abs=1e-6)
        assert dist(0, 0, 0, 1) == pytest.approx(EQUATOR_DEG_M, abs=1e-3)

    def test_meridian_degree(self):
        assert dist(0, 0, 1, 0) == pytest.approx(110574.389, abs=1e-3)

    def test_quarter_meridian_through_pole(self):
        # frozen from the quadrature oracle
        assert dist(90, 0, 0, 0) == pytest.approx(10001965.729313, abs=1e-3)
        assert dist(90, 0, -90, 0) == pytest.approx(2 * 10001965.729313, abs=1e-3)

    def test_equatorial_azimuths_due_east(self):
        solution = geodesic_inverse(GeoPoint(0, 0), GeoPoint(0, 1))
        assert solution.azimuth1_deg == pytest.approx(90.0, abs=1e-9)
        assert solution.azimuth2_deg == pytest.approx(90.0, abs=1e-9)


@pytest.fixture(scope="module")
def cases(data_dir):
    with open(os.path.join(data_dir, "geodesic_cases.json")) as fh:
        return json.load(fh)["cases"]


class TestOracleAgreement:
    def test_frozen_oracle_cases_within_one_millimeter(self, cases):
        assert len(cases) >= 100
        kinds = {c["kind"] for c in cases}
        assert {"equatorial", "meridional", "near_antipodal", "random"} <= kinds
        assert sum(c["kind"] == "near_antipodal" for c in cases) >= 5
        for case in cases:
            got = dist(*case["p1"], *case["p2"])
            assert got == pytest.approx(case["distance_m"], abs=1e-3), case

    def test_live_oracle_subsample(self, cases):
        # recompute a few cases with the quadrature oracle to keep the
        # frozen file honest
        from oracles.geodesic_oracle import inverse_distance

        for case in cases[::25]:
            fresh = inverse_distance(*case["p1"], *case["p2"])
            assert fresh == pytest.approx(case["distance_m"], abs=1e-6)

    @pytest.mark.parametrize("delta_deg", [1e-8, 1e-7, 1e-6])
    def test_short_lines_match_the_live_oracle(self, delta_deg):
        # fixes millimetres to decimetres apart, as while the probe waits:
        # lines this short take the solver's short-line shortcut
        from oracles.geodesic_oracle import inverse_distance

        p1, p2 = (49.011, 8.423), (49.011 + delta_deg, 8.423 + delta_deg)
        got = dist(*p1, *p2)
        assert 1e-3 < got < 0.2
        assert got == pytest.approx(inverse_distance(*p1, *p2), abs=1e-3)

    def test_near_antipodal_worked_case(self):
        # convergence in the region where naive iterations fail
        value = dist(0, 0, 0.5, 179.5)
        assert value == pytest.approx(19936288.579, abs=1e-3)


geo_points = st.builds(
    GeoPoint,
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-180.0, max_value=180.0).filter(math.isfinite),
)


class TestInverseProperties:
    @given(geo_points, geo_points)
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, p1, p2):
        d12 = geodesic_inverse(p1, p2).distance_m
        d21 = geodesic_inverse(p2, p1).distance_m
        assert abs(d12 - d21) <= 1e-9

    @given(geo_points)
    @settings(max_examples=30, deadline=None)
    def test_identity(self, p):
        assert geodesic_inverse(p, p).distance_m == 0.0

    @given(geo_points, geo_points, geo_points)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        dab = geodesic_inverse(a, b).distance_m
        dbc = geodesic_inverse(b, c).distance_m
        dac = geodesic_inverse(a, c).distance_m
        assert dac <= dab + dbc + 1e-6

    @given(geo_points, geo_points)
    @settings(max_examples=100, deadline=None)
    def test_sphere_matches_great_circle(self, p1, p2):
        radius = 6378137.0
        sphere = Ellipsoid(radius, 0.0)
        got = geodesic_inverse(p1, p2, sphere).distance_m
        phi1, lam1 = math.radians(p1.latitude_deg), math.radians(p1.longitude_deg)
        phi2, lam2 = math.radians(p2.latitude_deg), math.radians(p2.longitude_deg)
        dlam = lam2 - lam1
        # atan2 form of the central angle is stable at both tiny and
        # near-antipodal separations, unlike the law of cosines
        central = math.atan2(
            math.hypot(
                math.cos(phi2) * math.sin(dlam),
                math.cos(phi1) * math.sin(phi2) -
                math.sin(phi1) * math.cos(phi2) * math.cos(dlam)),
            math.sin(phi1) * math.sin(phi2) +
            math.cos(phi1) * math.cos(phi2) * math.cos(dlam))
        assert got == pytest.approx(radius * central, abs=1e-6)

    @given(geo_points, geo_points)
    @settings(max_examples=50, deadline=None)
    def test_azimuths_in_range(self, p1, p2):
        solution = geodesic_inverse(p1, p2)
        assert -180.0 <= solution.azimuth1_deg <= 180.0
        assert -180.0 <= solution.azimuth2_deg <= 180.0


class TestProbeLinkDistance:
    def test_zero_at_link_start(self):
        start = GeoPoint(0.0, 0.0)
        assert probe_distances(start, [start], "direct") == [0.0]
        assert probe_distances(start, [start, start], "cumulative") == [0.0, 0.0]

    def test_equatorial_march_agrees_in_both_modes(self):
        start = GeoPoint(0.0, 0.0)
        fixes = [GeoPoint(0.0, 0.001 * k) for k in range(10)]
        direct = probe_distances(start, fixes, "direct")
        cumulative = probe_distances(start, fixes, "cumulative")
        for k, (d, c) in enumerate(zip(direct, cumulative)):
            expected = k * EQUATOR_DEG_M / 1000.0
            assert d == pytest.approx(expected, abs=1e-4)
            assert c == pytest.approx(expected, abs=1e-4)

    def test_l_shaped_path_cumulative_no_less_than_direct(self):
        start = GeoPoint(0.0, 0.0)
        fixes = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.01), GeoPoint(0.01, 0.01)]
        direct = probe_distances(start, fixes, "direct")
        cumulative = probe_distances(start, fixes, "cumulative")
        assert cumulative[-1] >= direct[-1] - 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="sideways"):
            probe_distances(GeoPoint(0, 0), [GeoPoint(0, 0), GeoPoint(0, 1)], "sideways")
        with pytest.raises(ValueError, match="sideways"):
            probe_distances(GeoPoint(0, 0), [], "sideways")

    def test_cumulative_adds_fix_to_fix_steps(self):
        start = GeoPoint(0.0, 0.0)
        fixes = [GeoPoint(0.0, 0.001), GeoPoint(0.001, 0.001), GeoPoint(0.001, 0.002)]
        running = geodesic_inverse(start, fixes[0]).distance_m
        expected = [running]
        for prev, fix in zip(fixes, fixes[1:]):
            running += geodesic_inverse(prev, fix).distance_m
            expected.append(running)
        assert probe_distances(start, fixes, "cumulative") == expected
