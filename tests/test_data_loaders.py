"""Tests for the SNAP-format loaders."""

import pytest

from repro.data.loaders import (
    load_dataset_from_snap,
    load_snap_checkins,
    load_snap_edges,
    load_venue_categories,
)
from repro.exceptions import DataError


EDGES = """\
# comment line
0\t1
1\t2

2\t3
"""

CHECKINS = """\
0\t2010-10-17T01:48:53Z\t39.747652\t-104.992510\tv_a
0\t2010-10-16T06:02:04Z\t39.891383\t-105.070814\tv_b
1\t2010-10-17T03:48:53Z\t39.750000\t-104.990000\tv_a
2\t2010-10-18T12:00:00Z\t39.800000\t-105.000000\tv_c
3\t2010-10-18T13:00:00Z\t39.810000\t-105.010000\tv_c
"""

CATEGORIES = """\
v_a\tcafe,bakery
v_b\tbar
# comment
v_c\tpark
"""


@pytest.fixture()
def snap_files(tmp_path):
    edges = tmp_path / "edges.txt"
    checkins = tmp_path / "checkins.txt"
    categories = tmp_path / "categories.txt"
    edges.write_text(EDGES)
    checkins.write_text(CHECKINS)
    categories.write_text(CATEGORIES)
    return edges, checkins, categories


class TestLoadEdges:
    def test_parses_and_skips_comments(self, snap_files):
        edges, _, _ = snap_files
        assert load_snap_edges(edges) == [(0, 1), (1, 2), (2, 3)]

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\t1\n0 1 2\n")
        with pytest.raises(DataError, match=":2"):
            load_snap_edges(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\tb\n")
        with pytest.raises(DataError):
            load_snap_edges(path)


class TestLoadCheckins:
    def test_basic_parse(self, snap_files):
        _, checkins_path, _ = snap_files
        checkins, venues, key_map = load_snap_checkins(checkins_path)
        assert len(checkins) == 5
        assert set(key_map) == {"v_a", "v_b", "v_c"}
        assert len(venues) == 3

    def test_times_relative_and_nonnegative(self, snap_files):
        _, checkins_path, _ = snap_files
        checkins, _, _ = load_snap_checkins(checkins_path)
        times = [c.time for c in checkins]
        assert min(times) == pytest.approx(0.0)
        assert max(times) > 24.0

    def test_projection_locally_accurate(self, snap_files):
        _, checkins_path, _ = snap_files
        _, venues, key_map = load_snap_checkins(checkins_path)
        # v_a and v_b are ~17-18 km apart in reality.
        a = venues[key_map["v_a"]].location
        b = venues[key_map["v_b"]].location
        assert 10.0 < a.distance_to(b) < 25.0

    def test_categories_attached(self, snap_files):
        _, checkins_path, categories_path = snap_files
        categories = load_venue_categories(categories_path)
        checkins, venues, key_map = load_snap_checkins(checkins_path, categories)
        assert venues[key_map["v_a"]].categories == ("cafe", "bakery")
        assert venues[key_map["v_b"]].categories == ("bar",)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DataError):
            load_snap_checkins(path)

    def test_short_line_raises(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0\t2010-10-17T01:48:53Z\t39.7\n")
        with pytest.raises(DataError):
            load_snap_checkins(path)

    @pytest.mark.parametrize("lat, lon", [
        ("nan", "-104.99"), ("39.75", "nan"), ("inf", "-104.99"),
        ("39.75", "-inf"),
    ])
    def test_non_finite_coordinates_raise_with_lineno(self, tmp_path, lat, lon):
        path = tmp_path / "nonfinite.txt"
        path.write_text(
            "0\t2010-10-17T01:48:53Z\t39.7\t-104.9\tv_a\n"
            f"1\t2010-10-17T02:48:53Z\t{lat}\t{lon}\tv_b\n"
        )
        with pytest.raises(DataError, match=r":2: non-finite coordinates"):
            load_snap_checkins(path)


class TestLoadDataset:
    def test_assembles_dataset(self, snap_files):
        edges, checkins, categories = snap_files
        ds = load_dataset_from_snap("bk-test", edges, checkins, categories)
        assert ds.name == "bk-test"
        assert ds.num_users == 4
        assert ds.num_checkins == 5
        # All users have check-ins, so all edges survive.
        assert len(ds.social_edges) == 3

    def test_drops_edges_of_users_without_checkins(self, tmp_path, snap_files):
        _, checkins, _ = snap_files
        edges = tmp_path / "edges2.txt"
        edges.write_text("0\t1\n0\t99\n")
        ds = load_dataset_from_snap("bk-test", edges, checkins)
        assert ds.social_edges == [(0, 1)]
