"""Tests for the Historical Acceptance willingness model (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.entities import PerformedTask, TaskHistory
from repro.exceptions import NotFittedError
from repro.geo import Point
from repro.willingness import HistoricalAcceptance, random_walk_with_restart


def _history(worker_id: int, coords) -> TaskHistory:
    performed = [
        PerformedTask(
            location=Point(float(x), float(y)),
            arrival_time=float(t),
            completion_time=float(t),
            categories=("cafe",),
            venue_id=None,
        )
        for t, (x, y) in enumerate(coords)
    ]
    return TaskHistory(worker_id=worker_id, performed=performed)


_cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
#: A worker's chronological visits: a walk on a 4x4 grid (revisits and
#: never-left terminal states are common), or one point repeated.
_visits = st.one_of(
    st.lists(_cell, min_size=0, max_size=20),
    st.builds(lambda cell, n: [cell] * n, _cell, st.integers(1, 6)),
)


class TestHistoricalAcceptance:
    def test_requires_fit(self):
        model = HistoricalAcceptance()
        with pytest.raises(NotFittedError):
            model.willingness(0, Point(0, 0))

    def test_worker_without_history_gets_zero(self, history_factory):
        model = HistoricalAcceptance().fit({0: history_factory(0, [])})
        assert model.willingness(0, Point(0, 0)) == 0.0

    def test_single_record_below_min_history_gets_zero(self, history_factory):
        model = HistoricalAcceptance(min_history=2).fit(
            {0: history_factory(0, [(0, 0, 1.0)])}
        )
        assert model.willingness(0, Point(0, 0)) == 0.0

    def test_willingness_at_visited_location_is_high(self, history_factory):
        histories = {0: history_factory(0, [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 3.0)])}
        model = HistoricalAcceptance().fit(histories)
        near = model.willingness(0, Point(0, 0))
        far = model.willingness(0, Point(40, 40))
        assert near > far
        assert near > 0.1

    def test_willingness_decreases_with_distance(self, history_factory):
        histories = {0: history_factory(0, [(0, 0, 1.0), (2, 0, 2.0), (0, 0, 3.0)])}
        model = HistoricalAcceptance().fit(histories)
        values = [model.willingness(0, Point(d, 0.0)) for d in (0.0, 5.0, 15.0, 40.0)]
        assert values == sorted(values, reverse=True)

    def test_willingness_is_probability_like(self, history_factory):
        """Eq. 2 is a convex combination of tail probabilities, so <= 1."""
        histories = {0: history_factory(0, [(0, 0, 1.0), (3, 4, 2.0), (1, 1, 3.0)])}
        model = HistoricalAcceptance().fit(histories)
        for target in (Point(0, 0), Point(2, 2), Point(100, 0)):
            assert 0.0 <= model.willingness(0, target) <= 1.0

    def test_willingness_all_matches_pairwise(self, history_factory):
        histories = {
            0: history_factory(0, [(0, 0, 1.0), (1, 0, 2.0)]),
            1: history_factory(1, [(5, 5, 1.0), (6, 5, 2.0), (5, 5, 3.0)]),
            2: history_factory(2, []),
        }
        model = HistoricalAcceptance().fit(histories)
        target = Point(1.0, 1.0)
        bulk = model.willingness_all(target)
        assert bulk.shape == (3,)
        for worker_id in (0, 1, 2):
            assert bulk[model.row_of(worker_id)] == pytest.approx(
                model.willingness(worker_id, target)
            )

    def test_willingness_all_on_empty_population(self, history_factory):
        model = HistoricalAcceptance().fit({0: history_factory(0, [])})
        out = model.willingness_all(Point(0, 0))
        assert out.shape == (1,)
        assert out[0] == 0.0

    def test_worker_ids_sorted(self, history_factory):
        histories = {
            9: history_factory(9, [(0, 0, 1.0), (1, 1, 2.0)]),
            3: history_factory(3, [(0, 0, 1.0), (1, 1, 2.0)]),
        }
        model = HistoricalAcceptance().fit(histories)
        assert model.worker_ids == [3, 9]

    def test_stationary_times_tail_structure(self, history_factory):
        """The model equals sum_i P_w(i) * (d_i + 1)^-pi by construction."""
        histories = {0: history_factory(0, [(0, 0, 1.0), (10, 0, 2.0)])}
        model = HistoricalAcceptance().fit(histories)
        mob = model.models[0]
        target = Point(0.0, 0.0)
        manual = sum(
            float(p) * (loc.distance_to(target) + 1.0) ** (-mob.pareto_shape)
            for loc, p in zip(mob.stationary.locations, mob.stationary.probabilities)
        )
        assert model.willingness(0, target) == pytest.approx(manual)

    def test_fit_on_real_instance(self, tiny_instance):
        model = HistoricalAcceptance().fit(tiny_instance.histories)
        task = tiny_instance.tasks[0]
        bulk = model.willingness_all(task.location)
        assert bulk.shape == (len(tiny_instance.all_worker_ids),)
        assert (bulk >= 0).all() and (bulk <= 1.0 + 1e-9).all()
        assert bulk.max() > 0.0  # someone has willingness toward some task


class TestBatchedFitMatchesReference:
    """``fit`` solves all workers' RWR in one batched power iteration; each
    worker must match the per-worker dense reference."""

    @settings(max_examples=60)
    @given(
        st.lists(_visits, min_size=1, max_size=8),
        st.floats(0.05, 1.0),
        st.integers(2, 3),
    )
    @example([[(1, 1)] * 4], 0.15, 2)  # a single location, repeated
    @example([[(0, 0), (1, 0), (2, 0)]], 0.15, 2)  # never-left terminal state
    @example([[(0, 0), (1, 0), (0, 0), (2, 0), (0, 0), (1, 0)]], 0.15, 2)  # revisits
    def test_stationary_and_bulk_match(self, workers, restart, min_history):
        histories = {w: _history(w, coords) for w, coords in enumerate(workers)}
        model = HistoricalAcceptance(restart=restart, min_history=min_history).fit(histories)
        for worker_id, coords in enumerate(workers):
            if len(coords) < min_history:
                assert worker_id not in model.models
                continue
            expected = random_walk_with_restart(
                histories[worker_id].locations, restart=restart
            )
            fitted = model.models[worker_id].stationary
            assert fitted.locations == expected.locations
            np.testing.assert_allclose(
                fitted.probabilities, expected.probabilities, rtol=0, atol=1e-12
            )
        target = Point(1.5, 0.5)
        bulk = model.willingness_all(target)
        for worker_id in histories:
            assert bulk[model.row_of(worker_id)] == pytest.approx(
                model.willingness(worker_id, target), abs=1e-12
            )

    def test_every_worker_below_min_history(self):
        histories = {w: _history(w, [(w, 0)] * w) for w in range(3)}
        model = HistoricalAcceptance(min_history=3).fit(histories)
        assert model.models == {}
        assert model.worker_ids == [0, 1, 2]
        np.testing.assert_array_equal(model.willingness_all(Point(0, 0)), np.zeros(3))
