"""Tests for the LDA-based worker-task affinity model."""

import numpy as np
import pytest

from repro.affinity import AffinityModel
from repro.affinity.model import pairwise_dot
from repro.entities import Task
from repro.exceptions import NotFittedError
from repro.geo import Point
from repro.text import VariationalLDA


def make_task(categories, task_id=0):
    return Task(
        task_id=task_id, location=Point(0, 0), publication_time=0.0,
        valid_hours=5.0, categories=tuple(categories),
    )


@pytest.fixture()
def topical_histories(history_factory):
    """Two sharply topical workers: a food lover and a nightlife lover."""
    food = history_factory(0, [(0, 0, t, ("restaurant", "cafe")) for t in range(10)])
    night = history_factory(1, [(0, 0, t, ("bar", "nightclub")) for t in range(10)])
    empty = history_factory(2, [])
    return {0: food, 1: night, 2: empty}


class TestAffinityModel:
    def test_requires_fit(self):
        model = AffinityModel(num_topics=2)
        with pytest.raises(NotFittedError):
            model.worker_topics(0)

    def test_all_empty_histories_raise(self, history_factory):
        model = AffinityModel(num_topics=2)
        with pytest.raises(NotFittedError):
            model.fit({0: history_factory(0, []), 1: history_factory(1, [])})

    def test_prefers_matching_categories(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        food_task = make_task(["restaurant", "cafe"])
        night_task = make_task(["bar", "nightclub"])
        assert model.affinity(0, food_task) > model.affinity(0, night_task)
        assert model.affinity(1, night_task) > model.affinity(1, food_task)

    def test_affinity_in_unit_interval(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        task = make_task(["restaurant"])
        for worker_id in (0, 1, 2):
            value = model.affinity(worker_id, task)
            assert 0.0 <= value <= 1.0

    def test_unknown_worker_gets_uniform_topics(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        theta = model.worker_topics(999)
        np.testing.assert_allclose(theta, 0.5)

    def test_empty_history_worker_gets_prior(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        theta = model.worker_topics(2)
        # An empty document should stay close to the uniform prior.
        assert abs(theta[0] - theta[1]) < 0.35

    def test_affinity_matrix_matches_pairwise(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        tasks = [make_task(["restaurant"], 0), make_task(["bar"], 1)]
        matrix = model.affinity_matrix([0, 1, 2], tasks)
        assert matrix.shape == (3, 2)
        for i, worker_id in enumerate((0, 1, 2)):
            for j, task in enumerate(tasks):
                assert matrix[i, j] == pytest.approx(model.affinity(worker_id, task))

    def test_affinity_matrix_empty_inputs(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        assert model.affinity_matrix([], []).shape == (0, 0)

    def test_task_topic_cache_by_categories(self, topical_histories):
        model = AffinityModel(num_topics=2, seed=3).fit(topical_histories)
        t1 = make_task(["restaurant", "cafe"], 0)
        t2 = make_task(["restaurant", "cafe"], 99)  # same categories, new id
        np.testing.assert_array_equal(
            model.task_topics(t1.categories), model.task_topics(t2.categories)
        )

    def test_custom_lda_model(self, topical_histories):
        lda = VariationalLDA(num_topics=3, seed=11)
        model = AffinityModel(lda=lda).fit(topical_histories)
        assert model.effective_topics == 3

    def test_fit_on_pipeline_instance(self, tiny_instance):
        """Affinity fits on a real instance's histories end-to-end."""
        model = AffinityModel(num_topics=4, seed=0).fit(tiny_instance.histories)
        task = tiny_instance.tasks[0]
        worker_id = tiny_instance.workers[0].worker_id
        assert 0.0 <= model.affinity(worker_id, task) <= 1.0


class TestDenseTopicMatrix:
    """The fit-time worker-topic matrix must be an invisible optimization:
    bit-identical affinity matrices vs per-worker stacking."""

    def test_affinity_matrix_bit_identical_to_stacked_path(self, topical_histories):
        model = AffinityModel(num_topics=4, seed=0).fit(topical_histories)
        tasks = [
            make_task(("restaurant",), task_id=0),
            make_task(("nightclub", "bar"), task_id=1),
        ]
        worker_ids = [0, 1, 2, 99]  # 99 is unknown -> uniform prior
        matrix = model.affinity_matrix(worker_ids, tasks)
        stacked = pairwise_dot(
            np.stack([model.worker_topics(w) for w in worker_ids]),
            np.stack([model.task_topics(t.categories) for t in tasks]),
        )
        np.testing.assert_array_equal(matrix, stacked)

    def test_cells_do_not_depend_on_matrix_shape(self, topical_histories):
        """Single rows, single columns and single cells equal the full
        matrix bit for bit — incremental round preparation fills influence
        in such sub-rectangles."""
        model = AffinityModel(num_topics=4, seed=0).fit(topical_histories)
        categories = [("restaurant",), ("nightclub", "bar"), ("cafe",), ("bar",), ("gym",)]
        tasks = [make_task(c, task_id=i) for i, c in enumerate(categories)]
        worker_ids = [2, 0, 99, 1]
        full = model.affinity_matrix(worker_ids, tasks)
        for i, worker_id in enumerate(worker_ids):
            np.testing.assert_array_equal(model.affinity_matrix([worker_id], tasks)[0], full[i])
            for j, task in enumerate(tasks):
                assert model.affinity_matrix([worker_id], [task])[0, 0] == full[i, j]
        for j, task in enumerate(tasks):
            column = model.affinity_matrix(worker_ids, [task])[:, 0]
            np.testing.assert_array_equal(column, full[:, j])

    def test_topic_matrix_rows_match_worker_topics(self, topical_histories):
        model = AffinityModel(num_topics=4, seed=0).fit(topical_histories)
        theta = model.topic_matrix([1, 0, 42])
        np.testing.assert_array_equal(theta[0], model.worker_topics(1))
        np.testing.assert_array_equal(theta[1], model.worker_topics(0))
        np.testing.assert_array_equal(
            theta[2], np.full(model.effective_topics, 1.0 / model.effective_topics)
        )

    def test_topic_matrix_rows_aligned_with_sorted_fit_ids(self, topical_histories):
        """Row r of the fit-time matrix belongs to the r-th sorted worker id —
        the same dense ordering SocialGraph assigns its indices."""
        model = AffinityModel(num_topics=4, seed=0).fit(topical_histories)
        for row, worker_id in enumerate(sorted(topical_histories)):
            np.testing.assert_array_equal(
                model._theta_matrix[row], model.worker_topics(worker_id)
            )

    def test_topic_matrix_requires_fit(self):
        with pytest.raises(NotFittedError):
            AffinityModel(num_topics=3).topic_matrix([0])

    def test_refit_clears_unknown_worker_cache(self, topical_histories, history_factory):
        model = AffinityModel(num_topics=4, seed=0).fit(topical_histories)
        uniform = model.worker_topics(7)
        assert np.allclose(uniform, 1.0 / model.effective_topics)
        extended = dict(topical_histories)
        extended[7] = history_factory(7, [(0, 0, t, ("museum",)) for t in range(6)])
        model.fit(extended)
        assert not np.allclose(model.worker_topics(7), uniform)
