"""Tests for the combined worker-task influence model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import IAAssigner
from repro.exceptions import ConfigurationError
from repro.influence import InfluenceComponents, InfluenceModel
from repro.stream import StreamRuntime, TimeWindowTrigger, multi_day_stream


class TestInfluenceComponents:
    def test_full_has_everything(self):
        full = InfluenceComponents.full()
        assert full.affinity and full.willingness and full.propagation

    def test_ablations_drop_one(self):
        assert not InfluenceComponents.without_affinity().affinity
        assert not InfluenceComponents.without_willingness().willingness
        assert not InfluenceComponents.without_propagation().propagation

    def test_all_disabled_rejected(self):
        with pytest.raises(ConfigurationError):
            InfluenceComponents(affinity=False, willingness=False, propagation=False)

    def test_hashable_for_grouping(self):
        assert InfluenceComponents.full() == InfluenceComponents()
        assert len({InfluenceComponents.full(), InfluenceComponents()}) == 1


class TestInfluenceModel:
    def test_matrix_shape(self, fitted_models, tiny_instance):
        model = fitted_models.influence_model()
        matrix = model.influence_matrix(tiny_instance.workers[:5], tiny_instance.tasks[:7])
        assert matrix.shape == (5, 7)

    def test_matrix_non_negative(self, full_influence, tiny_instance):
        matrix = full_influence.influence_matrix(tiny_instance.workers, tiny_instance.tasks)
        assert (matrix >= 0.0).all()

    def test_matrix_not_identically_zero(self, full_influence, tiny_instance):
        matrix = full_influence.influence_matrix(tiny_instance.workers, tiny_instance.tasks)
        assert matrix.max() > 0.0

    def test_empty_inputs(self, full_influence):
        assert full_influence.influence_matrix([], []).shape == (0, 0)

    def test_single_pair_matches_matrix(self, full_influence, tiny_instance):
        worker = tiny_instance.workers[0]
        task = tiny_instance.tasks[0]
        matrix = full_influence.influence_matrix([worker], [task])
        assert full_influence.influence(worker, task) == pytest.approx(float(matrix[0, 0]))

    def test_full_influence_is_affinity_times_inner(self, fitted_models, tiny_instance):
        """if = P_aff * sum_i P_wil * P_pro — verified against the
        components computed independently."""
        model = fitted_models.influence_model()
        worker = tiny_instance.workers[0]
        task = tiny_instance.tasks[0]

        graph = fitted_models.graph
        wil = np.zeros(graph.num_workers)
        for worker_id in fitted_models.willingness.worker_ids:
            wil[graph.index_of(worker_id)] = fitted_models.willingness.willingness(
                worker_id, task.location
            )
        source = graph.index_of(worker.worker_id)
        ppro_row = fitted_models.propagation.ppro_matrix_row(source)
        inner = sum(
            wil[i] * ppro_row[i] for i in range(graph.num_workers) if i != source
        )
        expected = fitted_models.affinity.affinity(worker.worker_id, task) * inner
        assert model.influence(worker, task) == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_ablation_without_affinity_ignores_topics(self, fitted_models, tiny_instance):
        ablated = fitted_models.influence_model(InfluenceComponents.without_affinity())
        full = fitted_models.influence_model()
        workers, tasks = tiny_instance.workers[:4], tiny_instance.tasks[:4]
        matrix_ablated = ablated.influence_matrix(workers, tasks)
        matrix_full = full.influence_matrix(workers, tasks)
        # Full = affinity * ablated (elementwise), with affinity <= 1 -> full <= ablated.
        assert (matrix_full <= matrix_ablated + 1e-9).all()

    def test_ablation_without_willingness_is_affinity_times_sigma(
        self, fitted_models, tiny_instance
    ):
        ablated = fitted_models.influence_model(InfluenceComponents.without_willingness())
        worker = tiny_instance.workers[1]
        task = tiny_instance.tasks[1]
        expected = (
            fitted_models.affinity.affinity(worker.worker_id, task)
            * ablated.sigma(worker.worker_id)
        )
        assert ablated.influence(worker, task) == pytest.approx(expected, rel=1e-9)

    def test_ablation_without_propagation_sums_other_willingness(
        self, fitted_models, tiny_instance
    ):
        ablated = fitted_models.influence_model(InfluenceComponents.without_propagation())
        worker = tiny_instance.workers[2]
        task = tiny_instance.tasks[2]
        graph = fitted_models.graph
        total = 0.0
        for worker_id in fitted_models.willingness.worker_ids:
            if worker_id == worker.worker_id:
                continue
            total += fitted_models.willingness.willingness(worker_id, task.location)
        expected = fitted_models.affinity.affinity(worker.worker_id, task) * total
        assert ablated.influence(worker, task) == pytest.approx(expected, rel=1e-6)

    def test_sigma_positive_for_connected_worker(self, fitted_models, tiny_instance):
        worker = tiny_instance.workers[0]
        assert fitted_models.influence_model().sigma(worker.worker_id) >= 1.0 - 1e-6

    def test_propagation_to_others_excludes_self(self, fitted_models, tiny_instance):
        model = fitted_models.influence_model()
        worker = tiny_instance.workers[0]
        assert model.propagation_to_others(worker.worker_id) <= model.sigma(worker.worker_id)
        assert model.propagation_to_others(worker.worker_id) >= 0.0


#: Every influence configuration: the full model and its three ablations.
ALL_COMPONENTS = [
    InfluenceComponents.full(),
    InfluenceComponents.without_affinity(),
    InfluenceComponents.without_willingness(),
    InfluenceComponents.without_propagation(),
]


def reference_influence(fitted, components, workers, tasks):
    """``if(w, s)`` built per task from ``willingness_all`` and the batched
    ``weighted_root_cover`` reference, with no caching and no kernel."""
    graph = fitted.graph
    n = graph.num_workers
    rows = graph.indices_of(fitted.willingness.worker_ids)
    candidate = graph.indices_of([w.worker_id for w in workers])
    propagation = fitted.propagation
    columns = []
    for task in tasks:
        column = np.zeros(n)
        column[rows] = fitted.willingness.willingness_all(task.location)
        columns.append(column)
    block = np.stack(columns, axis=1)
    wil = block[candidate]
    if components.willingness and components.propagation:
        roots = np.bincount(propagation.roots, minlength=n)
        self_pro = n * roots / len(propagation)
        inner = propagation.weighted_root_cover_batch(block)[candidate] - (
            self_pro[candidate, None] * wil
        )
    elif components.willingness:
        totals = np.array([float(column.sum()) for column in columns])
        inner = totals[None, :] - wil
    else:
        inner = np.repeat(
            propagation.sigma_all()[candidate, None], len(tasks), axis=1
        )
    inner = np.maximum(inner, 0.0)
    if components.affinity:
        ids = [w.worker_id for w in workers]
        return fitted.affinity.affinity_matrix(ids, tasks) * inner
    return inner


def count_willingness_calls(monkeypatch, willingness) -> list:
    """Record the location of every ``willingness_all`` call."""
    calls = []
    original = willingness.willingness_all

    def counting(location):
        calls.append(location)
        return original(location)

    monkeypatch.setattr(willingness, "willingness_all", counting)
    return calls


@pytest.fixture(scope="module")
def warm_models(fitted_models):
    """One model per configuration, kept warm across hypothesis examples so
    the differential also covers cache hits."""
    return {c: fitted_models.influence_model(c) for c in ALL_COMPONENTS}


class TestLocationKeyedColumns:
    @pytest.mark.parametrize("components", ALL_COMPONENTS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_task_reference(
        self, data, components, warm_models, fitted_models, tiny_instance
    ):
        workers = tiny_instance.workers
        tasks = tiny_instance.tasks
        picked_workers = data.draw(
            st.lists(st.sampled_from(workers), min_size=1, max_size=12, unique=True)
        )
        # (task, location source) pairs: moving a task onto another task's
        # location makes calls with shared locations but distinct categories.
        picks = data.draw(
            st.lists(
                st.tuples(st.sampled_from(tasks), st.sampled_from(tasks)),
                min_size=1, max_size=10,
            )
        )
        picked_tasks = [
            replace(task, location=source.location) for task, source in picks
        ]
        actual = warm_models[components].influence_matrix(
            picked_workers, picked_tasks
        )
        expected = reference_influence(
            fitted_models, components, picked_workers, picked_tasks
        )
        if components.willingness and components.propagation:
            scale = float(np.abs(expected).max())
            np.testing.assert_allclose(
                actual, expected, rtol=1e-12, atol=1e-12 * scale
            )
        else:
            assert np.array_equal(actual, expected)

    def test_one_willingness_call_per_location_on_a_stream(
        self, monkeypatch, tiny_dataset, fitted_models
    ):
        base, log = multi_day_stream(tiny_dataset, [6, 7])
        model = fitted_models.influence_model()
        calls = count_willingness_calls(monkeypatch, fitted_models.willingness)
        seen = []
        original = model.influence_matrix

        def recording(workers, tasks):
            if workers:
                seen.extend(tasks)
            return original(workers, tasks)

        monkeypatch.setattr(model, "influence_matrix", recording)
        result = StreamRuntime(
            IAAssigner(), model, TimeWindowTrigger(2.0), base, log
        ).run()
        assert result.total_assigned > 0
        locations = {task.location for task in seen}
        # The stream re-publishes venues on its second day, so keying by
        # task would call more often than keying by location.
        assert len(locations) < len({task.task_id for task in seen})
        assert len(calls) == len(locations)
        assert set(calls) == locations

    def test_shared_location_shares_column_not_affinity(
        self, monkeypatch, fitted_models, tiny_instance
    ):
        workers = tiny_instance.workers
        first, second = tiny_instance.tasks[0], tiny_instance.tasks[1]
        assert first.categories != second.categories
        moved = replace(second, location=first.location)
        full = fitted_models.influence_model()
        calls = count_willingness_calls(monkeypatch, fitted_models.willingness)
        matrix = full.influence_matrix(workers, [first, moved])
        assert calls == [first.location]

        inner = fitted_models.influence_model(
            InfluenceComponents.without_affinity()
        ).influence_matrix(workers, [first, moved])
        assert np.array_equal(inner[:, 0], inner[:, 1])
        affinity = fitted_models.affinity.affinity_matrix(
            [w.worker_id for w in workers], [first, moved]
        )
        assert not np.array_equal(affinity[:, 0], affinity[:, 1])
        assert np.array_equal(matrix, affinity * inner)

    def test_relocated_task_reads_its_new_column(self, fitted_models, tiny_instance):
        workers = tiny_instance.workers
        task = tiny_instance.tasks[0]
        relocated = replace(task, location=tiny_instance.tasks[5].location)
        warm = fitted_models.influence_model()
        before = warm.influence_matrix(workers, [task])
        after = warm.influence_matrix(workers, [relocated])
        cold = fitted_models.influence_model().influence_matrix(workers, [relocated])
        assert np.array_equal(after, cold)
        assert not np.array_equal(after, before)
