"""Property tests on RRRCollection query identities.

The influence model relies on several equivalent formulations of the same
estimator (per-pair, per-row, batched sparse product); these tests pin the
identities on randomized collections so vectorization bugs cannot hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.propagation import RRRCollection


@st.composite
def collections(draw):
    """A random RRR collection with known membership."""
    num_workers = draw(st.integers(2, 12))
    num_sets = draw(st.integers(1, 25))
    roots = []
    members = []
    for _ in range(num_sets):
        root = draw(st.integers(0, num_workers - 1))
        extra = draw(
            st.lists(st.integers(0, num_workers - 1), min_size=0, max_size=6)
        )
        member = np.unique(np.array([root, *extra], dtype=np.int64))
        roots.append(root)
        members.append(member)
    collection = RRRCollection(num_workers=num_workers)
    collection.extend(np.array(roots, dtype=np.int64), members)
    return collection


class TestQueryIdentities:
    @settings(max_examples=40, deadline=None)
    @given(collection=collections())
    def test_ppro_matrix_row_matches_pairwise(self, collection):
        for source in range(collection.num_workers):
            row = collection.ppro_matrix_row(source)
            for target in range(collection.num_workers):
                assert row[target] == pytest.approx(
                    collection.ppro(source, target)
                ), (source, target)

    @settings(max_examples=40, deadline=None)
    @given(collection=collections())
    def test_weighted_root_cover_matches_explicit_sum(self, collection):
        rng = np.random.default_rng(0)
        weights = rng.random(collection.num_workers)
        out = collection.weighted_root_cover(weights)
        for source in range(collection.num_workers):
            explicit = sum(
                weights[target] * collection.ppro(source, target)
                for target in range(collection.num_workers)
            )
            assert out[source] == pytest.approx(explicit)

    @settings(max_examples=40, deadline=None)
    @given(collection=collections())
    def test_sigma_equals_unit_weighted_cover_plus_scaling(self, collection):
        """sigma(w) = |W|/N * count(w) and equals the coverage fraction
        identity used by Definition 6."""
        sigma = collection.sigma_all()
        fraction = collection.coverage_fraction()
        np.testing.assert_allclose(sigma, collection.num_workers * fraction)

    @settings(max_examples=30, deadline=None)
    @given(collection=collections())
    def test_membership_matrix_consistent_with_counts(self, collection):
        matrix = collection.membership_matrix()
        counts = np.asarray(matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(counts, collection.cover_counts())

    @settings(max_examples=30, deadline=None)
    @given(collection=collections())
    def test_greedy_informed_worker_maximizes_coverage(self, collection):
        best = collection.greedy_informed_worker()
        counts = collection.cover_counts()
        assert counts[best] == counts.max()

    @settings(max_examples=30, deadline=None)
    @given(collection=collections())
    def test_batch_cover_matches_per_column(self, collection):
        rng = np.random.default_rng(1)
        weights = rng.random((collection.num_workers, 3))
        batch = collection.weighted_root_cover_batch(weights)
        for column in range(3):
            single = collection.weighted_root_cover(weights[:, column])
            np.testing.assert_allclose(batch[:, column], single)

    def test_clear_resets_everything(self):
        collection = RRRCollection(num_workers=4)
        collection.extend(
            np.array([0, 1], dtype=np.int64),
            [np.array([0, 2], dtype=np.int64), np.array([1], dtype=np.int64)],
        )
        assert len(collection) == 2
        collection.clear()
        assert len(collection) == 0
        assert collection.sigma_all().sum() == 0.0
        assert collection.ppro(0, 1) == 0.0


def assert_matches_reference(actual, reference):
    """Within 1e-12 relative, and 1e-12 of the reference's largest entry."""
    scale = float(np.abs(reference).max()) if reference.size else 0.0
    np.testing.assert_allclose(actual, reference, rtol=1e-12, atol=1e-12 * scale)


class TestPropagationKernel:
    """``propagation_kernel`` is the production ``P_pro``; these pin it to
    the per-row and batched-product references."""

    @settings(max_examples=40, deadline=None)
    @given(collection=collections())
    def test_rows_equal_ppro_matrix_row_bit_for_bit(self, collection):
        dense = collection.propagation_kernel().toarray()
        assert dense.shape == (collection.num_workers, collection.num_workers)
        for source in range(collection.num_workers):
            assert np.array_equal(
                dense[source], collection.ppro_matrix_row(source)
            ), source

    @settings(max_examples=40, deadline=None)
    @given(collection=collections(), seed=st.integers(0, 2**16))
    def test_product_matches_weighted_root_cover_batch(self, collection, seed):
        weights = np.random.default_rng(seed).random((collection.num_workers, 4))
        assert_matches_reference(
            collection.propagation_kernel() @ weights,
            collection.weighted_root_cover_batch(weights),
        )

    def test_rebuilt_after_extend_and_clear(self):
        collection = RRRCollection(num_workers=3)
        collection.extend(
            np.array([0], dtype=np.int64), [np.array([0, 1], dtype=np.int64)]
        )
        first = collection.propagation_kernel()
        assert collection.propagation_kernel() is first  # cached
        np.testing.assert_array_equal(
            first.toarray(), [[3.0, 0, 0], [3.0, 0, 0], [0, 0, 0]]
        )

        collection.extend(
            np.array([2], dtype=np.int64), [np.array([1, 2], dtype=np.int64)]
        )
        extended = collection.propagation_kernel()
        for source in range(3):
            assert np.array_equal(
                extended.toarray()[source], collection.ppro_matrix_row(source)
            )
        np.testing.assert_array_equal(
            extended.toarray(), [[1.5, 0, 0], [1.5, 0, 1.5], [0, 0, 1.5]]
        )

        collection.clear()
        assert collection.propagation_kernel().nnz == 0
