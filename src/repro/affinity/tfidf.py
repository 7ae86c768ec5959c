"""TF-IDF cosine affinity — the pre-topic-model baseline (extension).

DESIGN.md §5 calls out "affinity via document-topic dot product" as a design
choice; the natural ablation is the classic sparse lexical baseline: weight
each category by term-frequency x inverse-document-frequency over the
worker-history corpus and score a worker-task pair by cosine similarity.

Unlike LDA, TF-IDF gives zero affinity whenever the task's categories never
appear in a worker's history — no semantic smoothing across co-occurring
categories — which is exactly the deficiency that motivates the paper's LDA
choice.  The experiment suite uses this model to quantify that gap.

The class mirrors :class:`~repro.affinity.model.AffinityModel`'s interface
(``fit`` / ``affinity`` / ``affinity_matrix``) so the DITA pipeline can swap
it in without changes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from repro.affinity.model import pairwise_dot
from repro.entities import Task, TaskHistory
from repro.exceptions import NotFittedError


class TfidfAffinity:
    """Cosine similarity between TF-IDF vectors of worker and task documents.

    Parameters
    ----------
    smooth:
        Laplace-style smoothing added inside the IDF logarithm
        (``idf = ln((1 + D) / (1 + df)) + 1``, the "smooth idf" convention),
        keeping weights finite for categories present in every document.
    """

    def __init__(self, smooth: bool = True) -> None:
        self.smooth = smooth
        self._vocabulary: dict[str, int] = {}
        self._idf: np.ndarray | None = None
        self._worker_vectors: dict[int, np.ndarray] = {}
        self._task_cache: dict[tuple[str, ...], np.ndarray] = {}

    # ---------------------------------------------------------------- fitting
    def fit(self, histories: Mapping[int, TaskHistory]) -> "TfidfAffinity":
        """Build the vocabulary and IDF from all workers' category documents,
        then precompute each worker's normalized TF-IDF vector."""
        documents = {w: histories[w].category_document for w in sorted(histories)}
        if not any(documents.values()):
            raise NotFittedError("every worker history is empty; cannot fit TF-IDF")

        terms = sorted({term for doc in documents.values() for term in doc})
        self._vocabulary = {term: i for i, term in enumerate(terms)}

        document_frequency = np.zeros(len(terms))
        non_empty = 0
        for doc in documents.values():
            if not doc:
                continue
            non_empty += 1
            for term in set(doc):
                document_frequency[self._vocabulary[term]] += 1
        if self.smooth:
            self._idf = np.log((1.0 + non_empty) / (1.0 + document_frequency)) + 1.0
        else:
            self._idf = np.log(non_empty / np.maximum(document_frequency, 1.0)) + 1.0

        self._worker_vectors = {
            worker_id: self._vectorize(doc) for worker_id, doc in documents.items()
        }
        return self

    def _require_fitted(self) -> None:
        if self._idf is None:
            raise NotFittedError("TfidfAffinity.fit must be called first")

    def _vectorize(self, document: Sequence[str]) -> np.ndarray:
        """Unit-norm TF-IDF vector of a document (zeros if nothing known)."""
        assert self._idf is not None
        vector = np.zeros(len(self._vocabulary))
        counts = Counter(document)
        for term, count in counts.items():
            index = self._vocabulary.get(term)
            if index is not None:
                vector[index] = count * self._idf[index]
        norm = float(np.linalg.norm(vector))
        return vector / norm if norm > 0 else vector

    # ---------------------------------------------------------------- queries
    @property
    def vocabulary_size(self) -> int:
        """Number of distinct categories seen at fit time."""
        self._require_fitted()
        return len(self._vocabulary)

    def worker_vector(self, worker_id: int) -> np.ndarray:
        """Normalized TF-IDF vector of a worker (zeros for unknown workers)."""
        self._require_fitted()
        vector = self._worker_vectors.get(worker_id)
        if vector is None:
            vector = np.zeros(len(self._vocabulary))
            self._worker_vectors[worker_id] = vector
        return vector

    def task_vector(self, categories: Sequence[str]) -> np.ndarray:
        """Normalized TF-IDF vector of a task document (cached)."""
        self._require_fitted()
        key = tuple(categories)
        vector = self._task_cache.get(key)
        if vector is None:
            vector = self._vectorize(list(key))
            self._task_cache[key] = vector
        return vector

    def affinity(self, worker_id: int, task: Task) -> float:
        """Cosine similarity standing in for ``P_aff(w, s)``."""
        return float(self.worker_vector(worker_id) @ self.task_vector(task.categories))

    def affinity_matrix(self, worker_ids: Sequence[int], tasks: Sequence[Task]) -> np.ndarray:
        """``len(worker_ids) x len(tasks)`` cosine-affinity matrix."""
        self._require_fitted()
        if not worker_ids or not tasks:
            return np.zeros((len(worker_ids), len(tasks)))
        worker_stack = np.stack([self.worker_vector(w) for w in worker_ids])
        task_stack = np.stack([self.task_vector(t.categories) for t in tasks])
        return pairwise_dot(worker_stack, task_stack)
