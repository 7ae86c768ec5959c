"""Latent Dirichlet Allocation, implemented from scratch.

Two trainers share one interface:

* :class:`GibbsLDA` — collapsed Gibbs sampling (Griffiths & Steyvers 2004).
  Exact in the limit; used as the reference implementation and for tests.
* :class:`VariationalLDA` — batch variational Bayes (Blei et al. 2003,
  with the exp-digamma updates of Hoffman et al. 2010), fully vectorized.
  This is the trainer the experiment pipeline always fits, where corpora
  have thousands of documents.

Interface
---------
``fit(documents)`` trains on tokenized documents, then

* ``doc_topic_`` is the ``D x K`` matrix of document-topic proportions
  (rows sum to 1) — the paper's ``P(t | d)``;
* ``topic_word_`` is the ``K x V`` matrix of topic-word probabilities
  (rows sum to 1) — the paper's ``P(v | t)``;
* ``infer(document)`` folds in an unseen document and returns its length-K
  topic proportion vector.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np
from scipy.special import digamma

from repro.exceptions import NotFittedError
from repro.text.corpus import Corpus


class LDAModel(abc.ABC):
    """Common base class for the two LDA trainers."""

    def __init__(self, num_topics: int, alpha: float | None = None, beta: float = 0.01, seed: int = 0) -> None:
        if num_topics < 1:
            raise ValueError(f"num_topics must be >= 1, got {num_topics}")
        self.num_topics = num_topics
        #: Dirichlet prior on document-topic proportions; the common
        #: 50/K heuristic unless given explicitly.
        self.alpha = alpha if alpha is not None else 50.0 / num_topics
        #: Dirichlet prior on topic-word distributions.
        self.beta = beta
        self.seed = seed
        self.corpus: Corpus | None = None
        self.doc_topic_: np.ndarray | None = None
        self.topic_word_: np.ndarray | None = None

    def _require_fitted(self) -> Corpus:
        if self.corpus is None or self.topic_word_ is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.corpus

    @abc.abstractmethod
    def fit(self, documents: Sequence[Sequence[str]]) -> "LDAModel":
        """Train on tokenized documents and return ``self``."""

    @abc.abstractmethod
    def infer(self, document: Sequence[str]) -> np.ndarray:
        """Return the topic proportions of an unseen document."""

    def top_words(self, topic: int, count: int = 10) -> list[tuple[str, float]]:
        """The ``count`` highest-probability words of one topic.

        Returns ``(word, probability)`` pairs, descending — the standard
        way to inspect what a topic "means".
        """
        corpus = self._require_fitted()
        assert self.topic_word_ is not None
        if not 0 <= topic < self.num_topics:
            raise ValueError(f"topic {topic} out of range [0, {self.num_topics})")
        row = self.topic_word_[topic]
        order = np.argsort(row)[::-1][:count]
        return [(corpus.vocabulary.word_of(int(i)), float(row[i])) for i in order]

    def held_out_perplexity(self, documents: Sequence[Sequence[str]]) -> float:
        """Per-token perplexity of unseen documents.

        Each document is folded in with :meth:`infer` to get its topic
        proportions, then scored token by token under the trained
        topic-word distributions: ``exp(-mean log p(w | theta, beta))``.
        Lower is better; out-of-vocabulary tokens are skipped (they carry
        no information about the fitted model).
        """
        corpus = self._require_fitted()
        assert self.topic_word_ is not None
        total, count = 0.0, 0
        for document in documents:
            tokens = corpus.encode(document)
            if not len(tokens):
                continue
            theta = self.infer(document)
            probs = theta @ self.topic_word_[:, tokens]
            total += float(np.log(np.maximum(probs, 1e-300)).sum())
            count += len(tokens)
        if count == 0:
            raise ValueError("no in-vocabulary tokens in the held-out documents")
        return float(np.exp(-total / count))

    def perplexity_proxy(self) -> float:
        """A train-set log-likelihood proxy (mean per-token log prob).

        Not a true held-out perplexity; useful to check that training
        monotonically improves and for sanity assertions in tests.
        """
        corpus = self._require_fitted()
        assert self.doc_topic_ is not None and self.topic_word_ is not None
        total, count = 0.0, 0
        for d, tokens in enumerate(corpus.doc_tokens):
            if not len(tokens):
                continue
            probs = self.doc_topic_[d] @ self.topic_word_[:, tokens]
            total += float(np.log(np.maximum(probs, 1e-300)).sum())
            count += len(tokens)
        return total / max(count, 1)


class GibbsLDA(LDAModel):
    """Collapsed Gibbs sampling LDA.

    Maintains the usual count tables (``n_dk``, ``n_kw``, ``n_k``) and
    resamples every token's topic assignment each sweep.  Suited to small
    corpora; complexity is O(iterations * tokens * K).
    """

    def __init__(
        self,
        num_topics: int,
        alpha: float | None = None,
        beta: float = 0.01,
        iterations: int = 200,
        seed: int = 0,
    ) -> None:
        super().__init__(num_topics, alpha, beta, seed)
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self._n_kw: np.ndarray | None = None
        self._n_k: np.ndarray | None = None

    def fit(self, documents: Sequence[Sequence[str]]) -> "GibbsLDA":
        corpus = Corpus(documents)
        self.corpus = corpus
        rng = np.random.default_rng(self.seed)
        K, V, D = self.num_topics, corpus.num_words, len(corpus)

        n_dk = np.zeros((D, K), dtype=np.float64)
        n_kw = np.zeros((K, V), dtype=np.float64)
        n_k = np.zeros(K, dtype=np.float64)
        assignments: list[np.ndarray] = []
        for d, tokens in enumerate(corpus.doc_tokens):
            z = rng.integers(K, size=len(tokens))
            assignments.append(z)
            for token, topic in zip(tokens, z):
                n_dk[d, topic] += 1
                n_kw[topic, token] += 1
                n_k[topic] += 1

        alpha, beta = self.alpha, self.beta
        for _ in range(self.iterations):
            for d, tokens in enumerate(corpus.doc_tokens):
                z = assignments[d]
                for i in range(len(tokens)):
                    w = tokens[i]
                    topic = z[i]
                    n_dk[d, topic] -= 1
                    n_kw[topic, w] -= 1
                    n_k[topic] -= 1
                    weights = (n_dk[d] + alpha) * (n_kw[:, w] + beta) / (n_k + V * beta)
                    cumulative = np.cumsum(weights)
                    topic = int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))
                    topic = min(topic, K - 1)
                    z[i] = topic
                    n_dk[d, topic] += 1
                    n_kw[topic, w] += 1
                    n_k[topic] += 1

        self._n_kw = n_kw
        self._n_k = n_k
        self.topic_word_ = (n_kw + beta) / (n_k[:, None] + V * beta)
        doc_topic = n_dk + alpha
        self.doc_topic_ = doc_topic / doc_topic.sum(axis=1, keepdims=True)
        return self

    def infer(self, document: Sequence[str], iterations: int = 50) -> np.ndarray:
        """Fold-in Gibbs sampling for an unseen document."""
        corpus = self._require_fitted()
        assert self._n_kw is not None and self._n_k is not None
        tokens = corpus.encode(document)
        K, V = self.num_topics, corpus.num_words
        alpha, beta = self.alpha, self.beta
        if not len(tokens):
            return np.full(K, 1.0 / K)

        rng = np.random.default_rng(self.seed + 1)
        z = rng.integers(K, size=len(tokens))
        n_k_local = np.zeros(K, dtype=np.float64)
        for topic in z:
            n_k_local[topic] += 1
        for _ in range(iterations):
            for i, w in enumerate(tokens):
                n_k_local[z[i]] -= 1
                weights = (n_k_local + alpha) * (self._n_kw[:, w] + beta) / (self._n_k + V * beta)
                cumulative = np.cumsum(weights)
                topic = int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))
                topic = min(topic, K - 1)
                z[i] = topic
                n_k_local[topic] += 1
        theta = n_k_local + alpha
        return theta / theta.sum()


class VariationalLDA(LDAModel):
    """Batch variational Bayes LDA, fully vectorized.

    The E-step optimizes per-document variational Dirichlets ``gamma`` with
    the exp-digamma fixed point; the M-step updates the topic-word
    variational Dirichlet ``lambda`` from expected counts.  All updates are
    dense matrix operations over the ``D x V`` count matrix, which is
    exactly the right trade-off for our small vocabularies (≈90 categories).

    ``fit`` draws ``gamma`` once and warm-starts every E-step from the
    previous one's result instead of from a fresh draw.  Within an E-step
    each document stops on its own: once the mean absolute change of its
    ``gamma`` row falls below ``tol`` it drops out of the remaining sweeps
    (at most ``e_step_iter``).  ``infer`` folds a document in from its own
    seeded ``gamma``.
    """

    def __init__(
        self,
        num_topics: int,
        alpha: float | None = None,
        beta: float = 0.01,
        max_iter: int = 60,
        e_step_iter: int = 40,
        tol: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(num_topics, alpha, beta, seed)
        self.max_iter = max_iter
        self.e_step_iter = e_step_iter
        self.tol = tol
        self._lambda: np.ndarray | None = None
        self._exp_elog_beta: np.ndarray | None = None

    @staticmethod
    def _dirichlet_expectation(matrix: np.ndarray) -> np.ndarray:
        """E[log X] for rows of Dirichlet-distributed ``matrix``."""
        return digamma(matrix) - digamma(matrix.sum(axis=1, keepdims=True))

    def _initial_gamma(self, num_docs: int) -> np.ndarray:
        """The seeded starting point of the per-document ``gamma``."""
        rng = np.random.default_rng(self.seed)
        return rng.gamma(100.0, 0.01, size=(num_docs, self.num_topics))

    def _e_step(
        self, counts: np.ndarray, exp_elog_beta: np.ndarray, gamma: np.ndarray
    ) -> np.ndarray:
        """Optimize ``gamma`` for all documents in place; return sstats.

        Only documents whose ``gamma`` row still moved by ``tol`` or more
        (mean absolute change) in the last sweep take part in the next one.
        """
        # The still-moving rows are swept as their own arrays and written
        # back into ``gamma`` only when they stop, so a sweep in which no
        # document stops costs no gather or scatter.
        active = np.arange(counts.shape[0])
        doc_gamma, doc_counts = gamma, counts
        for _ in range(self.e_step_iter):
            exp_elog_theta = np.exp(self._dirichlet_expectation(doc_gamma))
            # phi_norm[d, v] = sum_k exp_elog_theta[d, k] * exp_elog_beta[k, v]
            phi_norm = exp_elog_theta @ exp_elog_beta + 1e-100
            new_gamma = self.alpha + exp_elog_theta * ((doc_counts / phi_norm) @ exp_elog_beta.T)
            # Row sums over K are the per-document mean absolute change;
            # np.mean's per-call overhead would dominate infer's one-row sweeps.
            moving = np.abs(new_gamma - doc_gamma).sum(axis=1) / self.num_topics >= self.tol
            doc_gamma = new_gamma
            if np.count_nonzero(moving) < moving.size:
                gamma[active[~moving]] = doc_gamma[~moving]
                active, doc_gamma, doc_counts = active[moving], doc_gamma[moving], doc_counts[moving]
                if not active.size:
                    break
        gamma[active] = doc_gamma
        exp_elog_theta = np.exp(self._dirichlet_expectation(gamma))
        phi_norm = exp_elog_theta @ exp_elog_beta + 1e-100
        return exp_elog_theta.T @ (counts / phi_norm)

    def fit(self, documents: Sequence[Sequence[str]]) -> "VariationalLDA":
        corpus = Corpus(documents)
        self.corpus = corpus
        counts = corpus.count_matrix()
        V = corpus.num_words
        rng = np.random.default_rng(self.seed)
        lam = rng.gamma(100.0, 0.01, size=(self.num_topics, V))
        gamma = self._initial_gamma(len(corpus))

        last_bound = -np.inf
        for _ in range(self.max_iter):
            exp_elog_beta = np.exp(self._dirichlet_expectation(lam))
            sstats = self._e_step(counts, exp_elog_beta, gamma)
            lam = self.beta + sstats * exp_elog_beta
            # Cheap convergence proxy: change of the mean log lambda between
            # M-steps (not the ELBO).
            bound = float(np.log(np.maximum(lam, 1e-300)).mean())
            if abs(bound - last_bound) < self.tol:
                break
            last_bound = bound

        self._lambda = lam
        self._exp_elog_beta = np.exp(self._dirichlet_expectation(lam))
        self.topic_word_ = lam / lam.sum(axis=1, keepdims=True)
        self._e_step(counts, self._exp_elog_beta, gamma)
        self.doc_topic_ = gamma / gamma.sum(axis=1, keepdims=True)
        return self

    def infer(self, document: Sequence[str]) -> np.ndarray:
        """Variational fold-in of an unseen document."""
        corpus = self._require_fitted()
        assert self._exp_elog_beta is not None
        tokens = corpus.encode(document)
        K = self.num_topics
        if not len(tokens):
            return np.full(K, 1.0 / K)
        counts = np.zeros((1, corpus.num_words))
        np.add.at(counts[0], tokens, 1.0)
        gamma = self._initial_gamma(1)
        self._e_step(counts, self._exp_elog_beta, gamma)
        theta = gamma[0]
        return theta / theta.sum()
