"""Statistical pin of VariationalLDA's warm-started, per-document E-step.

The literals are the train-set proxy and held-out perplexity of the
cold-started E-step with one global stopping rule (every E-step drew a
fresh ``gamma`` and all documents swept until their mean change fell below
``tol``).  The warm-started fit reaches a slightly different optimum, so
it is held to a relative tolerance rather than to exact values.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro.data
from repro.data import InstanceBuilder, brightkite_like
from repro.text import VariationalLDA

TOLERANCE = 0.005


def _bench_corpus(num_docs: int, seed: int = 0):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_substrate_lda.py"
    spec = importlib.util.spec_from_file_location("bench_substrate_lda", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_corpus(num_docs, seed=seed)


@pytest.fixture(scope="module")
def planted():
    """Nine planted topics over 90 words (K = 9)."""
    model = VariationalLDA(num_topics=9, seed=1).fit(_bench_corpus(400))
    return model, _bench_corpus(100, seed=9)


@pytest.fixture(scope="module")
def history_corpus():
    """Worker category documents of a small check-in world (K = 50):
    even rows train, odd rows are held out."""
    dataset = repro.data.generate_dataset(brightkite_like(seed=7, scale=0.05))
    histories = InstanceBuilder(dataset).build_day(29).histories
    documents = [histories[w].category_document for w in sorted(histories)]
    model = VariationalLDA(num_topics=50, seed=7).fit(documents[::2])
    return model, documents[1::2]


class TestFitQualityPinned:
    def test_planted_topics(self, planted):
        model, held_out = planted
        assert model.perplexity_proxy() == pytest.approx(-3.6946844034106263, rel=TOLERANCE)
        assert model.held_out_perplexity(held_out) == pytest.approx(
            117.78647820087656, rel=TOLERANCE
        )

    def test_history_corpus(self, history_corpus):
        model, held_out = history_corpus
        assert model.perplexity_proxy() == pytest.approx(-2.179090645565417, rel=TOLERANCE)
        assert model.held_out_perplexity(held_out) == pytest.approx(
            9.742789373148906, rel=TOLERANCE
        )


def _global_rule_infer(model: VariationalLDA, document) -> np.ndarray:
    """Fold-in with the cold-started E-step and one global stopping rule."""
    tokens = model.corpus.encode(document)
    counts = np.zeros((1, model.corpus.num_words))
    np.add.at(counts[0], tokens, 1.0)
    exp_elog_beta = model._exp_elog_beta
    gamma = np.random.default_rng(model.seed).gamma(100.0, 0.01, size=(1, model.num_topics))
    for _ in range(model.e_step_iter):
        exp_elog_theta = np.exp(model._dirichlet_expectation(gamma))
        phi_norm = exp_elog_theta @ exp_elog_beta + 1e-100
        new_gamma = model.alpha + exp_elog_theta * ((counts / phi_norm) @ exp_elog_beta.T)
        change = float(np.abs(new_gamma - gamma).mean())
        gamma = new_gamma
        if change < model.tol:
            break
    return gamma[0] / gamma[0].sum()


class TestInferUnchanged:
    def test_one_document_mask_equals_global_rule(self, planted):
        """For one document the per-document stopping rule is the global
        one, so fold-in is bit-identical for a fixed ``_exp_elog_beta``."""
        model, held_out = planted
        for document in held_out[:20]:
            assert np.array_equal(model.infer(document), _global_rule_infer(model, document))
