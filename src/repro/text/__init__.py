"""Text-modeling substrate: vocabulary/corpus handling and LDA.

The paper trains Latent Dirichlet Allocation over "documents" made of the
task categories each worker performed (Figure 3).  This package implements
LDA from scratch twice:

* :class:`GibbsLDA` — collapsed Gibbs sampling, the textbook exact-ish
  sampler, used as the correctness reference on small corpora;
* :class:`VariationalLDA` — batch variational Bayes (Blei et al. 2003 /
  Hoffman et al. 2010), fully vectorized with numpy/scipy and fast enough
  for the full experiment pipeline, which always fits it.

Both expose the same interface (``fit`` / ``infer`` / ``doc_topic_`` /
``topic_word_``), so the affinity layer is agnostic to the trainer.
"""

from repro.text.corpus import Corpus, Vocabulary
from repro.text.lda import GibbsLDA, VariationalLDA, LDAModel

__all__ = ["Corpus", "Vocabulary", "GibbsLDA", "VariationalLDA", "LDAModel"]
