"""Experiment configuration, including the paper's Table II defaults."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PaperDefaults:
    """Default parameter values of Table II plus Section V-A constants."""

    #: Default number of tasks |S|.
    num_tasks: int = 1500
    #: Default number of workers |W|.
    num_workers: int = 1200
    #: Default valid time of tasks ϕ (hours).
    valid_hours: float = 5.0
    #: Default reachable radius r (km).
    reachable_km: float = 25.0
    #: Common worker speed (km/h).
    speed_kmh: float = 5.0
    #: Number of LDA topics |Top|.
    num_topics: int = 50
    #: RPO approximation parameter ϵ.
    epsilon: float = 0.1
    #: RPO failure exponent o (λ = 1/|W|^o).
    o: float = 1.0
    #: Number of evaluation days averaged per experiment.
    num_days: int = 4

    #: The sweep grids of the evaluation section.
    task_sweep: tuple[int, ...] = (500, 1000, 1500, 2000, 2500)
    worker_sweep: tuple[int, ...] = (400, 800, 1200, 1600, 2000)
    valid_hours_sweep: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    radius_sweep: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0)


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of :class:`~repro.framework.DITAPipeline`.

    Attributes
    ----------
    num_topics:
        LDA topic count.  The pipeline always fits
        :class:`~repro.text.VariationalLDA`; the collapsed Gibbs sampler is
        only the test reference it is checked against.
    affinity_engine:
        ``"lda"`` (the paper's model, default) or ``"tfidf"`` (the lexical
        baseline ablation of DESIGN.md §5).
    restart:
        RWR restart probability for Historical Acceptance.
    movement_family:
        Jump-length family for willingness: ``"pareto"`` (paper default) or
        one of the :data:`~repro.willingness.MOVEMENT_FAMILIES` alternatives
        (``"exponential"``, ``"lognormal"``, ``"rayleigh"``).
    propagation_mode:
        ``"rpo"`` runs Algorithm 1 with its bounds; ``"fixed"`` samples
        exactly ``num_rrr_sets`` RRR sets (cheaper; used by tests and
        quick-look runs).
    propagation_model:
        Diffusion model for ``"fixed"`` sampling: ``"ic"`` (paper default)
        or ``"lt"`` (Linear Threshold extension).  RPO mode is IC-only —
        its bounds are stated for the IC estimator.
    edge_model:
        Arc-probability model of the social graph: ``"indegree"`` (paper
        default, ``1/indeg(v)``), ``"trivalency"``, or ``"uniform:<p>"``
        (e.g. ``"uniform:0.1"``).
    num_rrr_sets:
        Sample count in ``"fixed"`` mode.
    epsilon / o / max_rrr_sets:
        RPO parameters in ``"rpo"`` mode.
    seed:
        Master seed; every stochastic component derives from it.
    """

    num_topics: int = 50
    affinity_engine: str = "lda"
    restart: float = 0.15
    movement_family: str = "pareto"
    propagation_mode: str = "rpo"
    propagation_model: str = "ic"
    edge_model: str = "indegree"
    num_rrr_sets: int = 10_000
    epsilon: float = 0.1
    o: float = 1.0
    max_rrr_sets: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.affinity_engine not in ("lda", "tfidf"):
            raise ConfigurationError(f"unknown affinity_engine {self.affinity_engine!r}")
        if self.propagation_mode not in ("rpo", "fixed"):
            raise ConfigurationError(f"unknown propagation_mode {self.propagation_mode!r}")
        if self.propagation_model not in ("ic", "lt"):
            raise ConfigurationError(f"unknown propagation_model {self.propagation_model!r}")
        if self.propagation_model == "lt" and self.propagation_mode == "rpo":
            raise ConfigurationError(
                "LT propagation requires propagation_mode='fixed' "
                "(the RPO bounds are stated for the IC estimator)"
            )
        self.parsed_edge_model()  # validate eagerly
        from repro.willingness import MOVEMENT_FAMILIES

        if self.movement_family not in MOVEMENT_FAMILIES:
            raise ConfigurationError(
                f"unknown movement_family {self.movement_family!r}; "
                f"choose from {sorted(MOVEMENT_FAMILIES)}"
            )
        if self.num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        if self.num_rrr_sets < 1:
            raise ConfigurationError("num_rrr_sets must be >= 1")

    def parsed_edge_model(self) -> str | tuple[str, float]:
        """The ``edge_model`` string as :class:`~repro.propagation.SocialGraph`
        expects it; raises :class:`ConfigurationError` on malformed values."""
        if self.edge_model in ("indegree", "trivalency"):
            return self.edge_model
        if self.edge_model.startswith("uniform:"):
            try:
                p = float(self.edge_model.split(":", 1)[1])
            except ValueError:
                raise ConfigurationError(
                    f"malformed uniform edge model {self.edge_model!r}"
                ) from None
            if not 0.0 < p <= 1.0:
                raise ConfigurationError(
                    f"uniform edge probability must be in (0, 1], got {p}"
                )
            return ("uniform", p)
        raise ConfigurationError(
            f"unknown edge_model {self.edge_model!r}; choose 'indegree', "
            "'trivalency', or 'uniform:<p>'"
        )

    def fast(self) -> "PipelineConfig":
        """A cheap variant for tests/examples: fixed sampling, fewer topics."""
        return replace(
            self,
            propagation_mode="fixed",
            num_rrr_sets=min(self.num_rrr_sets, 2000),
            num_topics=min(self.num_topics, 10),
        )
