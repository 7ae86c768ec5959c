"""Algorithm comparison sweeps: Figures 9-16 (paper Section V-B2).

Five algorithms — MTA, IA, EIA, DIA, MI — swept over |S|, |W|, ϕ and r on
both datasets, measuring CPU time, number of assigned tasks, Average
Influence, Average Propagation, and travel cost.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.assignment import (
    Assigner,
    DIAAssigner,
    EIAAssigner,
    IAAssigner,
    MIAssigner,
    MTAAssigner,
)
from repro.experiments.runner import ExperimentRunner, SweepResult
from repro.framework.dita import FittedModels
from repro.influence import InfluenceComponents

#: The paper's comparison line-up, in its plot-legend order.
COMPARISON_ALGORITHMS: tuple[str, ...] = ("MTA", "IA", "EIA", "DIA", "MI")


def comparison_algorithms(
    fitted: FittedModels,
) -> Mapping[str, tuple[Assigner, InfluenceComponents | None]]:
    """The factory handed to :meth:`ExperimentRunner.run_sweep`.

    All five algorithms use the full influence model (``None``); they
    differ only in their assignment strategy.
    """
    return {
        "MTA": (MTAAssigner(), None),
        "IA": (IAAssigner(), None),
        "EIA": (EIAAssigner(), None),
        "DIA": (DIAAssigner(), None),
        "MI": (MIAssigner(), None),
    }


def run_comparison_sweep(
    runner: ExperimentRunner, parameter: str, values: Sequence[float]
) -> SweepResult:
    """Run one of the Figure 9-16 sweeps with all five algorithms."""
    return runner.run_sweep(parameter, values, comparison_algorithms)
