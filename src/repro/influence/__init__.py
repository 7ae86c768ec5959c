"""Worker-task influence (paper Section III-D) and location entropy.

:class:`InfluenceModel` combines the three learned factors into

    if(w_s, s) = P_aff(w_s, s) * sum_{w_i != w_s} P_wil(w_i, s) * P_pro(w_s, w_i)

and supports the paper's ablations (IA-WP / IA-AP / IA-AW) by dropping one
factor at a time.  :func:`location_entropy` implements the EIA priority
signal.
"""

from repro.influence.entropy import VenueEntropy, entropy_of_tasks, location_entropy
from repro.influence.model import InfluenceComponents, InfluenceModel

__all__ = [
    "InfluenceModel",
    "InfluenceComponents",
    "location_entropy",
    "entropy_of_tasks",
    "VenueEntropy",
]
