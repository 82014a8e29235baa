"""Skyline engine: dominance primitives and skyline algorithms.

:mod:`repro.skyline.dominance` defines classic and k-dominance over
oriented matrices; :mod:`repro.skyline.classic` implements BNL and SFS
full skylines; :mod:`repro.skyline.kdominant` implements the naïve and
Two-Scan k-dominant skyline algorithms of Chan et al. that the KSJQ
algorithms use as their inner engine.
"""

from .classic import skyline, skyline_bnl, skyline_sfs
from .dominance import (
    boe_counts,
    dominates,
    dominator_rows,
    is_k_dominated,
    k_dominated_any,
    k_dominates,
    k_dominator_mask,
    strict_any,
)
from .kdominant import (
    k_dominant_candidates_block,
    k_dominant_skyline,
    k_dominant_skyline_naive,
    k_dominant_skyline_tsa,
)

__all__ = [
    "boe_counts",
    "dominates",
    "dominator_rows",
    "is_k_dominated",
    "k_dominant_candidates_block",
    "k_dominant_skyline",
    "k_dominant_skyline_naive",
    "k_dominant_skyline_tsa",
    "k_dominated_any",
    "k_dominates",
    "k_dominator_mask",
    "skyline",
    "skyline_bnl",
    "skyline_sfs",
    "strict_any",
]
