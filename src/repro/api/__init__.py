"""repro.api — the database-style engine boundary over the KSJQ core.

This package turns the paper's four query problems into a prepare-once
/ execute-many system:

* :class:`QuerySpec` — a frozen, hashable value object describing one
  query (join kind, aggregate, theta, k or delta, algorithm, mode,
  objective);
* :class:`Engine` — holds an LRU cache of join plans keyed by relation
  content fingerprints, resolves ``algorithm="auto"`` with a cost model
  over plan cardinality statistics (including the serial-vs-parallel
  decision of :mod:`repro.core.parallel` when ``parallelism`` allows
  workers), and attaches spec/plan provenance to every result;
* :class:`QueryBuilder` — the fluent front end:
  ``engine.query(r1, r2).aggregate("sum").k(7).run()``;
* :class:`ExplainReport` — what would run and why, without running it;
* :class:`Catalog` — the registry of named, versioned
  :class:`~repro.relational.dataset.Dataset` handles behind
  ``engine.register`` / query-by-name, with mutation fan-out driving
  exact cache invalidation;
* :class:`QueryHandle` — a prepared, version-aware query from
  ``engine.prepare(...)`` that re-executes cheaply against the latest
  dataset versions and reports freshness;
* :class:`MaintainedResult` — a live answer from
  ``engine.maintain(...)`` that consumes dataset mutation *deltas*
  instead of being invalidated (see :mod:`repro.api.stream`), with
  ``engine.stream_window(...)`` layering sliding-window continuous
  queries on top.

The legacy ``repro.ksjq`` / ``repro.find_k`` functions remain supported
as thin wrappers over a module-default engine.
"""

from ..core.cost import choose_algorithm
from ..core.incremental import MaintainedResult
from .builder import QueryBuilder
from .catalog import Catalog
from .engine import Engine, ExplainReport
from .handle import QueryHandle
from .spec import QuerySpec

__all__ = [
    "Catalog",
    "Engine",
    "ExplainReport",
    "MaintainedResult",
    "QueryBuilder",
    "QueryHandle",
    "QuerySpec",
    "choose_algorithm",
]
