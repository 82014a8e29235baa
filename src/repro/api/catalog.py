"""The catalog: a registry of named, versioned datasets.

A :class:`Catalog` maps names to :class:`~repro.relational.dataset.Dataset`
handles so queries can reference their inputs by name
(``engine.query("hotels", "flights")``) instead of hand-binding
anonymous :class:`~repro.relational.relation.Relation` objects on every
call. Names are the serving-layer contract: plan, stats and result
caches key on ``(name, version)`` tokens, and every dataset mutation is
forwarded to catalog subscribers as ``(dataset, delta)``: engines
invalidate exactly the cache entries built over the old version, and
maintained results apply the delta to their cached answer.

Re-registering a name with content-identical data is a no-op (same
fingerprint → version kept → caches stay warm), so idempotent setup
code and figure reruns do not thrash caches; re-registering with *new*
content replaces the snapshot through the existing :class:`Dataset`
handle, bumping its version like any other mutation.

The catalog is also where per-dataset **dominance indexes**
(:class:`repro.core.index.DominanceIndex`) persist across queries: one
entry per dataset uid, built lazily at first indexed query, keyed by
the exact relation snapshot (and its uid-carrying version token) it was
built over. The mutation feed maintains them before any subscriber
runs — an append whose delta chains directly onto the indexed version
re-digitizes just the new tail via ``with_inserted_rows``; any other
mutation (deletes, replaces, or a missed intermediate version)
invalidates the entry and the next indexed query rebuilds. Lookups hit only on snapshot
*identity*, so a stale entry can never serve a newer (or older)
snapshot than the plan being executed.

All operations are thread-safe.
"""

from __future__ import annotations

import inspect
import threading
import weakref
from typing import TYPE_CHECKING

from ..core.index import DominanceIndex
from ..errors import CatalogError
from ..metrics import Metrics
from ..relational.dataset import Dataset, MutationDelta
from ..relational.relation import Relation

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

__all__ = ["Catalog"]


class _IndexEntry:
    """One cached index: the exact snapshot it covers, pinned by identity."""

    __slots__ = ("relation", "version", "index")

    def __init__(self, relation: Relation, version: int, index: DominanceIndex) -> None:
        self.relation = relation
        self.version = version
        self.index = index


class Catalog:
    """Thread-safe name -> :class:`Dataset` registry with mutation fan-out.

    Lock order: ``Catalog._lock`` may be held while taking
    ``Dataset._lock`` (e.g. :meth:`versions`, :meth:`drop`), never the
    reverse — datasets notify listeners only after releasing their own
    lock, and subscribers are called with neither lock held.

    :attr:`metrics` counts the index life cycle (``index_builds`` /
    ``index_hits`` / ``index_invalidations`` / ``index_maintained``)
    and failed index maintenance (``index_quarantines``), for every
    engine this catalog serves.

    # guarded-by: _lock: _datasets, _subscribers, _indexes
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._datasets: dict[str, Dataset] = {}
        # Dominance indexes by dataset *uid* (not name): a drop +
        # re-register mints a new uid, so a successor dataset can never
        # inherit its predecessor's index.
        self._indexes: dict[int, _IndexEntry] = {}
        self.metrics = Metrics()
        # Bound-method subscribers (engine invalidation hooks, maintained
        # results) are held weakly: a shared catalog must not keep every
        # engine or handle that ever subscribed alive forever.
        self._subscribers: list[
            Callable[[], Callable[[Dataset, MutationDelta], None] | None]
        ] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, data: Relation | Dataset) -> Dataset:
        """Register (or refresh) a named dataset; returns its handle.

        ``data`` may be a :class:`Relation` or an existing
        :class:`Dataset` (whose name must match ``name``). Registering
        an already-registered name with content-identical data returns
        the existing handle unchanged; different content replaces the
        snapshot via :meth:`Dataset.replace`, bumping the version and
        triggering invalidation in subscribed engines.
        """
        if isinstance(data, Dataset):
            if data.name != name:
                raise CatalogError(
                    f"cannot register dataset named {data.name!r} under {name!r}; "
                    "names are the cache-key identity and must match"
                )
            relation = data.relation
        elif isinstance(data, Relation):
            relation = data
        else:
            raise CatalogError(
                f"register({name!r}) needs a Relation or Dataset, "
                f"got {type(data).__name__}"
            )

        with self._lock:
            existing = self._datasets.get(name)
            if existing is None:
                dataset = data if isinstance(data, Dataset) else Dataset(name, relation)
                dataset.subscribe(self._fan_out)
                self._datasets[name] = dataset
                return dataset
            if existing.relation.fingerprint() == relation.fingerprint():
                return existing  # identical content: keep version, keep caches
        # Replace outside the catalog lock: it notifies subscribers, and
        # none of them may run under it (see the class docstring).
        existing.replace(relation)
        return existing

    def drop(self, name: str) -> None:
        """Remove a dataset from the catalog (existing snapshots stay valid).

        The catalog also leaves the dataset's mutation feed: a caller
        still holding the dropped handle can mutate it, but those
        mutations no longer reach this catalog's index, its engines'
        caches or its maintained results.
        """
        with self._lock:
            dataset = self._datasets.get(name)
            if dataset is None:
                raise CatalogError(f"no dataset named {name!r} to drop")
            del self._datasets[name]
            self._indexes.pop(dataset.uid, None)
            dataset.unsubscribe(self._fan_out)  # catalog -> dataset lock order

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Dataset:
        """The dataset registered under ``name`` (raises :class:`CatalogError`)."""
        with self._lock:
            dataset = self._datasets.get(name)
        if dataset is None:
            known = ", ".join(repr(n) for n in sorted(self.names())) or "none"
            raise CatalogError(
                f"no dataset named {name!r} in the catalog (registered: {known}); "
                "call engine.register(name, relation) first"
            )
        return dataset

    def peek(self, name: str) -> Dataset | None:
        """Like :meth:`get` but returns ``None`` for unknown names."""
        with self._lock:
            return self._datasets.get(name)

    def __getitem__(self, name: str) -> Dataset:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._datasets

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def names(self) -> list[str]:
        """Registered dataset names, sorted."""
        with self._lock:
            return sorted(self._datasets)

    def versions(self) -> dict[str, int]:
        """Current ``name -> version`` map across the catalog."""
        with self._lock:
            return {name: ds.version for name, ds in self._datasets.items()}

    # ------------------------------------------------------------------
    # Dominance indexes (repro.core.index)
    # ------------------------------------------------------------------
    def dominance_index(self, dataset: Dataset, relation: Relation) -> DominanceIndex:
        """The persisted index over ``relation``, building (and caching)
        it on a miss.

        ``relation`` is the snapshot the caller's plan was built over.
        The cache hits only when the stored entry covers *that exact
        object* — version numbers alone would be ambiguous across a
        drop + re-register, and any mismatch means the plan predates or
        postdates the cached index. If ``relation`` is no longer the
        dataset's current snapshot (the query raced a mutation), a
        one-off index is built and **not** cached, so the cache never
        holds an index the next query cannot use.
        """
        with self._lock:
            entry = self._indexes.get(dataset.uid)
            if entry is not None and entry.relation is relation:
                self.metrics.add("index_hits")
                return entry.index
        current, version = dataset.snapshot()
        if current is not relation:
            index = DominanceIndex.build(relation)
        else:
            index = DominanceIndex.build(
                relation, token=("ds", dataset.name, dataset.uid, version)
            )
            with self._lock:
                self._indexes[dataset.uid] = _IndexEntry(relation, version, index)
        self.metrics.add("index_builds")
        return index

    def peek_dominance_index(
        self, dataset: Dataset, relation: Relation
    ) -> DominanceIndex | None:
        """The cached index over exactly ``relation``, or ``None`` —
        never builds, never counts a hit (used by ``explain`` and the
        cost model to probe warm/cold state without side effects)."""
        with self._lock:
            entry = self._indexes.get(dataset.uid)
        if entry is not None and entry.relation is relation:
            return entry.index
        return None

    def quarantine_index(self, dataset: Dataset) -> None:
        """Drop the persisted index entry for ``dataset`` after a
        failure (resilience quarantine: the engine's indexed dispatch
        calls this when an index load, build, or indexed run raised —
        the next indexed query rebuilds from a fresh snapshot instead
        of hitting the same poisoned entry forever). Counted as an
        invalidation in the life-cycle counters."""
        with self._lock:
            dropped = self._indexes.pop(dataset.uid, None)
        if dropped is not None:
            self.metrics.add("index_invalidations")

    def _maintain_index(self, dataset: Dataset, delta: MutationDelta) -> None:
        """Delta-feed maintenance: appends re-digitize the tail, all
        other mutations invalidate (the next indexed query rebuilds).

        The entry is popped first so a concurrent indexed query can at
        worst build a fresh one-off index over whichever snapshot it
        holds — it can never observe the pre-mutation entry as current.
        An insert delta is applied only when it chains directly onto the
        indexed version *and* the dataset still sits at the delta's
        version (no missed intermediate mutations, no races).
        """
        with self._lock:
            entry = self._indexes.pop(dataset.uid, None)
        if entry is None:
            return
        if delta.kind == "insert" and entry.version == delta.version - 1:
            current, version = dataset.snapshot()
            if version == delta.version and len(current) == delta.new_size:
                try:
                    index = entry.index.with_inserted_rows(
                        current, token=("ds", dataset.name, dataset.uid, version)
                    )
                except Exception:  # noqa: BLE001 - degradation boundary
                    # Failed maintenance quarantines the (already
                    # popped) entry: count it and let the next indexed
                    # query rebuild from scratch. Never re-install a
                    # possibly half-maintained index.
                    self._count_quarantine()
                    return
                with self._lock:
                    self._indexes[dataset.uid] = _IndexEntry(current, version, index)
                self.metrics.add("index_maintained")
                return
        self.metrics.add("index_invalidations")

    def _count_quarantine(self) -> None:
        """Count an index dropped after failed maintenance: a
        quarantine, and an invalidation in the life-cycle counters."""
        self.metrics.add("index_quarantines")
        self.metrics.add("index_invalidations")

    # ------------------------------------------------------------------
    # Mutation fan-out
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Dataset, MutationDelta], None]) -> None:
        """Register a hook called with ``(dataset, delta)`` after any
        dataset mutation.

        Hooks run in subscription order, after the catalog has
        maintained (or invalidated) the mutated dataset's dominance
        index. Bound methods (the normal case: an engine's invalidation
        hook, a maintained result's delta intake) are referenced
        weakly, so subscribing never extends the subscriber's lifetime;
        plain functions are held strongly.
        """
        ref: Callable[[], Callable[[Dataset, MutationDelta], None] | None]
        if inspect.ismethod(callback):
            ref = weakref.WeakMethod(callback)
        else:
            ref = lambda: callback  # noqa: E731 - uniform deref shape
        with self._lock:
            if any(existing() == callback for existing in self._subscribers):
                return
            self._subscribers.append(ref)

    def _fan_out(self, dataset: Dataset, delta: MutationDelta) -> None:
        # Index first: a subscriber that queries the new snapshot finds
        # the maintained index (or none), never the pre-mutation entry.
        self._maintain_index(dataset, delta)
        with self._lock:
            callbacks = [ref() for ref in self._subscribers]
            if any(cb is None for cb in callbacks):  # prune dead subscribers
                self._subscribers = [
                    ref for ref, cb in zip(self._subscribers, callbacks) if cb is not None
                ]
        for callback in callbacks:
            if callback is not None:
                callback(dataset, delta)

    def __repr__(self) -> str:
        versions = self.versions()
        inner = ", ".join(f"{n}@v{v}" for n, v in sorted(versions.items()))
        return f"<Catalog {len(versions)} datasets: {inner}>"
