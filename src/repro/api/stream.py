"""Streaming front-end: maintained handles and sliding-window queries.

This module is the serving-layer face of the delta-maintenance
subsystem (:mod:`repro.core.incremental`). It turns engine inputs into
the registered :class:`~repro.relational.dataset.Dataset` handles a
:class:`~repro.core.incremental.MaintainedResult` needs — the delta
feed travels dataset -> catalog -> handle, so only
catalog-registered datasets can be maintained — and implements the
sliding-window iterator behind :meth:`repro.api.Engine.stream_window`,
where each window advance is a batched ``delete_rows`` + ``insert_rows``
delta pair on a window-backing dataset.

Use the engine entry points (:meth:`~repro.api.Engine.maintain`,
:meth:`~repro.api.Engine.stream_window`) or the builder terminal
(:meth:`~repro.api.builder.QueryBuilder.maintain`); the functions here
are their implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.incremental import MaintainedResult
from ..errors import CatalogError, ParameterError
from ..relational.dataset import Dataset
from ..relational.relation import Relation

if TYPE_CHECKING:
    from collections.abc import Iterator

    from ..core.result import QueryResult
    from .builder import QueryInput
    from .engine import Engine
    from .spec import QuerySpec

__all__ = ["create_maintained", "window_stream"]


def _require_dataset(engine: "Engine", obj: "QueryInput") -> Dataset:
    """One maintain() input -> the registered :class:`Dataset` feeding it.

    Maintained results subscribe to the mutation feed of the engine's
    catalog, so every input must be a dataset registered in *this*
    engine's catalog — a plain :class:`Relation` is immutable and has
    no mutation feed to subscribe to.
    """
    if isinstance(obj, str):
        return engine.catalog.get(obj)
    if isinstance(obj, Dataset):
        if engine.catalog.peek(obj.name) is obj:
            return obj
        raise ParameterError(
            f"dataset {obj.name!r} is not registered in this engine's "
            "catalog; engine.register() it first so mutation deltas reach "
            "the maintained result"
        )
    raise ParameterError(
        "maintain() inputs must be registered dataset names or Dataset "
        f"handles, got {type(obj).__name__}; call engine.register(name, "
        "relation) and pass the name"
    )


def create_maintained(
    engine: "Engine",
    inputs: tuple["QueryInput", ...],
    spec: "QuerySpec",
    fallback_ratio: float,
) -> MaintainedResult:
    """Resolve the inputs to registered datasets and build the handle
    (which subscribes to the catalog before its first snapshot)."""
    datasets = tuple(_require_dataset(engine, obj) for obj in inputs)
    return MaintainedResult(engine, datasets, spec, fallback_ratio=fallback_ratio)


def window_stream(
    engine: "Engine",
    inputs: tuple["QueryInput", ...],
    spec: "QuerySpec",
    size: int,
    slide: int,
    name: str | None,
    fallback_ratio: float,
) -> "Iterator[QueryResult]":
    """Sliding-window continuous query over a row stream.

    Exactly one query input must be a plain :class:`Relation` — the
    stream source, whose rows are consumed in order (the same object
    may appear on both sides for a self-join stream). The remaining
    inputs are registered datasets/names, resolved as usual. The first
    ``size`` rows form the initial window, backed by a dataset
    registered under ``name`` (default ``"<stream>_window"``) for the
    duration of the iteration; every advance deletes the ``slide``
    oldest rows and inserts the next ``slide`` — a batched
    delete+insert delta pair the maintained result absorbs — and the
    iterator yields one answer per window position. The window dataset
    is dropped from the catalog when the iterator finishes (or is
    closed), so a finished stream leaves no residue.

    Validation is eager (bad parameters raise here, not at first
    ``next()``); the catalog registration itself is lazy.
    """
    if size < 1:
        raise ParameterError(f"window size must be >= 1, got {size}")
    if not 1 <= slide <= size:
        raise ParameterError(
            f"slide must be in [1, size={size}], got {slide}: a larger "
            "slide would skip rows straight through the window"
        )
    positions = [i for i, obj in enumerate(inputs) if isinstance(obj, Relation)]
    if not positions:
        raise ParameterError(
            "stream_window() needs exactly one plain Relation input — the "
            "stream source; registered names/datasets are the static sides"
        )
    stream = inputs[positions[0]]
    assert isinstance(stream, Relation)
    if any(inputs[i] is not stream for i in positions[1:]):
        raise ParameterError(
            "stream_window() takes a single stream source; two different "
            "Relation inputs are ambiguous — register the static one"
        )
    if len(stream) < size:
        raise ParameterError(
            f"stream has {len(stream)} rows; the first window needs {size}"
        )
    window_name = name if name is not None else f"{stream.name or 'stream'}_window"
    if engine.catalog.peek(window_name) is not None:
        raise CatalogError(
            f"dataset name {window_name!r} is already registered; pass "
            "stream_window(..., name=...) to pick a free window name"
        )
    return _windows(
        engine, inputs, set(positions), stream, spec,
        size, slide, window_name, fallback_ratio,
    )


def _windows(
    engine: "Engine",
    inputs: tuple["QueryInput", ...],
    positions: set[int],
    stream: Relation,
    spec: "QuerySpec",
    size: int,
    slide: int,
    window_name: str,
    fallback_ratio: float,
) -> "Iterator[QueryResult]":
    records = stream.records()
    window = engine.register(
        window_name, stream.take(range(size), name=window_name)
    )
    try:
        resolved = tuple(
            window if i in positions else obj for i, obj in enumerate(inputs)
        )
        handle = create_maintained(engine, resolved, spec, fallback_ratio)
        try:
            yield handle.result()
            start = slide
            while start + size <= len(records):
                window.delete_rows(range(slide))
                window.insert_rows(records[start + size - slide : start + size])
                yield handle.result()
                start += slide
        finally:
            handle.close()
    finally:
        engine.catalog.drop(window_name)
