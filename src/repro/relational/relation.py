"""In-memory relation: the storage substrate for all KSJQ algorithms.

A :class:`Relation` stores the skyline attributes in a dense ``float64``
numpy matrix (one row per tuple) for vectorized dominance tests, join
attributes as python object columns (hashable keys), and payload columns
untouched. Rows are identified by their index; algorithms exchange row
indices, not tuple copies.

The *oriented matrix* (:meth:`Relation.oriented`) maps every skyline
attribute into minimize-space (higher-is-better columns are negated) so
all dominance code can assume "lower is preferred" (paper Sec. 2.1,
"without loss of generality").
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SchemaError
from .schema import RelationSchema, Role

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Mapping, Sequence

    from .._typing import ColumnData, FloatMatrix, JoinKey, Record

__all__ = ["Relation"]


class Relation:
    """An immutable in-memory relation conforming to a :class:`RelationSchema`.

    Parameters
    ----------
    schema:
        Column definitions (roles, preferences, aggregate marks).
    columns:
        Mapping from attribute name to a sequence of values, one entry
        per attribute in the schema. All columns must share one length.
    name:
        Optional display name used in reprs and error messages.
    """

    def __init__(
        self,
        schema: RelationSchema,
        columns: Mapping[str, ColumnData],
        name: str = "R",
    ) -> None:
        self.schema = schema
        self.name = name
        missing = set(schema.names) - set(columns)
        if missing:
            raise SchemaError(f"{name}: missing columns {sorted(missing)}")
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"{name}: columns not in schema {sorted(extra)}")

        lengths = {len(columns[col]) for col in schema.names}
        if len(lengths) > 1:
            raise SchemaError(f"{name}: ragged columns, lengths {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0

        # Skyline attributes as a dense float matrix (n x d).
        sky_names = schema.skyline_names
        if sky_names:
            try:
                matrix = np.column_stack(
                    [np.asarray(columns[c], dtype=np.float64) for c in sky_names]
                )
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{name}: skyline attributes must be numeric: {exc}") from exc
            if not np.isfinite(matrix).all():
                raise SchemaError(f"{name}: skyline attributes must be finite (no NaN/inf)")
        else:
            matrix = np.empty((self._n, 0), dtype=np.float64)
        self._matrix = matrix
        self._matrix.setflags(write=False)

        # Join/payload columns stay as plain tuples of python objects.
        self._join_cols: dict[str, tuple[object, ...]] = {
            c: tuple(columns[c]) for c in schema.join_names
        }
        self._payload_cols: dict[str, tuple[object, ...]] = {
            c: tuple(columns[c]) for c in schema.payload_names
        }

        signs = np.asarray(schema.preference_signs(), dtype=np.float64)
        self._oriented = matrix * signs if sky_names else matrix
        self._oriented.setflags(write=False)
        local = set(schema.local_names)
        self._local_columns = [i for i, n in enumerate(sky_names) if n in local]
        self._oriented_local = self._oriented[:, self._local_columns]
        self._oriented_local.setflags(write=False)
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        schema: RelationSchema,
        records: Iterable[Mapping[str, object]],
        name: str = "R",
    ) -> Relation:
        """Build a relation from an iterable of per-tuple dicts."""
        records = list(records)
        columns: dict[str, list[object]] = {col: [] for col in schema.names}
        for i, rec in enumerate(records):
            for col in schema.names:
                if col not in rec:
                    raise SchemaError(f"{name}: record {i} missing attribute {col!r}")
                columns[col].append(rec[col])
        return cls(schema, columns, name=name)

    @classmethod
    def from_arrays(
        cls,
        skyline: FloatMatrix,
        skyline_names: Sequence[str],
        join_key: Sequence[object] | None = None,
        join_name: str = "grp",
        aggregate: Sequence[str] = (),
        higher_is_better: Sequence[str] = (),
        name: str = "R",
    ) -> Relation:
        """Build a relation from a numpy skyline matrix plus a join column.

        This is the fast path used by the synthetic data generators.
        """
        skyline = np.asarray(skyline, dtype=np.float64)
        if skyline.ndim != 2:
            raise SchemaError(f"{name}: skyline matrix must be 2-D, got {skyline.ndim}-D")
        if skyline.shape[1] != len(skyline_names):
            raise SchemaError(
                f"{name}: {skyline.shape[1]} columns vs {len(skyline_names)} names"
            )
        join_cols = [join_name] if join_key is not None else []
        schema = RelationSchema.build(
            join=join_cols,
            skyline=list(skyline_names),
            aggregate=list(aggregate),
            higher_is_better=list(higher_is_better),
        )
        columns: dict[str, ColumnData] = {
            col: skyline[:, i] for i, col in enumerate(skyline_names)
        }
        if join_key is not None:
            if len(join_key) != skyline.shape[0]:
                raise SchemaError(f"{name}: join column length mismatch")
            columns[join_name] = list(join_key)
        return cls(schema, columns, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        """Number of skyline attributes."""
        return self.schema.d

    @property
    def matrix(self) -> FloatMatrix:
        """Raw skyline attribute matrix (n x d), read-only."""
        return self._matrix

    def oriented(self) -> FloatMatrix:
        """Skyline matrix in minimize-space (read-only view).

        Column order matches ``schema.skyline_names``. Lower is always
        preferred in this matrix.
        """
        return self._oriented

    def oriented_local(self) -> FloatMatrix:
        """Minimize-space matrix restricted to local (non-aggregate)
        columns (read-only)."""
        return self._oriented_local

    def oriented_aggregate(self) -> FloatMatrix:
        """Minimize-space matrix restricted to aggregate-input columns."""
        idx = self.aggregate_column_indices()
        return self._oriented[:, idx]

    def local_column_indices(self) -> list[int]:
        """Positions of local attributes within the skyline matrix (do not
        mutate)."""
        return self._local_columns

    def aggregate_column_indices(self) -> list[int]:
        """Positions of aggregate inputs within the skyline matrix."""
        names = self.schema.skyline_names
        agg = set(self.schema.aggregate_names)
        return [i for i, n in enumerate(names) if n in agg]

    def column(self, name: str) -> ColumnData:
        """Return one column by name (any role)."""
        spec = self.schema[name]
        if spec.role is Role.SKYLINE:
            return self._matrix[:, list(self.schema.skyline_names).index(name)]
        if spec.role is Role.JOIN:
            return self._join_cols[name]
        return self._payload_cols[name]

    def fingerprint(self) -> str:
        """Stable content hash identifying this relation's data and schema.

        Relations are immutable, so the digest is computed once and
        memoized. Two relations with equal schemas and equal column
        contents share a fingerprint even when they are distinct
        objects, which is what plan caches key on.
        """
        if self._fingerprint is None:
            h = hashlib.sha1()
            for name in self.schema.names:
                spec = self.schema[name]
                h.update(
                    f"{name}|{spec.role.name}|{spec.preference.name}|"
                    f"{spec.aggregate}\n".encode()
                )
            h.update(np.ascontiguousarray(self._matrix).tobytes())
            for col_map in (self._join_cols, self._payload_cols):
                for name in sorted(col_map):
                    h.update(name.encode())
                    h.update(repr(col_map[name]).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def join_key(self, row: int) -> JoinKey:
        """Composite equality-join key of one row."""
        return tuple(self._join_cols[c][row] for c in self.schema.join_names)

    def join_keys(self) -> list[JoinKey]:
        """Composite join keys for all rows, in row order."""
        cols = [self._join_cols[c] for c in self.schema.join_names]
        return [tuple(col[i] for col in cols) for i in range(self._n)]

    def record(self, row: int) -> Record:
        """One tuple as a plain dict (raw, un-oriented values)."""
        rec: Record = {}
        for name in self.schema.names:
            spec = self.schema[name]
            if spec.role is Role.SKYLINE:
                rec[name] = float(self._matrix[row, list(self.schema.skyline_names).index(name)])
            elif spec.role is Role.JOIN:
                rec[name] = self._join_cols[name][row]
            else:
                rec[name] = self._payload_cols[name][row]
        return rec

    def records(self) -> list[Record]:
        """All tuples as dicts, in row order."""
        return [self.record(i) for i in range(self._n)]

    # ------------------------------------------------------------------
    # Relational operations (return new Relations)
    # ------------------------------------------------------------------
    def take(self, rows: Sequence[int], name: str | None = None) -> Relation:
        """Row subset (like SELECT with an explicit row list)."""
        rows = list(rows)
        columns: dict[str, ColumnData] = {}
        for col_name in self.schema.names:
            col = self.column(col_name)
            if isinstance(col, np.ndarray):
                columns[col_name] = col[rows]
            else:
                columns[col_name] = [col[i] for i in rows]
        return Relation(self.schema, columns, name=name or self.name)

    def select(
        self, predicate: Callable[[Record], bool], name: str | None = None
    ) -> Relation:
        """Row filter by a ``record -> bool`` predicate."""
        rows = [i for i in range(self._n) if predicate(self.record(i))]
        return self.take(rows, name=name)

    def sort_by(self, key_column: str, descending: bool = False) -> Relation:
        """New relation sorted by one column (stable)."""
        col = self.column(key_column)
        order = sorted(range(self._n), key=lambda i: col[i], reverse=descending)
        return self.take(order)

    def head(self, n: int) -> Relation:
        """First ``n`` rows."""
        return self.take(range(min(n, self._n)))

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<Relation {self.name!r}: {self._n} tuples, "
            f"d={self.d} (a={self.schema.a}), join={list(self.schema.join_names)}>"
        )

    def to_text(self, max_rows: int = 20) -> str:
        """Fixed-width textual rendering, for examples and debugging."""
        headers = list(self.schema.names)
        rows = []
        for i in range(min(self._n, max_rows)):
            rec = self.record(i)
            rows.append([_fmt(rec[h]) for h in headers])
        widths = [
            max(len(h), *(len(r[j]) for r in rows)) if rows else len(h)
            for j, h in enumerate(headers)
        ]
        out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for r in rows:
            out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self._n > max_rows:
            out.append(f"... ({self._n - max_rows} more rows)")
        return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)
