"""Relation schemas: attribute roles, preference directions, validation.

A :class:`RelationSchema` describes the columns of a base relation in the
KSJQ setting (paper Sec. 3, Eq. 1-3). Every attribute plays one of three
roles:

* **join** attributes (``h`` in the paper) define the equality-join
  groups; they carry no preference.
* **skyline** attributes (``s``) carry a preference direction and take
  part in dominance comparisons. A skyline attribute may additionally be
  marked for **aggregation** (paper Sec. 5.6), in which case it is
  combined with the same-named attribute of the partner relation when
  the join is materialized.
* **payload** attributes are carried along untouched (ids, labels).

Preferences default to "lower is better" as in the paper; "higher is
better" attributes are supported by orientation (the engine internally
negates them so that all comparisons are uniform minimization).
"""

from __future__ import annotations

from collections.abc import Sequence

import enum
from dataclasses import dataclass, field

from ..errors import SchemaError

__all__ = ["Preference", "Role", "AttributeSpec", "RelationSchema"]


class Preference(enum.Enum):
    """Direction of preference for a skyline attribute."""

    LOWER = "lower"
    HIGHER = "higher"

    @property
    def sign(self) -> float:
        """Multiplier mapping raw values into minimize-space."""
        return 1.0 if self is Preference.LOWER else -1.0


class Role(enum.Enum):
    """Role an attribute plays in a relation."""

    JOIN = "join"
    SKYLINE = "skyline"
    PAYLOAD = "payload"


@dataclass(frozen=True)
class AttributeSpec:
    """A single attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name; unique within a schema.
    role:
        One of :class:`Role`. Only ``SKYLINE`` attributes participate in
        dominance tests.
    preference:
        Direction of preference; only meaningful for skyline attributes.
    aggregate:
        If ``True`` this skyline attribute is an *aggregate input*: on a
        join it is combined with the partner relation's attribute of the
        same name instead of being kept as a local attribute.
    """

    name: str
    role: Role = Role.SKYLINE
    preference: Preference = Preference.LOWER
    aggregate: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if self.aggregate and self.role is not Role.SKYLINE:
            raise SchemaError(
                f"attribute {self.name!r}: only skyline attributes can be aggregate inputs"
            )

    @staticmethod
    def join(name: str) -> "AttributeSpec":
        """Convenience constructor for a join attribute."""
        return AttributeSpec(name=name, role=Role.JOIN)

    @staticmethod
    def skyline(
        name: str,
        preference: Preference = Preference.LOWER,
        aggregate: bool = False,
    ) -> "AttributeSpec":
        """Convenience constructor for a skyline attribute."""
        return AttributeSpec(
            name=name, role=Role.SKYLINE, preference=preference, aggregate=aggregate
        )

    @staticmethod
    def payload(name: str) -> "AttributeSpec":
        """Convenience constructor for a payload attribute."""
        return AttributeSpec(name=name, role=Role.PAYLOAD)


@dataclass(frozen=True)
class RelationSchema:
    """Ordered collection of :class:`AttributeSpec` with validation.

    The schema exposes the derived quantities used throughout the paper:
    ``d`` (number of skyline attributes), ``a`` (number of aggregate
    inputs) and ``l = d - a`` (number of local skyline attributes).
    """

    attributes: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        attrs = tuple(self.attributes)
        object.__setattr__(self, "attributes", attrs)
        for attr in attrs:
            if not isinstance(attr, AttributeSpec):
                raise SchemaError(f"expected AttributeSpec, got {type(attr).__name__}")
        names = [attr.name for attr in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        join: Sequence[str] = (),
        skyline: Sequence[str] = (),
        aggregate: Sequence[str] = (),
        payload: Sequence[str] = (),
        higher_is_better: Sequence[str] = (),
    ) -> "RelationSchema":
        """Build a schema from plain attribute-name lists.

        ``aggregate`` names must be a subset of ``skyline`` names;
        ``higher_is_better`` flips the preference of the named skyline
        attributes.
        """
        skyline_set = set(skyline)
        missing_agg = set(aggregate) - skyline_set
        if missing_agg:
            raise SchemaError(f"aggregate attributes not in skyline list: {sorted(missing_agg)}")
        missing_pref = set(higher_is_better) - skyline_set
        if missing_pref:
            raise SchemaError(
                f"higher_is_better attributes not in skyline list: {sorted(missing_pref)}"
            )
        attrs = [AttributeSpec.join(name) for name in join]
        for name in skyline:
            pref = Preference.HIGHER if name in set(higher_is_better) else Preference.LOWER
            attrs.append(AttributeSpec.skyline(name, pref, aggregate=name in set(aggregate)))
        attrs.extend(AttributeSpec.payload(name) for name in payload)
        return RelationSchema(tuple(attrs))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple:
        """All attribute names, in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    @property
    def join_names(self) -> tuple:
        """Names of the join attributes (``h`` in the paper)."""
        return tuple(a.name for a in self.attributes if a.role is Role.JOIN)

    @property
    def skyline_names(self) -> tuple:
        """Names of all skyline attributes (local + aggregate inputs)."""
        return tuple(a.name for a in self.attributes if a.role is Role.SKYLINE)

    @property
    def local_names(self) -> tuple:
        """Names of skyline attributes that are *not* aggregate inputs."""
        return tuple(
            a.name for a in self.attributes if a.role is Role.SKYLINE and not a.aggregate
        )

    @property
    def aggregate_names(self) -> tuple:
        """Names of skyline attributes marked for aggregation."""
        return tuple(a.name for a in self.attributes if a.role is Role.SKYLINE and a.aggregate)

    @property
    def payload_names(self) -> tuple:
        """Names of payload attributes."""
        return tuple(a.name for a in self.attributes if a.role is Role.PAYLOAD)

    @property
    def d(self) -> int:
        """Number of skyline attributes (``d_i`` in the paper)."""
        return len(self.skyline_names)

    @property
    def a(self) -> int:
        """Number of aggregate-input attributes (``a`` in the paper)."""
        return len(self.aggregate_names)

    @property
    def l(self) -> int:
        """Number of local skyline attributes (``l_i = d_i - a``)."""
        return self.d - self.a

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __getitem__(self, name: str) -> AttributeSpec:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r} (have {list(self.names)})")

    def preference_signs(self) -> "list[float]":
        """Per-skyline-attribute multipliers into minimize-space.

        Order matches :attr:`skyline_names`.
        """
        return [self[name].preference.sign for name in self.skyline_names]

    def validate_compatible_aggregates(self, other: "RelationSchema") -> None:
        """Check that aggregate inputs pair up across two schemas.

        The paper pairs the ``a`` aggregate attributes of ``R1`` with the
        corresponding attributes of ``R2`` (Sec. 2.3); we pair by name
        and require matching preference directions so the monotonicity
        assumption is meaningful.
        """
        mine, theirs = set(self.aggregate_names), set(other.aggregate_names)
        if mine != theirs:
            raise SchemaError(
                "aggregate attributes must match by name across relations: "
                f"{sorted(mine)} vs {sorted(theirs)}"
            )
        for name in sorted(mine):
            if self[name].preference is not other[name].preference:
                raise SchemaError(
                    f"aggregate attribute {name!r} has conflicting preference directions"
                )

    def describe(self) -> str:
        """Human-readable one-line-per-attribute summary."""
        lines = []
        for attr in self.attributes:
            extra = ""
            if attr.role is Role.SKYLINE:
                extra = f" pref={attr.preference.value}"
                if attr.aggregate:
                    extra += " (aggregate)"
            lines.append(f"{attr.name}: {attr.role.value}{extra}")
        return "\n".join(lines)
