"""Relational substrate: schemas, relations and joins.

This package is the storage and join layer beneath the KSJQ algorithms.
See :mod:`repro.relational.schema` for attribute roles and preferences,
:mod:`repro.relational.relation` for the numpy-backed relation type, and
:mod:`repro.relational.join` for the one hop kernel behind
equality/cartesian/theta joins and the joined-vector builder with
optional attribute aggregation.
"""

from .aggregates import (
    MAX,
    MEAN,
    MIN,
    PRODUCT,
    SUM,
    AggregateFunction,
    get_aggregate,
    register_aggregate,
)
from .csvio import read_csv, write_csv
from .dataset import Dataset, MutationDelta
from .groups import ThetaOp
from .join import (
    HopJoin,
    HopSpec,
    JoinedLayout,
    JoinedView,
    ThetaCondition,
    joined_matrix,
)
from .relation import Relation
from .schema import AttributeSpec, Preference, RelationSchema, Role

__all__ = [
    "AggregateFunction",
    "AttributeSpec",
    "Dataset",
    "HopJoin",
    "HopSpec",
    "JoinedLayout",
    "JoinedView",
    "MAX",
    "MEAN",
    "MIN",
    "MutationDelta",
    "PRODUCT",
    "Preference",
    "Relation",
    "RelationSchema",
    "Role",
    "SUM",
    "ThetaCondition",
    "ThetaOp",
    "get_aggregate",
    "joined_matrix",
    "read_csv",
    "register_aggregate",
    "write_csv",
]
