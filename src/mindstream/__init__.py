"""Incremental mind-map association discovery over transactional streams."""

from .dynamics import (
    StepEvents,
    activate_cell,
    hebbian_update,
    ingest_transaction,
    initial_weight,
)
from .engine import ContinuousQuery, Engine
from .model import (
    Connection,
    EngineParams,
    ItemCell,
    MindMap,
    Transaction,
    distinct_items,
)
from .skeleton import AssociationRule, Skeleton, derive_rules, extract_skeleton
from .snapshot import EngineState, load_snapshot, parse_snapshot, render_snapshot, save_snapshot

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "Connection",
    "ContinuousQuery",
    "Engine",
    "EngineParams",
    "EngineState",
    "ItemCell",
    "MindMap",
    "Skeleton",
    "StepEvents",
    "Transaction",
    "activate_cell",
    "derive_rules",
    "distinct_items",
    "extract_skeleton",
    "hebbian_update",
    "ingest_transaction",
    "initial_weight",
    "load_snapshot",
    "parse_snapshot",
    "render_snapshot",
    "save_snapshot",
]
