"""Incremental mind-map association discovery over transactional streams.

The package root imports no submodule, so that `mindstream query` does not
load the engine. Each public name is imported from its module on first use.
"""

__version__ = "0.1.0"

_HOMES = {
    "dynamics": "StepEvents activate_cell hebbian_update ingest_transaction initial_weight",
    "engine": "Engine",
    "model": "EngineParams MindMap Transaction distinct_items",
    "skeleton": "Skeleton extract_skeleton",
    "snapshot": "EngineState load_snapshot parse_snapshot render_snapshot save_snapshot",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOME[name]}", __name__), name)
