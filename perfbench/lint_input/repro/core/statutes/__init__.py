"""Statutory and constitutional rule modules.

Each module exposes ``evaluate(action, ...) -> Requirement | None`` plus
any statute-internal exception probes the engine records for its trace.
"""

from repro.core.statutes import fourth_amendment, pentrap, sca, wiretap

__all__ = ["fourth_amendment", "pentrap", "sca", "wiretap"]
