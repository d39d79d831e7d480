"""Scenario packs: concrete workflows built on the existing substrates.

A pack bundles a workflow spec builder with a subject builder so the
CLI, the verifier, and the batch runner can all construct a run from
``(pack name, seed)`` alone — which is also what makes crash-resume
testable: the resumed process rebuilds the identical subject from the
identical seed and lets the journal supply everything that already
happened.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections.abc import Callable
from pathlib import Path

from repro.faults.injector import FaultInjector
from repro.workflow.context import Subject
from repro.workflow.spec import WorkflowSpec


@dataclasses.dataclass(frozen=True)
class Pack:
    """One registered scenario pack.

    Attributes:
        name: CLI-facing pack name.
        title: Human-readable description.
        build_spec: Builds the (pure-data) workflow spec.
        build_subject: Builds the evidence subject for a seed, wiring an
            optional fault injector into the substrate.
        source_modules: Module paths ``repro workflow lint`` checks.
    """

    name: str
    title: str
    build_spec: Callable[[], WorkflowSpec]
    build_subject: Callable[[int, FaultInjector | None], Subject]
    source_modules: tuple[str, ...]

    def source_paths(self) -> list[Path]:
        """Filesystem paths of the pack's step-body modules."""
        paths = []
        for module_name in self.source_modules:
            module = importlib.import_module(module_name)
            if module.__file__:
                paths.append(Path(module.__file__))
        return paths


def _registry() -> dict[str, Pack]:
    from repro.workflow.packs import mailstore_triage, photo_recovery

    packs = (photo_recovery.PACK, mailstore_triage.PACK)
    return {pack.name: pack for pack in packs}


def pack_names() -> tuple[str, ...]:
    """Registered pack names, sorted."""
    return tuple(sorted(_registry()))


def get_pack(name: str) -> Pack:
    """Look a pack up by name.

    Raises:
        KeyError: On an unknown pack name.
    """
    registry = _registry()
    if name not in registry:
        raise KeyError(
            f"unknown pack {name!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[name]
