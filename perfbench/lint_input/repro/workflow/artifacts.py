"""Typed, content-addressed artifacts flowing between workflow steps.

Every value a step produces is an :class:`Artifact`: a declared kind
(the edge label of the workflow DAG), immutable content bytes, and the
SHA-256 the journal and the chain of custody both record.  Steps never
hand each other live Python objects — anything a downstream step needs
must round-trip through bytes, which is exactly what makes a journaled
run resumable: the journal stores the bytes, so a resumed run rehydrates
completed steps' outputs without re-executing them.
"""

from __future__ import annotations

import dataclasses

from repro.storage.hashing import sha256_hex


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One typed, immutable output of a workflow step.

    Attributes:
        kind: The artifact type, e.g. ``"image.raw"``.  Exactly one step
            in a workflow may produce each kind.
        content: The artifact payload.
        meta: Sorted ``(key, value)`` string pairs of side information
            (source hashes, counts) — kept as a tuple so artifacts stay
            hashable and serialize deterministically.
        produced_by: Id of the step that produced it.
    """

    kind: str
    content: bytes
    meta: tuple[tuple[str, str], ...] = ()
    produced_by: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("artifact kind must be non-empty")
        if tuple(sorted(self.meta)) != self.meta:
            object.__setattr__(self, "meta", tuple(sorted(self.meta)))

    @property
    def sha256(self) -> str:
        """Hex digest of the content bytes."""
        return sha256_hex(self.content)

    def meta_value(self, key: str, default: str = "") -> str:
        """Look up one metadata value."""
        for meta_key, value in self.meta:
            if meta_key == key:
                return value
        return default

    def describe(self) -> str:
        """A stable one-line summary used in reports."""
        return f"{self.kind} sha256={self.sha256} bytes={len(self.content)}"


class ArtifactStore:
    """The artifacts a run has produced so far, keyed by kind."""

    def __init__(self) -> None:
        self._by_kind: dict[str, Artifact] = {}

    def add(self, artifact: Artifact) -> None:
        """Register a produced artifact.

        Raises:
            ValueError: If an artifact of this kind already exists —
                workflow validation guarantees unique producers, so a
                duplicate means the engine (or a resume) went wrong.
        """
        if artifact.kind in self._by_kind:
            raise ValueError(f"duplicate artifact kind: {artifact.kind!r}")
        self._by_kind[artifact.kind] = artifact

    def has(self, kind: str) -> bool:
        """Whether an artifact of this kind exists."""
        return kind in self._by_kind

    def get(self, kind: str) -> Artifact:
        """The artifact of one kind.

        Raises:
            KeyError: If no artifact of this kind was produced.
        """
        return self._by_kind[kind]

    def kinds(self) -> tuple[str, ...]:
        """Produced kinds, sorted."""
        return tuple(sorted(self._by_kind))

    def artifacts(self) -> tuple[Artifact, ...]:
        """All artifacts, sorted by kind."""
        return tuple(self._by_kind[kind] for kind in self.kinds())

    def hash_set(self) -> tuple[str, ...]:
        """``kind:sha256`` lines, sorted — the run's artifact hash set."""
        return tuple(
            f"{artifact.kind}:{artifact.sha256}"
            for artifact in self.artifacts()
        )

    def digest(self) -> str:
        """SHA-256 over the artifact hash set."""
        return sha256_hex("\n".join(self.hash_set()))

    def __len__(self) -> int:
        return len(self._by_kind)
