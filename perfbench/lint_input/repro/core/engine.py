"""The compliance engine: the paper's legal analysis as a rule pipeline.

Given one :class:`~repro.core.action.InvestigativeAction`, the engine runs:

1. the Katz reasonable-expectation-of-privacy analysis;
2. the four bodies of law in parallel — Fourth Amendment, Wiretap Act,
   SCA, Pen/Trap statute — each of which may impose a process requirement;
3. statute-internal exceptions (recorded for the trace);
4. cross-cutting exceptions (consent, exigency, plain view, ...), which
   eliminate requirements per legal source;
5. combination: the required process is the *maximum* surviving
   requirement, mirroring the paper's observation that stronger process
   subsumes weaker (section II.A).

The output :class:`~repro.core.ruling.Ruling` answers the Table 1 question
("does this scene need a warrant/court order/subpoena?") and carries a full
citation-bearing reasoning trace.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import Protocol, runtime_checkable

from repro.core.action import InvestigativeAction
from repro.core.cache import CacheStats, RulingCache
from repro.core.caselaw import AuthorityRegistry, build_default_registry
from repro.core.enums import LegalSource, ProcessKind
from repro.core.exceptions import gather_exceptions
from repro.core.fingerprint import action_fingerprint
from repro.core.privacy import analyze_privacy
from repro.core.ruling import (
    AppliedException,
    ReasoningStep,
    Requirement,
    Ruling,
)
from repro.core.statutes import fourth_amendment, pentrap, sca, wiretap
from repro.obs import OBS, span


@runtime_checkable
class RulingLedger(Protocol):
    """What the engine needs from a persistence backend.

    Duck-typed (satisfied by :class:`repro.ledger.Ledger`) so
    :mod:`repro.core` never imports :mod:`repro.ledger` — the dependency
    points the other way, exactly as with :mod:`repro.obs`.
    """

    def record_ruling(
        self, fingerprint: tuple, ruling: Ruling
    ) -> bool:
        """Persist one freshly evaluated ruling; returns True if new."""
        ...  # pragma: no cover - protocol

    def iter_rulings(
        self, limit: int | None = None
    ) -> Iterator[tuple[tuple, Ruling]]:
        """Stream persisted ``(fingerprint, ruling)`` pairs."""
        ...  # pragma: no cover - protocol


class ComplianceEngine:
    """Rules on investigative actions under the paper's legal framework.

    The engine is deterministic and side-effect free: the same action
    always produces the same ruling.  An optional
    :class:`~repro.core.caselaw.AuthorityRegistry` validates that every
    citation emitted by the rule modules actually exists.

    Args:
        registry: Authority registry citations are validated against.
        cache: Memoization for rulings, keyed by action fingerprint
            (:func:`~repro.core.fingerprint.action_fingerprint`).  Pass a
            :class:`~repro.core.cache.RulingCache` to share one across
            engines, an ``int`` for a private LRU cache of that size, or
            ``None`` (the default) for no caching — every call evaluates
            from scratch, exactly as before caching existed.
        ledger: Optional persistence backend (anything satisfying
            :class:`RulingLedger`, e.g. :class:`repro.ledger.Ledger`).
            Every *fresh* evaluation — never a cache hit, which by the
            differential gate is byte-identical anyway — is recorded, and
            :meth:`prime_from_ledger` warm-loads the cache at startup.
    """

    def __init__(
        self,
        registry: AuthorityRegistry | None = None,
        cache: RulingCache | int | None = None,
        ledger: RulingLedger | None = None,
    ) -> None:
        self._registry = registry or build_default_registry()
        if isinstance(cache, int):
            cache = RulingCache(maxsize=cache)
        self._cache = cache
        self._ledger = ledger

    @property
    def registry(self) -> AuthorityRegistry:
        """The authority registry rulings cite into."""
        return self._registry

    @property
    def cache(self) -> RulingCache | None:
        """The ruling cache, or ``None`` for an uncached engine."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats | None:
        """Hit/miss/eviction counters, or ``None`` for an uncached engine."""
        return self._cache.stats if self._cache is not None else None

    @property
    def ledger(self) -> RulingLedger | None:
        """The persistence backend, or ``None`` for an ephemeral engine."""
        return self._ledger

    def prime_from_ledger(self, limit: int | None = None) -> int:
        """Warm the ruling cache from the attached ledger.

        Streams persisted rulings into the cache (most callers do this
        once at startup, before the first evaluation) so previously
        ruled actions become pure lookups in this process too.

        Args:
            limit: Optional cap on rulings loaded.

        Returns:
            The number of rulings loaded into the cache.

        Raises:
            ValueError: If the engine has no ledger or no cache — there
                is nowhere to read from or nothing to warm.
        """
        if self._ledger is None:
            raise ValueError("prime_from_ledger requires a ledger")
        if self._cache is None:
            raise ValueError("prime_from_ledger requires a cache to warm")
        loaded = 0
        for fingerprint, ruling in self._ledger.iter_rulings(limit=limit):
            self._cache.put(fingerprint, ruling)
            loaded += 1
        if OBS.enabled:
            OBS.registry.counter(
                "repro_ledger_prime_rulings_total",
                "Rulings warm-loaded into a cache from a ledger.",
            ).inc(loaded)
        return loaded

    def _recording_evaluator(
        self,
    ) -> Callable[[InvestigativeAction], Ruling]:
        """The fresh-evaluation callable, ledger recording included."""
        if self._ledger is None:
            return self._evaluate_uncached
        evaluate_uncached = self._evaluate_uncached
        record = self._record_to_ledger

        def evaluate_and_record(action: InvestigativeAction) -> Ruling:
            ruling = evaluate_uncached(action)
            record(action_fingerprint(action), ruling)
            return ruling

        return evaluate_and_record

    def _record_to_ledger(self, fingerprint: tuple, ruling: Ruling) -> None:
        """Persist one fresh ruling, counting the write when traced."""
        assert self._ledger is not None
        self._ledger.record_ruling(fingerprint, ruling)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_ledger_ruling_writes_total",
                "Fresh rulings recorded to a ledger by the engine.",
            ).inc()

    def evaluate(self, action: InvestigativeAction) -> Ruling:
        """Produce a :class:`Ruling` for one investigative action.

        On a cached engine the ruling is served from the LRU cache when an
        equal-fingerprint action was ruled on before; cached and fresh
        rulings are indistinguishable (same trace, same ``explain()``).
        """
        # One attribute load + branch when telemetry is off: the span
        # kwargs dict is never built on the disabled hot path.
        if not OBS.enabled:
            return self._evaluate_impl(action)
        with span(
            "engine.evaluate", action_fp=action_fingerprint(action)
        ) as sp:
            ruling = self._evaluate_impl(action)
            sp.set(process=ruling.required_process.name)
        OBS.registry.counter(
            "repro_engine_evaluations_total",
            "Single-action ComplianceEngine.evaluate calls.",
        ).inc()
        OBS.registry.histogram(
            "repro_engine_evaluate_seconds",
            "Latency of ComplianceEngine.evaluate.",
        ).observe(sp.duration)
        return ruling

    def _evaluate_impl(self, action: InvestigativeAction) -> Ruling:
        """The cache-consulting single-action path, telemetry-free."""
        if self._cache is None:
            return self._recording_evaluator()(action)
        fingerprint = action_fingerprint(action)
        ruling = self._cache.get(fingerprint)
        if ruling is None:
            ruling = self._evaluate_uncached(action)
            self._cache.put(fingerprint, ruling)
            if self._ledger is not None:
                self._record_to_ledger(fingerprint, ruling)
        return ruling

    def evaluate_many(
        self, actions: Iterable[InvestigativeAction]
    ) -> list[Ruling]:
        """Rule on a batch of actions, deduplicating by fingerprint.

        Equal-fingerprint actions are evaluated once per batch even on an
        uncached engine (a transient per-call memo); a cached engine also
        consults and feeds its persistent LRU cache through the trimmed
        :meth:`~repro.core.cache.RulingCache.get_or_compute` batch path,
        so repeated batches approach pure lookup speed and even a cold
        batch stays at least as fast as the uncached loop.  Output order
        matches input order, ruling-for-ruling identical to calling
        :meth:`evaluate` in a loop.
        """
        if not OBS.enabled:
            return self._evaluate_many_impl(actions)
        batch = list(actions)
        with span("engine.evaluate_many", actions=len(batch)) as sp:
            rulings = self._evaluate_many_impl(batch)
        OBS.registry.counter(
            "repro_engine_batch_actions_total",
            "Actions ruled on through evaluate_many.",
        ).inc(len(batch))
        OBS.registry.histogram(
            "repro_engine_batch_seconds",
            "Latency of ComplianceEngine.evaluate_many batches.",
        ).observe(sp.duration)
        return rulings

    def _evaluate_many_impl(
        self, actions: Iterable[InvestigativeAction]
    ) -> list[Ruling]:
        """The batch path shared by both telemetry states."""
        if self._cache is None:
            rulings: list[Ruling] = []
            memo: dict = {}
            for action in actions:
                fingerprint = action_fingerprint(action)
                ruling = memo.get(fingerprint)
                if ruling is None:
                    ruling = self._evaluate_uncached(action)
                    memo[fingerprint] = ruling
                    if self._ledger is not None:
                        self._record_to_ledger(fingerprint, ruling)
                rulings.append(ruling)
            return rulings
        return self._cache.get_or_compute(
            actions, action_fingerprint, self._recording_evaluator()
        )

    def _evaluate_uncached(self, action: InvestigativeAction) -> Ruling:
        """The full rule pipeline, bypassing any cache."""
        privacy = analyze_privacy(action)

        requirements: list[Requirement] = []
        for requirement in (
            fourth_amendment.evaluate(action, privacy),
            wiretap.evaluate(action),
            sca.evaluate(action),
            pentrap.evaluate(action),
        ):
            if requirement is not None:
                requirements.append(requirement)

        exceptions = list(gather_exceptions(action))
        exceptions.extend(self._statutory_exceptions(action))

        eliminated: frozenset[LegalSource] = frozenset()
        for exception in exceptions:
            eliminated = eliminated | exception.eliminates
        surviving = [r for r in requirements if r.source not in eliminated]

        required_process = max(
            (r.process for r in surviving), default=ProcessKind.NONE
        )

        steps = self._flatten_steps(privacy.steps, requirements, exceptions)
        self._check_citations(steps)

        return Ruling(
            required_process=required_process,
            requirements=tuple(requirements),
            exceptions=tuple(exceptions),
            privacy=privacy,
            steps=steps,
        )

    def _statutory_exceptions(
        self, action: InvestigativeAction
    ) -> list[AppliedException]:
        """Statute-internal exceptions, recorded for the ruling's trace.

        These never eliminate anything at this layer — the statute modules
        already withheld their requirements — but surfacing them keeps the
        trace complete, so a reader can see *why* Title III or the
        Pen/Trap statute stayed silent.
        """
        recorded: list[AppliedException] = []
        if wiretap.applies(action):
            found = wiretap.statutory_exception(action)
            if found is not None:
                kind, step = found
                recorded.append(
                    AppliedException(
                        kind=kind, eliminates=frozenset(), step=step
                    )
                )
        if pentrap.applies(action):
            found = pentrap.statutory_exception(action)
            if found is not None:
                kind, step = found
                recorded.append(
                    AppliedException(
                        kind=kind, eliminates=frozenset(), step=step
                    )
                )
        return recorded

    @staticmethod
    def _flatten_steps(
        privacy_steps: tuple[ReasoningStep, ...],
        requirements: list[Requirement],
        exceptions: list[AppliedException],
    ) -> tuple[ReasoningStep, ...]:
        """Flatten all reasoning into one ordered, de-duplicated trace."""
        steps: list[ReasoningStep] = list(privacy_steps)
        for requirement in requirements:
            steps.extend(requirement.steps)
        steps.extend(exception.step for exception in exceptions)
        seen: set[tuple[str, str]] = set()
        unique: list[ReasoningStep] = []
        for step in steps:
            key = (step.source.value, step.text)
            if key not in seen:
                seen.add(key)
                unique.append(step)
        return tuple(unique)

    def _check_citations(self, steps: tuple[ReasoningStep, ...]) -> None:
        """Every citation a rule emits must exist in the registry."""
        for step in steps:
            for key in step.authorities:
                if key not in self._registry:
                    raise KeyError(
                        f"reasoning step cites unknown authority {key!r}: "
                        f"{step.text}"
                    )


def evaluate(action: InvestigativeAction) -> Ruling:
    """Module-level convenience wrapper around a default engine."""
    return _default_engine().evaluate(action)


_ENGINE: ComplianceEngine | None = None


def _default_engine() -> ComplianceEngine:
    """Lazily constructed singleton engine for the convenience API.

    The singleton carries a default-size ruling cache: repeated module-level
    :func:`evaluate` calls on equal-fingerprint actions are pure lookups.
    """
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = ComplianceEngine(cache=RulingCache())
    return _ENGINE
