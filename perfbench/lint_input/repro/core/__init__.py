"""Core of the reproduction: the paper's legal framework, executable.

Public API::

    from repro.core import (
        ComplianceEngine, InvestigativeAction, EnvironmentContext,
        Ruling, analyze_privacy, build_table1, ResearchAdvisor,
    )

    engine = ComplianceEngine()
    ruling = engine.evaluate(action)
    ruling.needs_process       # the Table 1 answer
    ruling.required_process    # subpoena / court order / warrant / Title III
    print(ruling.explain())    # full citation-bearing reasoning trace
"""

from repro.core.action import (
    ConsentFacts,
    DoctrineFacts,
    InvestigativeAction,
)
from repro.core.cache import DEFAULT_CACHE_SIZE, CacheStats, RulingCache
from repro.core.advisor import (
    Feasibility,
    RedesignSuggestion,
    ResearchAdvisor,
    TechniqueAssessment,
)
from repro.core.caselaw import (
    Authority,
    AuthorityKind,
    AuthorityRegistry,
    build_default_registry,
)
from repro.core.context import EnvironmentContext
from repro.core.engine import ComplianceEngine, RulingLedger, evaluate
from repro.core.fingerprint import (
    ActionFingerprint,
    action_fingerprint,
    fingerprint_digest,
)
from repro.core.extended_scenarios import (
    ExtendedScene,
    build_extended_catalogue,
)
from repro.core.interview import ActionInterview, Question, run_interview
from repro.core.enums import (
    REQUIRED_SHOWING,
    Actor,
    Admissibility,
    ConsentScope,
    DataKind,
    ExceptionKind,
    LegalSource,
    Place,
    ProcessKind,
    ProviderRole,
    Standard,
    Timing,
)
from repro.core.privacy import analyze_privacy
from repro.core.ruling import (
    AppliedException,
    PrivacyFinding,
    ReasoningStep,
    Requirement,
    Ruling,
)
from repro.core.scenarios import Scenario, build_table1
from repro.core.scope import (
    ExaminedRecord,
    ScopeDecision,
    WarrantScope,
    classify_record,
    locations_requiring_new_warrants,
)

__all__ = [
    "ActionFingerprint",
    "ActionInterview",
    "Actor",
    "Admissibility",
    "AppliedException",
    "Authority",
    "AuthorityKind",
    "AuthorityRegistry",
    "CacheStats",
    "ComplianceEngine",
    "ConsentFacts",
    "ConsentScope",
    "DEFAULT_CACHE_SIZE",
    "DataKind",
    "DoctrineFacts",
    "EnvironmentContext",
    "ExaminedRecord",
    "ExceptionKind",
    "ExtendedScene",
    "Feasibility",
    "InvestigativeAction",
    "LegalSource",
    "Place",
    "PrivacyFinding",
    "ProcessKind",
    "ProviderRole",
    "Question",
    "REQUIRED_SHOWING",
    "ReasoningStep",
    "RedesignSuggestion",
    "Requirement",
    "ResearchAdvisor",
    "Ruling",
    "RulingCache",
    "RulingLedger",
    "Scenario",
    "ScopeDecision",
    "Standard",
    "TechniqueAssessment",
    "Timing",
    "WarrantScope",
    "action_fingerprint",
    "analyze_privacy",
    "build_default_registry",
    "build_extended_catalogue",
    "build_table1",
    "classify_record",
    "evaluate",
    "fingerprint_digest",
    "locations_requiring_new_warrants",
    "run_interview",
]
