"""Investigation workflows: cases, investigators, and pipelines.

Ties the whole framework together: a case accumulates facts, the
investigator applies for process and acts under the compliance engine's
rulings, and the pipeline carries every scene through acquisition and
suppression.
"""

from repro.investigation.attribution import (
    AttributionAnalyzer,
    AttributionReport,
    BrowsingRecord,
    LoginRecord,
    MachineProfile,
    MalwareScanResult,
    UserAccount,
)
from repro.investigation.campaign import (
    CampaignConfig,
    CampaignResult,
    compliance_curve,
    run_campaign,
)
from repro.investigation.case import (
    Case,
    articulable_facts,
    ip_address_fact,
    membership_fact,
    membership_with_intent_fact,
    suspicion_fact,
)
from repro.investigation.investigator import Investigator
from repro.investigation.pipeline import (
    InvestigationPipeline,
    SceneOutcome,
    suppression_split,
)
from repro.investigation.reporting import (
    format_assessment,
    format_quick_reference,
    format_suppression_outcomes,
    format_table1,
)
from repro.investigation.storylines import (
    StorylineReport,
    ip_traceback_storyline,
    watermark_situation_one,
    watermark_situation_two,
)

__all__ = [
    "AttributionAnalyzer",
    "AttributionReport",
    "BrowsingRecord",
    "CampaignConfig",
    "CampaignResult",
    "Case",
    "InvestigationPipeline",
    "Investigator",
    "LoginRecord",
    "MachineProfile",
    "MalwareScanResult",
    "SceneOutcome",
    "StorylineReport",
    "UserAccount",
    "articulable_facts",
    "compliance_curve",
    "format_assessment",
    "format_quick_reference",
    "format_suppression_outcomes",
    "format_table1",
    "ip_address_fact",
    "ip_traceback_storyline",
    "membership_fact",
    "membership_with_intent_fact",
    "run_campaign",
    "suppression_split",
    "suspicion_fact",
    "watermark_situation_one",
    "watermark_situation_two",
]
