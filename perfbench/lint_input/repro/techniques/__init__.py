"""Investigative techniques the paper analyzes, with legal self-description.

Every technique declares the acquisitions it performs so the
:class:`~repro.core.advisor.ResearchAdvisor` can classify it before it
runs — the paper's Section IV methodology made executable.
"""

from repro.techniques.base import Technique
from repro.techniques.credential_reuse import (
    Credential,
    CredentialedAccessTechnique,
    RemoteAccessReport,
)
from repro.techniques.data_mining import (
    CoOccurrence,
    DataMiningTechnique,
    MiningReport,
)
from repro.techniques.flow_correlation import (
    CorrelationResult,
    PacketCountingCorrelator,
    binned_counts,
    pearson,
)
from repro.techniques.hash_search import (
    HashHit,
    HashSearchReport,
    HashSearchTechnique,
)
from repro.techniques.interval_watermark import (
    SquareWaveConfig,
    SquareWaveDetection,
    SquareWaveDetector,
    SquareWaveTechnique,
    SquareWaveWatermarker,
)
from repro.techniques.scoped_search import (
    ScopedSearchReport,
    ScopedSearchTechnique,
)
from repro.techniques.timing_attack import (
    AttackMetrics,
    InvestigationResult,
    NeighborAssessment,
    OneSwarmTimingAttack,
)
from repro.techniques.traffic import OnOffFlow, PoissonFlow
from repro.techniques.visibility import (
    AutocorrelationVisibilityTest,
    VisibilityResult,
)
from repro.techniques.watermark import (
    DetectionResult,
    DsssWatermarkTechnique,
    FlowWatermarker,
    PnCode,
    WatermarkConfig,
    WatermarkDetector,
)

__all__ = [
    "AttackMetrics",
    "AutocorrelationVisibilityTest",
    "CoOccurrence",
    "CorrelationResult",
    "Credential",
    "CredentialedAccessTechnique",
    "DataMiningTechnique",
    "DetectionResult",
    "DsssWatermarkTechnique",
    "FlowWatermarker",
    "HashHit",
    "HashSearchReport",
    "HashSearchTechnique",
    "InvestigationResult",
    "MiningReport",
    "NeighborAssessment",
    "OnOffFlow",
    "OneSwarmTimingAttack",
    "PacketCountingCorrelator",
    "PnCode",
    "PoissonFlow",
    "RemoteAccessReport",
    "ScopedSearchReport",
    "ScopedSearchTechnique",
    "SquareWaveConfig",
    "SquareWaveDetection",
    "SquareWaveDetector",
    "SquareWaveTechnique",
    "SquareWaveWatermarker",
    "Technique",
    "VisibilityResult",
    "WatermarkConfig",
    "WatermarkDetector",
    "binned_counts",
    "pearson",
]
