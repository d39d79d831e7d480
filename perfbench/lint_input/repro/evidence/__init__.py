"""Evidence handling: items, chain of custody, admissibility.

The machinery that makes the paper's warning operational: evidence records
its acquisition provenance, custody hands are logged with integrity
hashes, and the admissibility analyzer applies the exclusionary rule
(including fruit of the poisonous tree) against the compliance engine's
rulings.
"""

from repro.evidence.admissibility import (
    AdmissibilityAnalyzer,
    AdmissibilityFinding,
)
from repro.evidence.custody import (
    BrokenChainError,
    ChainOfCustody,
    CustodyEntry,
)
from repro.evidence.items import EvidenceItem, derive

__all__ = [
    "AdmissibilityAnalyzer",
    "AdmissibilityFinding",
    "BrokenChainError",
    "ChainOfCustody",
    "CustodyEntry",
    "EvidenceItem",
    "derive",
]
