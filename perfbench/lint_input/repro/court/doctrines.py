"""Prosecution responses to suppression motions.

The exclusionary rule has well-established limits; when the defense moves
to suppress, the prosecution may invoke:

* **good-faith reliance** (United States v. Leon): the officer reasonably
  relied on a facially valid warrant that was later invalidated — the
  deterrence rationale of exclusion does not apply;
* **independent source**: the same evidence was (or provably would have
  been) obtained through a lawful channel unconnected to the violation;
* **inevitable discovery** (Nix v. Williams): routine lawful procedure
  would inevitably have turned the evidence up;
* **attenuation**: the causal chain between the violation and the
  evidence is so long that the taint has dissipated.

These are modelled as per-item :class:`ProsecutionResponse` records the
hearing weighs after the baseline legality/taint analysis.
"""

from __future__ import annotations

import dataclasses
import enum


class ResponseKind(enum.Enum):
    """Which exclusionary-rule limit the prosecution invokes."""

    GOOD_FAITH_RELIANCE = "good-faith reliance on a facially valid warrant"
    INDEPENDENT_SOURCE = "independent source"
    INEVITABLE_DISCOVERY = "inevitable discovery"
    ATTENUATION = "attenuation of the taint"


@dataclasses.dataclass(frozen=True)
class ProsecutionResponse:
    """One argument offered against suppressing one evidence item.

    Attributes:
        evidence_id: The item the response defends.
        kind: The doctrine invoked.
        basis: The factual basis, in plain English.
        warrant_facially_valid: For good faith — whether the warrant the
            officer relied on appeared valid when executed.  A warrant so
            facially deficient no reasonable officer could rely on it
            (e.g. utterly lacking particularity) does not qualify.
        independent_evidence_id: For independent source — the evidence id
            of the untainted parallel acquisition, which must itself
            survive the hearing.
        discovery_probability: For inevitable discovery — the court's
            assessment that routine procedure would have found the item;
            must be a near-certainty (>= 0.9 here) to prevail.
    """

    evidence_id: int
    kind: ResponseKind
    basis: str
    warrant_facially_valid: bool = True
    independent_evidence_id: int | None = None
    discovery_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.discovery_probability <= 1.0:
            raise ValueError(
                f"discovery_probability must be a probability, got "
                f"{self.discovery_probability}"
            )


#: Threshold for inevitable discovery to prevail.
INEVITABILITY_THRESHOLD = 0.9


def response_prevails(
    response: ProsecutionResponse,
    independent_source_admitted: bool,
) -> tuple[bool, str]:
    """Decide one prosecution response.

    Args:
        response: The argument offered.
        independent_source_admitted: For independent-source claims,
            whether the named parallel evidence itself was admitted.

    Returns:
        ``(prevails, reason)``.
    """
    if response.kind is ResponseKind.GOOD_FAITH_RELIANCE:
        if response.warrant_facially_valid:
            return True, (
                "officer reasonably relied on a facially valid warrant "
                "(Leon); exclusion would not deter misconduct"
            )
        return False, (
            "the warrant was so facially deficient no reasonable officer "
            "could have relied on it"
        )

    if response.kind is ResponseKind.INDEPENDENT_SOURCE:
        if response.independent_evidence_id is None:
            return False, "no independent acquisition identified"
        if independent_source_admitted:
            return True, (
                f"the same evidence was lawfully obtained through "
                f"evidence #{response.independent_evidence_id}"
            )
        return False, (
            f"the claimed independent source (evidence "
            f"#{response.independent_evidence_id}) did not itself survive"
        )

    if response.kind is ResponseKind.INEVITABLE_DISCOVERY:
        if response.discovery_probability >= INEVITABILITY_THRESHOLD:
            return True, (
                "routine lawful procedure would inevitably have "
                "discovered the evidence (Nix)"
            )
        return False, (
            f"discovery was merely possible "
            f"(p={response.discovery_probability:.2f}), not inevitable"
        )

    # Attenuation: we model it as prevailing only on an explicit factual
    # basis; the hearing treats a bare invocation as insufficient.
    if response.basis.strip():
        return True, f"the taint has attenuated: {response.basis}"
    return False, "no factual basis for attenuation offered"
