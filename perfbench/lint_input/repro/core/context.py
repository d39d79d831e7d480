"""Environment context: where and how the targeted data lives.

The compliance engine's constitutional analysis (reasonable expectation of
privacy) depends almost entirely on environmental facts — was the data
knowingly exposed, shared, delivered, broadcast, held by a provider, inside
a home — rather than on the investigator's intent.  This module captures
those facts in one explicit, immutable record.
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import Place, ProviderRole


@dataclasses.dataclass(frozen=True)
class EnvironmentContext:
    """Facts about the environment in which the targeted data lives.

    Attributes:
        place: Where the data is when acquired.
        encrypted: Whether the data is encrypted in the observed channel.
            Encryption evidences a subjective expectation of privacy (the
            Katz first prong) but does not by itself create an objective
            one for addressing data broadcast in the clear.
        knowingly_exposed: The data was knowingly exposed to another person
            or to the public (Gorshkov; paper section II.C.2).  Exposed
            information carries no reasonable expectation of privacy.
        shared_with_others: The data sits in a folder/share deliberately
            made available to other users (King (11th Cir.); Stults).
        delivered_to_recipient: The communication has already been
            delivered; the *sender's* expectation terminates upon delivery
            (King (6th Cir.)).
        provider_serves_public: For data held at a provider, whether the
            provider offers its service to the public.  Non-public
            providers (a university mail server) are neither ECS nor RCS
            for opened mail, which then "drops out of the SCA"
            (Andersen Consulting).
        provider_role: SCA classification of the provider with respect to
            this specific message, if known.  ``None`` means "derive it".
        policy_eliminates_rep: A binner/terms-of-service/workplace policy
            eliminates users' expectation of privacy on this network
            (Table 1 scene 2).
        home_interior: The acquisition reveals information about the
            interior of a home (the Kyllo factor).
        technology_in_general_public_use: Whether the sense-enhancing
            technology used is in general public use (the other Kyllo
            factor); irrelevant unless ``home_interior`` is set.
        abandoned: The data or device was abandoned by its owner.
    """

    place: Place
    encrypted: bool = False
    knowingly_exposed: bool = False
    shared_with_others: bool = False
    delivered_to_recipient: bool = False
    provider_serves_public: bool | None = None
    provider_role: ProviderRole | None = None
    policy_eliminates_rep: bool = False
    home_interior: bool = False
    technology_in_general_public_use: bool = False
    abandoned: bool = False

    def is_public_exposure(self) -> bool:
        """Whether the data is exposed in a way that defeats privacy.

        Any of: physically public place, knowing exposure, sharing, or
        abandonment (paper section II.C.2).
        """
        return (
            self.place is Place.PUBLIC
            or self.knowingly_exposed
            or self.shared_with_others
            or self.abandoned
        )

    def at_provider(self) -> bool:
        """Whether the data is held by a third-party service provider."""
        return self.place is Place.THIRD_PARTY_PROVIDER
