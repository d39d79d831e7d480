"""Credentialed remote access after arrest (Table 1 scene 20).

The arrested defendant's username and password, lawfully obtained, are
used to retrieve the defendant's own data from a remote provider.  The
paper's authors judge this needs no further process (Table 1 row 20, their
own ``(*)`` call), which the declared action reflects via the
``credentials_lawfully_obtained`` doctrine flag.
"""

from __future__ import annotations

import dataclasses

from repro.core.action import DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.netsim.isp import IspNode
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class Credential:
    """A username/password pair and how it was obtained."""

    username: str
    password: str
    lawfully_obtained: bool = True


@dataclasses.dataclass(frozen=True)
class RemoteAccessReport:
    """Outcome of a credentialed retrieval."""

    account: str
    items_retrieved: tuple[str, ...]


class CredentialedAccessTechnique(Technique):
    """Retrieve a defendant's remote data using their own credentials."""

    name = "post-arrest credentialed remote access"

    def __init__(self, credential: Credential) -> None:
        self.credential = credential

    def run(self, provider: IspNode, account: str) -> RemoteAccessReport:
        """Log in as the defendant and pull the account's stored items.

        The provider-side check is authentication only: with valid
        credentials the provider cannot distinguish this access from the
        defendant's own.

        Raises:
            PermissionError: If the username does not match the account.
        """
        if self.credential.username != account:
            raise PermissionError(
                f"credentials are for {self.credential.username!r}, "
                f"not {account!r}"
            )
        items = provider.authenticated_retrieval(account)
        return RemoteAccessReport(
            account=account,
            items_retrieved=tuple(item.content for item in items),
        )

    def required_actions(self) -> list[InvestigativeAction]:
        return [
            InvestigativeAction(
                description=(
                    "use the arrested defendant's username and password to "
                    "retrieve the defendant's data from a remote computer"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(
                    place=Place.THIRD_PARTY_PROVIDER,
                    provider_serves_public=True,
                ),
                doctrine=DoctrineFacts(
                    credentials_lawfully_obtained=(
                        self.credential.lawfully_obtained
                    )
                ),
            )
        ]
