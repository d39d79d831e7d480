"""An SCA-aware mail store: the Alice/Bob lifecycle of section III.A.3.

Every message tracks its lifecycle (sent → delivered → retrieved →
retained or deleted), and the provider's SCA role is computed *per
message*: ECS while the message awaits retrieval, RCS for retrieved mail
retained at a public provider, and NEITHER for retrieved mail on a
non-public provider — at which point the message "drops out of the SCA"
and only the Fourth Amendment governs access.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    DataKind,
    LegalSource,
    Place,
    ProcessKind,
    ProviderRole,
    Timing,
)
from repro.core.statutes.sca import (
    COMPELLED_DISCLOSURE_TIERS,
    classify_provider,
)

_message_ids = itertools.count(1)


@dataclasses.dataclass
class Message:
    """One e-mail message and its lifecycle state."""

    sender: str
    recipient: str
    subject: str
    body: str
    sent_at: float
    message_id: int = dataclasses.field(
        default_factory=lambda: next(_message_ids)
    )
    delivered_at: float | None = None
    retrieved: bool = False
    deleted: bool = False

    @property
    def in_transit(self) -> bool:
        """Whether the message has not yet reached the recipient's provider."""
        return self.delivered_at is None


class MailProvider:
    """A mail provider holding mailboxes, public or not.

    Args:
        name: Provider name (e.g. ``"gmail"`` or ``"cs.charlie.edu"``).
        serves_public: Whether the provider offers service to the public.
    """

    def __init__(self, name: str, serves_public: bool) -> None:
        self.name = name
        self.serves_public = serves_public
        self._mailboxes: dict[str, list[Message]] = {}

    def create_account(self, account: str) -> None:
        """Create an empty mailbox."""
        if account in self._mailboxes:
            raise ValueError(f"account exists: {account!r}")
        self._mailboxes[account] = []

    def deliver(self, message: Message, time: float) -> None:
        """Deliver an in-transit message into the recipient's mailbox.

        Raises:
            KeyError: If the recipient has no account here.
        """
        if message.recipient not in self._mailboxes:
            raise KeyError(f"no account {message.recipient!r} at {self.name}")
        message.delivered_at = time
        self._mailboxes[message.recipient].append(message)

    def retrieve(self, account: str, message_id: int) -> Message:
        """The user opens a message; the provider's role may change.

        Raises:
            KeyError: If the account or message is unknown.
        """
        message = self._find(account, message_id)
        message.retrieved = True
        return message

    def delete(self, account: str, message_id: int) -> None:
        """The user deletes a message from their mailbox."""
        message = self._find(account, message_id)
        message.deleted = True
        self._mailboxes[account].remove(message)

    def mailbox(self, account: str) -> list[Message]:
        """Messages currently stored for an account."""
        return list(self._mailboxes[account])

    def _find(self, account: str, message_id: int) -> Message:
        for message in self._mailboxes[account]:
            if message.message_id == message_id:
                return message
        raise KeyError(
            f"no message {message_id} in {account!r} at {self.name}"
        )

    # -- SCA analysis ------------------------------------------------------------

    def role_for(self, message: Message) -> ProviderRole:
        """This provider's SCA role with respect to one message."""
        return classify_provider(
            serves_public=self.serves_public,
            message_retrieved=message.retrieved,
        )

    def required_process_for(
        self, message: Message
    ) -> tuple[ProcessKind, LegalSource]:
        """What the government needs to compel this message's content.

        Returns:
            The required process and the body of law imposing it: the SCA
            tier for ECS/RCS messages, or the Fourth Amendment's warrant
            requirement once the message has dropped out of the SCA.
        """
        role = self.role_for(message)
        if role is ProviderRole.NEITHER:
            return ProcessKind.SEARCH_WARRANT, LegalSource.FOURTH_AMENDMENT
        return COMPELLED_DISCLOSURE_TIERS[DataKind.CONTENT], LegalSource.SCA

    def describe_compulsion(self, message: Message) -> InvestigativeAction:
        """The engine-ready action for compelling this message's content."""
        return InvestigativeAction(
            description=(
                f"compel content of message {message.message_id} "
                f"({message.subject!r}) from {self.name}"
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(
                place=Place.THIRD_PARTY_PROVIDER,
                provider_serves_public=self.serves_public,
                provider_role=self.role_for(message),
            ),
        )
