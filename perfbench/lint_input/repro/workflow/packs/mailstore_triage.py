"""The mailstore-triage pack: SCA-aware compelled mail examination.

Seven steps over a public provider's mailbox: a subpoena-gated
inventory of subscriber/metadata facts, per-message SCA role
classification (ECS vs RCS vs dropped-out), warrant-gated content
acquisition, hashing, keyword triage, integrity checking, and the case
report.  The two gated steps declare distinct legal bases at distinct
tiers — the pack exists to exercise multi-instrument workflows where
the *weakest sufficient* process differs per step.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, ProcessKind, Timing
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.storage.hashing import sha256_hex
from repro.storage.mailstore import MailProvider, Message
from repro.workflow.artifacts import Artifact
from repro.workflow.context import StepContext, Subject
from repro.workflow.packs import Pack
from repro.workflow.spec import OnFailure, StepSpec, WorkflowSpec

_KEYWORDS = ("wire transfer", "invoice", "offshore", "password")

#: Subpoena-tier legal basis: basic subscriber information.
INVENTORY_ACTION = InvestigativeAction(
    description=(
        "compel basic subscriber information and mailbox metadata for "
        "the target account from a public provider"
    ),
    actor=Actor.GOVERNMENT,
    data_kind=DataKind.SUBSCRIBER_INFO,
    timing=Timing.STORED,
    context=EnvironmentContext(
        place=Place.THIRD_PARTY_PROVIDER, provider_serves_public=True
    ),
)

#: Warrant-tier legal basis: stored message contents.
CONTENT_ACTION = InvestigativeAction(
    description=(
        "compel stored message contents for the target account from a "
        "public provider"
    ),
    actor=Actor.GOVERNMENT,
    data_kind=DataKind.CONTENT,
    timing=Timing.STORED,
    context=EnvironmentContext(
        place=Place.THIRD_PARTY_PROVIDER, provider_serves_public=True
    ),
)


@dataclasses.dataclass
class MailPayload:
    """The provider and the account under investigation."""

    provider: MailProvider
    account: str


_SUBJECTS = (
    "quarterly invoice",
    "re: wire transfer details",
    "lunch thursday?",
    "offshore account setup",
    "password reset",
    "family photos",
    "shipment tracking",
)


def build_subject(seed: int, injector: FaultInjector | None = None) -> Subject:
    """A seeded public-provider mailbox in mixed lifecycle states.

    Message ids are assigned explicitly from the seed — never from the
    process-global counter — so a resumed process rebuilds a
    byte-identical mailbox.

    The ``injector`` is carried on the workflow context (see
    :meth:`~repro.workflow.context.StepContext.maybe_fault`) rather than
    wired into the provider, which has no native fault points.
    """
    del injector  # reaches the steps via the engine's StepContext
    rng = random.Random(seed * 5_915_587 + 29)
    provider = MailProvider(f"mailhost-{seed % 7}", serves_public=True)
    provider.create_account("alice")
    provider.create_account("bob")
    n_messages = 5 + rng.randrange(3)
    for index in range(n_messages):
        subject_line = _SUBJECTS[rng.randrange(len(_SUBJECTS))]
        body = (
            f"{subject_line} — body {index}: "
            + "".join(
                rng.choice("abcdefghijklmnopqrstuvwxyz ")
                for _ in range(32)
            )
        )
        message = Message(
            sender=f"bob{index % 2}@example.net",
            recipient="alice",
            subject=subject_line,
            body=body,
            sent_at=float(10 * index),
            message_id=1000 + seed * 100 + index,
        )
        provider.deliver(message, time=float(10 * index + 1))
        if rng.random() < 0.5:
            provider.retrieve("alice", message.message_id)
    mailbox = provider.mailbox("alice")
    if len(mailbox) > 2 and rng.random() < 0.4:
        provider.delete("alice", mailbox[0].message_id)
    fingerprint = "mailstore seed={seed}\n".format(seed=seed) + "\n".join(
        _canonical_message(message)
        for message in provider.mailbox("alice")
    )
    return Subject(
        subject_id=f"mailbox-alice-{seed}",
        description=(
            f"alice's mailbox at {provider.name} (seed {seed}), "
            "compelled under warrant"
        ),
        fingerprint=fingerprint,
        action=CONTENT_ACTION,
        payload=MailPayload(provider=provider, account="alice"),
    )


def _canonical_message(message: Message) -> str:
    return (
        f"id={message.message_id}|from={message.sender}"
        f"|to={message.recipient}|subject={message.subject}"
        f"|sent={message.sent_at:.1f}"
        f"|delivered={message.delivered_at or 0.0:.1f}"
        f"|retrieved={message.retrieved}|body={message.body}"
    )


# -- step bodies --------------------------------------------------------------


def _inventory(ctx: StepContext) -> tuple[Artifact, ...]:
    payload = ctx.subject.payload
    ctx.require_process(ProcessKind.SUBPOENA)
    ctx.maybe_fault(f"mailstore:{payload.provider.name}:inventory")
    mailbox = payload.provider.mailbox(payload.account)
    lines = [
        f"provider={payload.provider.name} "
        f"serves_public={payload.provider.serves_public}",
        f"account={payload.account} messages={len(mailbox)}",
    ]
    lines.extend(
        f"message id={message.message_id} sent={message.sent_at:.1f} "
        f"delivered={message.delivered_at or 0.0:.1f}"
        for message in mailbox
    )
    return (ctx.make("mail.inventory", "\n".join(lines) + "\n"),)


def _classify_sca_roles(ctx: StepContext) -> tuple[Artifact, ...]:
    payload = ctx.subject.payload
    lines = ["sca classification"]
    for message in payload.provider.mailbox(payload.account):
        role = payload.provider.role_for(message)
        required, source = payload.provider.required_process_for(message)
        lines.append(
            f"message id={message.message_id} role={role.name} "
            f"required={required.display_name} source={source.name}"
        )
    return (ctx.make("sca.roles", "\n".join(lines) + "\n"),)


def _acquire_content(ctx: StepContext) -> tuple[Artifact, ...]:
    payload = ctx.subject.payload
    ctx.require_process(ProcessKind.SEARCH_WARRANT)
    lines = ["compelled message contents"]
    for message in payload.provider.mailbox(payload.account):
        ctx.maybe_fault(f"mailstore:msg-{message.message_id}")
        lines.append(_canonical_message(message))
    ctx.note_custody(
        f"compelled {len(lines) - 1} message(s) from "
        f"{payload.provider.name} under warrant"
    )
    return (ctx.make("mail.content", "\n".join(lines) + "\n"),)


def _hash_messages(ctx: StepContext) -> tuple[Artifact, ...]:
    content = ctx.input("mail.content")
    lines = ["per-message hashes"]
    for line in content.content.decode().splitlines()[1:]:
        message_id = line.split("|", 1)[0]
        lines.append(f"{message_id} sha256={sha256_hex(line)}")
    return (ctx.make("mail.hashes", "\n".join(lines) + "\n"),)


def _keyword_triage(ctx: StepContext) -> tuple[Artifact, ...]:
    content = ctx.input("mail.content")
    lines = ["keyword triage"]
    for line in content.content.decode().splitlines()[1:]:
        hits = sorted(
            keyword for keyword in _KEYWORDS if keyword in line.lower()
        )
        if hits:
            message_id = line.split("|", 1)[0]
            lines.append(f"{message_id} hits={','.join(hits)}")
    return (
        ctx.make(
            "triage.hits",
            "\n".join(lines) + "\n",
            hit_count=str(len(lines) - 1),
        ),
    )


def _integrity_check(ctx: StepContext) -> tuple[Artifact, ...]:
    content = ctx.input("mail.content")
    hashes = ctx.input("mail.hashes")
    recomputed = []
    for line in content.content.decode().splitlines()[1:]:
        message_id = line.split("|", 1)[0]
        recomputed.append(f"{message_id} sha256={sha256_hex(line)}")
    recorded = hashes.content.decode().splitlines()[1:]
    verdict_ok = recomputed == recorded
    verdict = (
        f"integrity check\nmessages={len(recomputed)}\n"
        f"verdict={'intact' if verdict_ok else 'MISMATCH'}\n"
    )
    return (ctx.make("integrity.verdict", verdict),)


def _final_report(ctx: StepContext) -> tuple[Artifact, ...]:
    triage = ctx.input("triage.hits")
    verdict = ctx.input("integrity.verdict")
    roles = ctx.input("sca.roles")
    report = (
        "mailstore triage case report\n"
        f"subject: {ctx.subject.subject_id}\n"
        f"sca roles sha256: {roles.sha256}\n"
        f"triage sha256: {triage.sha256} "
        f"(hits={triage.meta_value('hit_count')})\n"
        f"integrity sha256: {verdict.sha256}\n"
    )
    return (ctx.make("case.report", report),)


_MAIL_RETRY = RetryPolicy(max_attempts=4, base_delay=15.0, multiplier=3.0)


def build_spec() -> WorkflowSpec:
    """The seven-step mailstore-triage workflow."""
    return WorkflowSpec(
        name="mailstore-triage",
        instruments=(ProcessKind.SUBPOENA, ProcessKind.SEARCH_WARRANT),
        steps=(
            StepSpec(
                step_id="inventory",
                title="subpoena mailbox metadata",
                run=_inventory,
                outputs=("mail.inventory",),
                legal_action=INVENTORY_ACTION,
                gate=ProcessKind.SUBPOENA,
                retry=_MAIL_RETRY,
                sim_cost=120.0,
            ),
            StepSpec(
                step_id="classify_sca_roles",
                title="classify per-message SCA roles",
                run=_classify_sca_roles,
                inputs=("mail.inventory",),
                outputs=("sca.roles",),
                sim_cost=60.0,
            ),
            StepSpec(
                step_id="acquire_content",
                title="compel message contents under warrant",
                run=_acquire_content,
                inputs=("sca.roles",),
                outputs=("mail.content",),
                legal_action=CONTENT_ACTION,
                gate=ProcessKind.SEARCH_WARRANT,
                retry=_MAIL_RETRY,
                timeout=7200.0,
                sim_cost=300.0,
            ),
            StepSpec(
                step_id="hash_messages",
                title="hash each compelled message",
                run=_hash_messages,
                inputs=("mail.content",),
                outputs=("mail.hashes",),
                sim_cost=60.0,
            ),
            StepSpec(
                step_id="keyword_triage",
                title="triage messages by keyword",
                run=_keyword_triage,
                inputs=("mail.content",),
                outputs=("triage.hits",),
                sim_cost=90.0,
                on_failure=OnFailure.SKIP_WITH_PARTIAL_CONFIDENCE,
            ),
            StepSpec(
                step_id="integrity_check",
                title="verify message hashes",
                run=_integrity_check,
                inputs=("mail.content", "mail.hashes"),
                outputs=("integrity.verdict",),
                sim_cost=60.0,
            ),
            StepSpec(
                step_id="final_report",
                title="write the case report",
                run=_final_report,
                inputs=("triage.hits", "integrity.verdict", "sca.roles"),
                outputs=("case.report",),
                sim_cost=60.0,
                on_failure=OnFailure.ABORT_AND_SUPPRESS,
            ),
        ),
    )


PACK = Pack(
    name="mailstore-triage",
    title="SCA-aware mailbox inventory, compulsion, and triage",
    build_spec=build_spec,
    build_subject=build_subject,
    source_modules=("repro.workflow.packs.mailstore_triage",),
)
