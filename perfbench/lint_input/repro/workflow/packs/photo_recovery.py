"""The photo-recovery pack: seized media to cataloged photo evidence.

Ten steps spanning the canonical dead-box pipeline: media
identification, readability probing, warrant-gated imaging, hashing,
filesystem analysis (live and recoverable-deleted files), carving of
unallocated space, EXIF extraction, integrity validation, cataloging,
and the final case report.  The only acquisition — imaging the seized
drive — declares its legal basis and gates on a search warrant; every
later step is analysis of lawfully imaged bytes.
"""

from __future__ import annotations

import random
import re

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, ProcessKind, Timing
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.storage.blockdev import BlockDevice, image_device
from repro.storage.carving import DEFAULT_SIGNATURES, carve
from repro.storage.filesystem import SimpleFilesystem
from repro.storage.hashing import sha256_hex
from repro.workflow.artifacts import Artifact
from repro.workflow.context import StepContext, Subject
from repro.workflow.packs import Pack
from repro.workflow.spec import OnFailure, StepSpec, WorkflowSpec

_EXIF_TOKEN = re.compile(rb"exif:([0-9]{4}-[0-9]{2}-[0-9]{2} cam=K[0-9]+)")

#: The declared legal basis for imaging the seized drive.
IMAGING_ACTION = InvestigativeAction(
    description=(
        "image and examine the contents of a drive seized from the "
        "suspect's premises under a search warrant"
    ),
    actor=Actor.GOVERNMENT,
    data_kind=DataKind.CONTENT,
    timing=Timing.STORED,
    context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
)


class _MediaPayload:
    """The seized drive plus the filesystem view the examiner parses."""

    def __init__(self, device: BlockDevice, fs: SimpleFilesystem) -> None:
        self.device = device
        self.fs = fs


class _ImageBuffer:
    """A read-only raw-bytes view over an imaged artifact.

    Duck-types the one method :func:`repro.storage.carving.carve`
    actually uses, so carving runs over the *image artifact's* bytes —
    never over the original device — matching forensic practice.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data

    def raw_bytes(self) -> bytes:
        """The image contents."""
        return self._data


def build_subject(seed: int, injector: FaultInjector | None = None) -> Subject:
    """A seeded seized drive with live, deleted, and carvable photos."""
    rng = random.Random(seed * 9_176_431 + 17)
    device = BlockDevice(n_blocks=48, block_size=64, injector=injector)
    fs = SimpleFilesystem(device)
    n_photos = 4 + rng.randrange(3)
    for index in range(n_photos):
        month = 1 + rng.randrange(12)
        day = 1 + rng.randrange(28)
        camera = 1 + rng.randrange(4)
        filler = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(24)
        )
        fs.write_file(
            f"IMG_{index:04d}.jpg",
            f"JPEG[photo-{index} exif:2012-{month:02d}-{day:02d} "
            f"cam=K{camera} {filler}]GEPJ",
        )
    fs.write_file(
        "notes.txt", f"case notes for seed {seed}: suspect drive intake"
    )
    # One photo is deleted and stays recoverable; a later write may
    # overwrite part of another deleted photo, leaving only carvable
    # fragments — both realities the analysis steps must cope with.
    fs.delete_file("IMG_0001.jpg")
    if n_photos >= 5:
        fs.delete_file("IMG_0003.jpg")
        fs.write_file(
            "report_draft.txt",
            "draft narrative " + "".join(
                rng.choice("0123456789") for _ in range(40)
            ),
        )
    fingerprint = (
        f"photo-media seed={seed} device_sha256={device.sha256()}"
    )
    return Subject(
        subject_id=f"photo-media-{seed}",
        description=f"seized drive (seed {seed}), suspected photo evidence",
        fingerprint=fingerprint,
        action=IMAGING_ACTION,
        payload=_MediaPayload(device, fs),
    )


# -- step bodies --------------------------------------------------------------


def _identify_media(ctx: StepContext) -> tuple[Artifact, ...]:
    device = ctx.subject.payload.device
    profile = (
        f"media profile\n"
        f"blocks={device.n_blocks}\n"
        f"block_size={device.block_size}\n"
        f"capacity={device.capacity}\n"
    )
    return (ctx.make("media.profile", profile),)


def _verify_readability(ctx: StepContext) -> tuple[Artifact, ...]:
    device = ctx.subject.payload.device
    first = device.read_block(0)
    last = device.read_block(device.n_blocks - 1)
    readability = (
        f"readability probe\n"
        f"first_block_sha256={sha256_hex(first)}\n"
        f"last_block_sha256={sha256_hex(last)}\n"
        f"readable=true\n"
    )
    return (ctx.make("media.readability", readability),)


def _acquire_image(ctx: StepContext) -> tuple[Artifact, ...]:
    device = ctx.subject.payload.device
    ctx.require_process(ProcessKind.SEARCH_WARRANT)
    image = image_device(device)
    digest = image.sha256()
    ctx.note_custody(
        f"imaged device through write-blocked read path; "
        f"verified image sha256={digest}"
    )
    return (
        ctx.make(
            "image.raw",
            image.raw_bytes(),
            image_sha256=digest,
            source_sha256=device.sha256(),
        ),
    )


def _hash_image(ctx: StepContext) -> tuple[Artifact, ...]:
    image = ctx.input("image.raw")
    quarter = max(len(image.content) // 4, 1)
    lines = [f"image_sha256={image.sha256}"]
    for index in range(4):
        segment = image.content[index * quarter : (index + 1) * quarter]
        lines.append(f"quarter{index}_sha256={sha256_hex(segment)}")
    return (
        ctx.make(
            "image.hashes",
            "\n".join(lines) + "\n",
            image_sha256=image.sha256,
        ),
    )


def _analyze_filesystem(ctx: StepContext) -> tuple[Artifact, ...]:
    fs = ctx.subject.payload.fs
    lines = ["filesystem listing"]
    for name in sorted(fs.list_files()):
        contents = fs.read_file(name)
        lines.append(
            f"live name={name} bytes={len(contents)} "
            f"sha256={sha256_hex(contents)}"
        )
    for name, contents in sorted(fs.recover_deleted().items()):
        lines.append(
            f"recovered name={name} bytes={len(contents)} "
            f"sha256={sha256_hex(contents)}"
        )
    return (ctx.make("fs.listing", "\n".join(lines) + "\n"),)


def _carve_unallocated(ctx: StepContext) -> tuple[Artifact, ...]:
    image = ctx.input("image.raw")
    carved = carve(_ImageBuffer(image.content), DEFAULT_SIGNATURES)
    lines = ["carving results"]
    for found in carved:
        lines.append(
            f"carved signature={found.signature} "
            f"start={found.start_offset} end={found.end_offset} "
            f"sha256={sha256_hex(found.contents)}"
        )
    return (
        ctx.make(
            "carve.results",
            "\n".join(lines) + "\n",
            carved_count=str(len(carved)),
        ),
    )


def _extract_exif(ctx: StepContext) -> tuple[Artifact, ...]:
    image = ctx.input("image.raw")
    tokens = sorted(
        {match.decode() for match in _EXIF_TOKEN.findall(image.content)}
    )
    lines = ["exif extraction"]
    lines.extend(f"exif {token}" for token in tokens)
    return (
        ctx.make(
            "exif.report",
            "\n".join(lines) + "\n",
            token_count=str(len(tokens)),
        ),
    )


def _validate_integrity(ctx: StepContext) -> tuple[Artifact, ...]:
    image = ctx.input("image.raw")
    hashes = ctx.input("image.hashes")
    recorded = hashes.meta_value("image_sha256")
    recomputed = image.sha256
    declared = image.meta_value("image_sha256")
    verdict_ok = recorded == recomputed == declared
    verdict = (
        f"integrity validation\n"
        f"recorded={recorded}\n"
        f"recomputed={recomputed}\n"
        f"declared_at_acquisition={declared}\n"
        f"verdict={'intact' if verdict_ok else 'MISMATCH'}\n"
    )
    return (ctx.make("integrity.verdict", verdict),)


def _catalog(ctx: StepContext) -> tuple[Artifact, ...]:
    sections = []
    for kind in (
        "fs.listing",
        "carve.results",
        "exif.report",
        "integrity.verdict",
    ):
        artifact = ctx.input(kind)
        sections.append(
            f"== {kind} sha256={artifact.sha256}\n"
            + artifact.content.decode()
        )
    return (ctx.make("evidence.catalog", "\n".join(sections)),)


def _final_report(ctx: StepContext) -> tuple[Artifact, ...]:
    catalog = ctx.input("evidence.catalog")
    profile = ctx.input("media.profile")
    report = (
        "photo recovery case report\n"
        f"subject: {ctx.subject.subject_id}\n"
        f"media profile sha256: {profile.sha256}\n"
        f"catalog sha256: {catalog.sha256}\n"
        f"catalog bytes: {len(catalog.content)}\n"
    )
    return (ctx.make("case.report", report),)


_FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=30.0, multiplier=2.0)


def build_spec() -> WorkflowSpec:
    """The ten-step photo-recovery workflow."""
    return WorkflowSpec(
        name="photo-recovery",
        instruments=(ProcessKind.SEARCH_WARRANT,),
        steps=(
            StepSpec(
                step_id="identify_media",
                title="identify seized media",
                run=_identify_media,
                outputs=("media.profile",),
                sim_cost=30.0,
            ),
            StepSpec(
                step_id="verify_readability",
                title="probe device readability",
                run=_verify_readability,
                inputs=("media.profile",),
                outputs=("media.readability",),
                retry=_FAST_RETRY,
                sim_cost=60.0,
                on_failure=OnFailure.SKIP_WITH_PARTIAL_CONFIDENCE,
            ),
            StepSpec(
                step_id="acquire_image",
                title="image the device under warrant",
                run=_acquire_image,
                inputs=("media.profile",),
                outputs=("image.raw",),
                legal_action=IMAGING_ACTION,
                gate=ProcessKind.SEARCH_WARRANT,
                retry=_FAST_RETRY,
                timeout=7200.0,
                sim_cost=600.0,
            ),
            StepSpec(
                step_id="hash_image",
                title="hash the verified image",
                run=_hash_image,
                inputs=("image.raw",),
                outputs=("image.hashes",),
                sim_cost=120.0,
            ),
            StepSpec(
                step_id="analyze_filesystem",
                title="parse filesystem; recover deleted files",
                run=_analyze_filesystem,
                inputs=("image.raw",),
                outputs=("fs.listing",),
                retry=_FAST_RETRY,
                sim_cost=300.0,
            ),
            StepSpec(
                step_id="carve_unallocated",
                title="carve unallocated space",
                run=_carve_unallocated,
                inputs=("image.raw",),
                outputs=("carve.results",),
                sim_cost=300.0,
            ),
            StepSpec(
                step_id="extract_exif",
                title="extract EXIF metadata",
                run=_extract_exif,
                inputs=("image.raw", "carve.results"),
                outputs=("exif.report",),
                sim_cost=90.0,
                on_failure=OnFailure.SKIP_WITH_PARTIAL_CONFIDENCE,
            ),
            StepSpec(
                step_id="validate_integrity",
                title="validate image integrity",
                run=_validate_integrity,
                inputs=("image.raw", "image.hashes"),
                outputs=("integrity.verdict",),
                sim_cost=60.0,
            ),
            StepSpec(
                step_id="catalog",
                title="catalog the evidence",
                run=_catalog,
                inputs=(
                    "fs.listing",
                    "carve.results",
                    "exif.report",
                    "integrity.verdict",
                ),
                outputs=("evidence.catalog",),
                sim_cost=120.0,
            ),
            StepSpec(
                step_id="final_report",
                title="write the case report",
                run=_final_report,
                inputs=("evidence.catalog", "media.profile"),
                outputs=("case.report",),
                sim_cost=60.0,
                on_failure=OnFailure.ABORT_AND_SUPPRESS,
            ),
        ),
    )


PACK = Pack(
    name="photo-recovery",
    title="seized media → imaging → recovery → cataloged photo evidence",
    build_spec=build_spec,
    build_subject=build_subject,
    source_modules=("repro.workflow.packs.photo_recovery",),
)
