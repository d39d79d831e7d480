"""Storage substrate: block devices, filesystems, hashing, carving, mail.

Provides the at-rest world of the paper: seizable drives with recoverable
deleted files (scene 18 and section III.A.1(c)), signature carving, and a
mail store implementing the SCA's per-message provider-role lifecycle
(section III.A.3).
"""

from repro.storage.blockdev import BlockDevice, image_device
from repro.storage.carving import (
    DEFAULT_SIGNATURES,
    CarvedFile,
    FileSignature,
    carve,
)
from repro.storage.examiner import (
    ExaminationReport,
    ForensicExaminer,
    TimelineEvent,
    TimelineEventKind,
)
from repro.storage.filesystem import (
    FilesystemError,
    Inode,
    SimpleFilesystem,
)
from repro.storage.hashing import KnownFileSet, sha256_hex
from repro.storage.mailstore import MailProvider, Message

__all__ = [
    "BlockDevice",
    "CarvedFile",
    "DEFAULT_SIGNATURES",
    "ExaminationReport",
    "FileSignature",
    "FilesystemError",
    "ForensicExaminer",
    "Inode",
    "KnownFileSet",
    "MailProvider",
    "Message",
    "SimpleFilesystem",
    "TimelineEvent",
    "TimelineEventKind",
    "carve",
    "image_device",
    "sha256_hex",
]
