"""Signature-based file carving from raw device bytes.

Carving ignores the filesystem entirely: it scans the raw block stream for
known header/footer signatures and cuts out whatever lies between.  This is
how examiners recover files whose metadata is gone — including files the
filesystem's own recovery can no longer see.
"""

from __future__ import annotations

import dataclasses

from repro.storage.blockdev import BlockDevice


@dataclasses.dataclass(frozen=True)
class FileSignature:
    """A carvable file type: a header magic and a footer magic.

    The simulator writes "files" as text, so signatures are byte strings
    like ``b"JPEG["`` / ``b"]GEPJ"`` rather than real magic numbers; the
    carving algorithm is the real one (linear scan, nested-match safe).
    """

    name: str
    header: bytes
    footer: bytes

    def __post_init__(self) -> None:
        if not self.header or not self.footer:
            raise ValueError("header and footer must be non-empty")


#: Signatures used across the examples and tests.
DEFAULT_SIGNATURES: tuple[FileSignature, ...] = (
    FileSignature(name="jpeg", header=b"JPEG[", footer=b"]GEPJ"),
    FileSignature(name="pdf", header=b"PDF[", footer=b"]FDP"),
    FileSignature(name="zip", header=b"ZIP[", footer=b"]PIZ"),
)


@dataclasses.dataclass(frozen=True)
class CarvedFile:
    """One carved artifact: where it was found and what it contained."""

    signature: str
    start_offset: int
    end_offset: int
    contents: bytes


def carve(
    device: BlockDevice,
    signatures: tuple[FileSignature, ...] = DEFAULT_SIGNATURES,
) -> list[CarvedFile]:
    """Scan a device's raw bytes and carve every signature match.

    Args:
        device: The device (or image) to scan.
        signatures: File types to look for.

    Returns:
        Carved files ordered by start offset.  Contents *include* the
        header and footer so carved artifacts hash consistently.
    """
    raw = device.raw_bytes()
    carved: list[CarvedFile] = []
    for signature in signatures:
        position = 0
        while True:
            start = raw.find(signature.header, position)
            if start == -1:
                break
            end = raw.find(signature.footer, start + len(signature.header))
            if end == -1:
                break
            end_offset = end + len(signature.footer)
            carved.append(
                CarvedFile(
                    signature=signature.name,
                    start_offset=start,
                    end_offset=end_offset,
                    contents=raw[start:end_offset],
                )
            )
            position = end_offset
    carved.sort(key=lambda item: item.start_offset)
    return carved
