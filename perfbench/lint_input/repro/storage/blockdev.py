"""Block devices and forensic imaging.

A :class:`BlockDevice` is a flat array of fixed-size blocks, the substrate
under :mod:`repro.storage.filesystem`.  :func:`image_device` produces the
bit-for-bit copy the paper's section III.A.2(b) discusses (imaging a target
drive for off-site examination), and device hashing supports the
chain-of-custody integrity checks in :mod:`repro.evidence`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.faults.errors import StorageFault, TransientReadError
from repro.faults.plan import FaultKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector


class BlockDevice:
    """A fixed-geometry block device storing bytes.

    Args:
        n_blocks: Number of blocks.
        block_size: Bytes per block.
        injector: Optional fault injector; reads may then fail
            transiently (``STORAGE_READ_ERROR``) or return silently
            corrupted data once (``STORAGE_BIT_ROT``).  Both faults are
            read-side only: the stored bytes are never mutated, so a
            re-read can recover the true contents — which is why imaging
            verifies hashes and re-reads rather than trusting one pass.
    """

    def __init__(
        self,
        n_blocks: int = 1024,
        block_size: int = 512,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if n_blocks <= 0 or block_size <= 0:
            raise ValueError("device geometry must be positive")
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.injector = injector
        self._blocks: list[bytes] = [b"\x00" * block_size] * n_blocks
        self.reads = 0
        self.writes = 0
        self.read_errors = 0
        self.corrupted_reads = 0

    @property
    def capacity(self) -> int:
        """Total capacity in bytes."""
        return self.n_blocks * self.block_size

    def read_block(self, index: int) -> bytes:
        """Read one block.

        Raises:
            IndexError: On an out-of-range block index.
            TransientReadError: If an injected read fault fires; the
                underlying data is unharmed and a re-read may succeed.
        """
        self._check(index)
        self.reads += 1
        if self.injector is not None:
            target = f"blockdev:{index}"
            if self.injector.fires(
                FaultKind.STORAGE_READ_ERROR, target=target
            ):
                self.read_errors += 1
                raise TransientReadError(
                    f"read error at block {index}",
                    kind=FaultKind.STORAGE_READ_ERROR,
                    target=target,
                )
            if self.injector.fires(FaultKind.STORAGE_BIT_ROT, target=target):
                self.corrupted_reads += 1
                block = bytearray(self._blocks[index])
                block[0] ^= 0x01
                return bytes(block)
        return self._blocks[index]

    def write_block(self, index: int, data: bytes) -> None:
        """Write one block, zero-padding short data.

        Raises:
            IndexError: On an out-of-range block index.
            ValueError: If ``data`` exceeds the block size.
        """
        self._check(index)
        if len(data) > self.block_size:
            raise ValueError(
                f"data ({len(data)} bytes) exceeds block size "
                f"({self.block_size})"
            )
        self.writes += 1
        self._blocks[index] = data.ljust(self.block_size, b"\x00")

    def write_partial(self, index: int, data: bytes) -> None:
        """Overwrite only the block's prefix, preserving the tail.

        This is how real filesystems write: the bytes past the logical
        end of the new data keep whatever was there before — **slack
        space** — which is why fragments of deleted files survive inside
        newer, smaller files and remain carvable.

        Raises:
            IndexError: On an out-of-range block index.
            ValueError: If ``data`` exceeds the block size.
        """
        self._check(index)
        if len(data) > self.block_size:
            raise ValueError(
                f"data ({len(data)} bytes) exceeds block size "
                f"({self.block_size})"
            )
        self.writes += 1
        old = self._blocks[index]
        self._blocks[index] = data + old[len(data):]

    def _check(self, index: int) -> None:
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block {index} out of range 0..{self.n_blocks - 1}")

    def raw_bytes(self) -> bytes:
        """The entire device contents as one byte string."""
        return b"".join(self._blocks)

    def sha256(self) -> str:
        """Hex digest of the whole device (imaging integrity check)."""
        return hashlib.sha256(self.raw_bytes()).hexdigest()


def image_device(
    source: BlockDevice, max_attempts: int = 3
) -> BlockDevice:
    """Produce a bit-for-bit forensic image of a device, verified.

    Blocks are read through the device's public read path, so injected
    read errors and bit-rot hit the imaging process like they would a
    real write-blocker.  Each block gets up to ``max_attempts`` reads on
    transient errors; after the pass the whole image's SHA-256 is checked
    against the source and, on a mismatch (silent corruption), the image
    is re-read from scratch.  Callers should still record both hashes in
    the chain of custody.

    Raises:
        StorageFault: If a verified image could not be produced within
            ``max_attempts`` passes.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
    expected = source.sha256()
    for _attempt in range(max_attempts):
        copy = BlockDevice(
            n_blocks=source.n_blocks, block_size=source.block_size
        )
        try:
            for index in range(source.n_blocks):
                copy._blocks[index] = _read_with_retry(
                    source, index, max_attempts
                )
        except TransientReadError:
            continue
        if copy.sha256() == expected:
            return copy
    raise StorageFault(
        f"imaging failed: no verified image within {max_attempts} passes",
        kind=FaultKind.STORAGE_BIT_ROT,
        target="blockdev:image",
    )


def _read_with_retry(
    source: BlockDevice, index: int, max_attempts: int
) -> bytes:
    """Read one block, retrying transient errors up to ``max_attempts``."""
    for attempt in range(max_attempts):
        try:
            return source.read_block(index)
        except TransientReadError:
            if attempt == max_attempts - 1:
                raise
    raise AssertionError("unreachable: loop returns or raises")
