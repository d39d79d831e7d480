"""A simple inode filesystem with forensically realistic deletion.

Deleting a file removes its directory entry and frees its blocks but does
*not* erase the data — exactly the property that makes deleted-file
recovery possible ("It is also good for investigators to recover the
deleted files", paper section III.A.1(c)).  Recovery succeeds until the
freed blocks are reused by later writes.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.storage.blockdev import BlockDevice


@dataclasses.dataclass
class Inode:
    """File metadata: block list, logical size, and lifecycle state."""

    inode_id: int
    name: str
    blocks: list[int]
    size: int
    created_at: float
    deleted: bool = False
    deleted_at: float | None = None


class FilesystemError(Exception):
    """Raised for filesystem misuse (missing files, full device, ...)."""


class SimpleFilesystem:
    """A flat (directory-less) filesystem over a :class:`BlockDevice`.

    Block allocation is first-fit over a free list; freed blocks return to
    the pool and are reused oldest-first, so recently deleted files tend
    to survive until space pressure reclaims them — matching the real
    forensic picture.
    """

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self._inodes: dict[str, Inode] = {}
        self._deleted: list[Inode] = []
        self._free: list[int] = list(range(device.n_blocks))
        self._ids = itertools.count(1)
        self._clock = itertools.count(0)

    # -- queries ----------------------------------------------------------------

    def list_files(self) -> list[str]:
        """Names of live (non-deleted) files."""
        return sorted(self._inodes)

    def exists(self, name: str) -> bool:
        """Whether a live file with this name exists."""
        return name in self._inodes

    @property
    def free_blocks(self) -> int:
        """Number of unallocated blocks."""
        return len(self._free)

    # -- mutation ----------------------------------------------------------------

    def write_file(self, name: str, contents: bytes | str) -> Inode:
        """Create or replace a file.

        Raises:
            FilesystemError: If the device lacks space.
        """
        data = contents.encode() if isinstance(contents, str) else contents
        if name in self._inodes:
            self.delete_file(name)
        block_size = self.device.block_size
        needed = max(1, -(-len(data) // block_size))
        if needed > len(self._free):
            raise FilesystemError(
                f"no space: need {needed} blocks, {len(self._free)} free"
            )
        blocks = [self._free.pop(0) for _ in range(needed)]
        for offset, block_index in enumerate(blocks):
            chunk = data[offset * block_size : (offset + 1) * block_size]
            # Partial writes preserve slack space: bytes past the new
            # file's logical end keep prior (possibly deleted) content,
            # which signature carving can still recover.
            self.device.write_partial(block_index, chunk)
        inode = Inode(
            inode_id=next(self._ids),
            name=name,
            blocks=blocks,
            size=len(data),
            created_at=float(next(self._clock)),
        )
        self._inodes[name] = inode
        return inode

    def read_file(self, name: str) -> bytes:
        """Read a live file's contents.

        Raises:
            FilesystemError: If no such live file exists.
        """
        inode = self._inodes.get(name)
        if inode is None:
            raise FilesystemError(f"no such file: {name!r}")
        return self._read_inode(inode)

    def delete_file(self, name: str) -> None:
        """Delete a file: unlink it and free (but do not erase) its blocks.

        Raises:
            FilesystemError: If no such live file exists.
        """
        inode = self._inodes.pop(name, None)
        if inode is None:
            raise FilesystemError(f"no such file: {name!r}")
        inode.deleted = True
        inode.deleted_at = float(next(self._clock))
        self._free.extend(inode.blocks)
        self._deleted.append(inode)

    # -- forensics ----------------------------------------------------------------

    def recover_deleted(self) -> dict[str, bytes]:
        """Recover deleted files whose blocks have not been reused.

        Returns:
            Mapping of original file name to recovered contents, for every
            deleted file all of whose blocks still hold its data.
        """
        live_blocks = {
            index
            for inode in self._inodes.values()
            for index in inode.blocks
        }
        recovered: dict[str, bytes] = {}
        # Later-deleted files win name collisions; iterate oldest first.
        for inode in self._deleted:
            if any(index in live_blocks for index in inode.blocks):
                continue
            if self._blocks_overwritten(inode):
                continue
            recovered[inode.name] = self._read_inode(inode)
        return recovered

    def _blocks_overwritten(self, inode: Inode) -> bool:
        """Whether another *deleted* file reused these blocks afterwards."""
        for other in self._deleted:
            if other is inode or other.created_at <= inode.deleted_at:
                continue
            if set(other.blocks) & set(inode.blocks):
                return True
        return False

    def _read_inode(self, inode: Inode) -> bytes:
        data = b"".join(
            self.device.read_block(index) for index in inode.blocks
        )
        return data[: inode.size]

    def all_contents(self, include_deleted: bool = True) -> dict[str, bytes]:
        """Everything an exhaustive examiner can extract from the media.

        Live files plus (optionally) recoverable deleted files — the
        "search entire hard drive" of Table 1 scene 18.
        """
        contents = {name: self.read_file(name) for name in self._inodes}
        if include_deleted:
            for name, data in self.recover_deleted().items():
                contents.setdefault(f"(deleted) {name}", data)
        return contents
