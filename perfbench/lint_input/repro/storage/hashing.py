"""File hashing and known-file sets.

The substrate for Table 1 scene 18 (Crist): hash every file on a drive and
compare against a known-contraband hash set.  Also provides the integrity
digests used by imaging and chain-of-custody checks.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable


def sha256_hex(data: bytes | str) -> str:
    """Hex SHA-256 of bytes or text."""
    raw = data.encode() if isinstance(data, str) else data
    return hashlib.sha256(raw).hexdigest()


class KnownFileSet:
    """A set of known-file hashes (e.g. the NCMEC-style contraband list).

    Example::

        known = KnownFileSet.from_contents(["bad-picture-bytes"])
        known.contains_hash(sha256_hex("bad-picture-bytes"))  # True
    """

    def __init__(self, label: str = "known-files") -> None:
        self.label = label
        self._hashes: set[str] = set()

    @classmethod
    def from_contents(
        cls, contents: Iterable[bytes | str], label: str = "known-files"
    ) -> "KnownFileSet":
        """Build a set from raw file contents."""
        known = cls(label)
        for item in contents:
            known.add_content(item)
        return known

    def add_hash(self, digest: str) -> None:
        """Register a known hash (lowercased hex)."""
        self._hashes.add(digest.lower())

    def add_content(self, data: bytes | str) -> str:
        """Hash content and register it; returns the digest."""
        digest = sha256_hex(data)
        self.add_hash(digest)
        return digest

    def contains_hash(self, digest: str) -> bool:
        """Whether a digest is in the set."""
        return digest.lower() in self._hashes

    def contains_content(self, data: bytes | str) -> bool:
        """Whether content's hash is in the set."""
        return self.contains_hash(sha256_hex(data))

    def __len__(self) -> int:
        return len(self._hashes)

    def __contains__(self, digest: str) -> bool:
        return self.contains_hash(digest)
