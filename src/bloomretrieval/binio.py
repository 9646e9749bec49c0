"""Little-endian binary layout shared by every persisted file.

`Reader` holds every loader to one set of rules: a read past the end raises
`TruncatedFileError`; bytes left over at `end()`, text that is not UTF-8,
text offsets that decrease, and a NaN or Inf read by `finite`, raise
`DataFormatError`.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagicError, DataFormatError, TruncatedFileError

# the most UTF-8 bytes an id or label may hold: what a u16 length prefix counts
MAX_TEXT = 0xFFFF


class Reader:
    """Reads `blob` front to back, after its leading `magic` bytes; `what`
    names the file in error messages."""

    def __init__(self, blob: bytes, what: str, magic: bytes = b""):
        self.blob = blob
        self.off = 0
        self.what = what
        if self.take(len(magic)) != magic:
            raise BadMagicError(f"bad {what} magic {blob[:len(magic)]!r}")

    def _skip(self, n: int) -> int:
        """Claim the next n bytes; returns their offset."""
        start = self.off
        self.off = start + n
        if self.off > len(self.blob):
            raise TruncatedFileError(f"{self.what} truncated")
        return start

    def take(self, n: int) -> bytes:
        return self.blob[self._skip(n):self.off]

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.blob, self._skip(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """The next `count` values of `dtype`, as a read-only view of the blob."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.blob, dtype, count, self._skip(dtype.itemsize * count))

    def text(self) -> str:
        """A u16 byte count, then that many bytes of UTF-8."""
        n = int.from_bytes(self.take(2), "little")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._not_utf8(exc) from None

    def texts(self, ends: np.ndarray) -> list[str]:
        """One blob of UTF-8 texts as long as the last of `ends`, split at
        those end offsets."""
        if np.any(ends[1:] < ends[:-1]):
            raise DataFormatError(f"{self.what}: text offsets decrease")
        ends = ends.tolist()
        blob = self.take(ends[-1] if ends else 0)
        try:
            return [blob[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
        except UnicodeDecodeError as exc:
            raise self._not_utf8(exc) from None

    def _not_utf8(self, exc: UnicodeDecodeError) -> DataFormatError:
        return DataFormatError(f"{self.what}: text is not UTF-8 ({exc.reason})")

    def floats(self, count: int, dtype=np.float64) -> np.ndarray:
        """The next `count` float32 values, as a new array of `dtype`."""
        return np.frombuffer(self.blob, "<f4", count, self._skip(4 * count)).astype(dtype)

    def finite(self, count: int) -> np.ndarray:
        """`floats`, none of which may be a NaN or Inf."""
        x = self.floats(count)
        if not np.isfinite(x).all():
            raise DataFormatError(f"{self.what} holds a NaN or Inf")
        return x

    def end(self) -> None:
        if self.off != len(self.blob):
            raise DataFormatError(f"{self.what}: trailing bytes after the last field")


def too_long(rid: str, name: str, nbytes: int) -> DataFormatError:
    """The error for an id or label of more than `MAX_TEXT` UTF-8 bytes,
    naming the record."""
    return DataFormatError(
        f"record {rid[:40]!r}: {name} is {nbytes} UTF-8 bytes, more than the "
        f"{MAX_TEXT} an id or label may hold"
    )


def pack_id_label(record) -> bytes:
    """A record's id and label, each as u16-length-prefixed UTF-8 (the layout
    `Reader.text` reads), as the feature file holds them. Raises
    `too_long` when either is too long for its prefix."""
    packed = b""
    for name, text in (("id", record.id), ("label", record.label)):
        data = text.encode("utf-8")
        if len(data) > MAX_TEXT:
            raise too_long(record.id, name, len(data))
        packed += struct.pack("<H", len(data)) + data
    return packed
