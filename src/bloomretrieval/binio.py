"""Little-endian binary layout shared by every persisted file.

`Reader` holds every loader to one set of rules: a read past the end raises
`TruncatedFileError`; bytes left over at `end()`, text that is not UTF-8,
text offsets that decrease, and a NaN or Inf read by `finite`, raise
`DataFormatError`.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagicError, DataFormatError, DuplicateIdError, TruncatedFileError

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
            raise BadMagicError(f"bad {what} magic {bytes(blob[:len(magic)])!r}")

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
        head = self._skip(2)
        start = self._skip(self.blob[head] | self.blob[head + 1] << 8)
        try:
            return self.blob[start:self.off].decode("utf-8")
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

    def entries(self, count: int, size: int) -> tuple[list[str], list[str], list[int]]:
        """`count` entries, each an id and a label (`text`) and then `size`
        bytes: (their ids, their labels, the offsets of those bytes), read
        front to back. An id met twice raises `DuplicateIdError` before
        anything after it is read, so it wins over a later truncation."""
        ids, labels, starts = [], [], []
        seen = set()
        for _ in range(count):
            rid = self.text()
            labels.append(self.text())
            if rid in seen:
                raise DuplicateIdError(f"duplicate record id {rid!r}")
            seen.add(rid)
            ids.append(rid)
            starts.append(self._skip(size))
        return ids, labels, starts

    def _not_utf8(self, exc: UnicodeDecodeError) -> DataFormatError:
        return DataFormatError(f"{self.what}: text is not UTF-8 ({exc.reason})")

    def finite(self, count: int) -> np.ndarray:
        """The next `count` float32 values as a new float64 array, checked for
        a NaN or Inf before widening: widening a signalling NaN makes numpy warn."""
        x = self.array("<f4", count)
        if not np.isfinite(x).all():
            raise DataFormatError(f"{self.what} holds a NaN or Inf")
        return x.astype(np.float64)

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


def id_label_heads(records) -> list[bytes]:
    """Each record's id and then its label, as u16-length-prefixed UTF-8
    (the layout `Reader.text` reads), one bytes object a record. Raises
    `too_long` for the first record whose id, or else whose label, is too
    long for its prefix."""
    heads = []
    for rec in records:
        rid = rec.id.encode("utf-8")
        if len(rid) > MAX_TEXT:
            raise too_long(rec.id, "id", len(rid))
        lab = rec.label.encode("utf-8")
        if len(lab) > MAX_TEXT:
            raise too_long(rec.id, "label", len(lab))
        heads.append(len(rid).to_bytes(2, "little") + rid + len(lab).to_bytes(2, "little") + lab)
    return heads
