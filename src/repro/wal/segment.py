"""Record framing for WAL segments: length + CRC32 + JSON body.

One record per committed changefeed event, laid out as::

    <8 hex chars: body length> <8 hex chars: CRC-32 of body> <body> \\n

The body is one compact JSON object (no raw newlines — ``json.dumps``
escapes them), so a segment doubles as a greppable JSONL file with a
17-byte-per-line framing overhead.  The fixed-width hex header makes
the reader deterministic: it never searches for delimiters, it knows
exactly how many bytes the next record occupies, and any disagreement
between header, CRC and body is an integrity failure at a known byte
offset.

The reader draws exactly one distinction (see :func:`read_segment`):

- an **incomplete** record at the end of the **last** segment is a
  *torn tail* — the only thing a crash mid-append can produce, since
  appends write a valid record front-to-back and a partial write is a
  strict prefix, its header lowercase hex — and is silently dropped
  (the commit was never acknowledged);
- any other failure — a CRC mismatch, a header that is not lowercase
  hex (the writer's ``%08x``), bytes *after* the failed record, or any
  failure in a sealed segment — cannot be explained by a crash and
  raises
  :class:`~repro.errors.WalCorruptionError` naming the segment and
  offset.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass

from repro.errors import WalCorruptionError

#: Bytes of framing per record: 8 hex length + 8 hex CRC + trailing \n.
FRAME_OVERHEAD = 17

#: Header width (length + CRC, both 8 hex chars).
_HEADER = 16

#: What a header, or the prefix of one a crash left, may hold.
_HEX = re.compile(rb"[0-9a-f]*")


def encode_record(payload: dict) -> bytes:
    """Frame one JSON-safe record payload for appending to a segment."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    header = f"{len(body):08x}{zlib.crc32(body) & 0xFFFFFFFF:08x}"
    return header.encode("ascii") + body + b"\n"


@dataclass(frozen=True)
class TornTail:
    """Where a segment's undecodable tail starts (and why it failed)."""

    offset: int
    reason: str


def read_segment(
    data: bytes, name: str, last: bool
) -> tuple[list[tuple[int, dict]], TornTail | None]:
    """Decode every record in one segment's bytes.

    Returns ``(records, torn)`` where ``records`` is a list of
    ``(byte_offset, payload)`` pairs and ``torn`` describes an
    undecodable tail.  ``last`` selects the tail policy: in the last
    segment of the log an *incomplete* trailing record is the torn
    record of the fatal crash (report it for truncation).  Everything
    else — a complete-but-wrong record (CRC flip, bad JSON), an
    incomplete record mid-file, or any failure in a sealed segment —
    is interior corruption a crash cannot explain and raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    records: list[tuple[int, dict]] = []
    pos = 0
    size = len(data)
    while pos < size:
        decoded = _try_decode(data, pos)
        if isinstance(decoded, str):
            # A crash tears by writing a strict prefix of one valid
            # record at EOF; only an incomplete record that exhausts
            # the data qualifies as that tear.
            incomplete = decoded.startswith("incomplete")
            if last and incomplete:
                return records, TornTail(offset=pos, reason=decoded)
            raise WalCorruptionError(
                f"segment {name} is corrupt at byte {pos}: {decoded}",
                segment=name,
                offset=pos,
            )
        records.append((pos, decoded))
        pos += _HEADER + int(data[pos:pos + 8], 16) + 1
    return records, None


def _try_decode(data: bytes, pos: int) -> dict | str:
    """The payload of the record at ``pos``, or why it cannot be decoded."""
    header = data[pos:pos + _HEADER]
    if _HEX.fullmatch(header) is None:
        return "non-hex header"
    if len(header) < _HEADER:
        return f"incomplete header ({len(header)} of {_HEADER} bytes)"
    length = int(header[:8], 16)
    crc = int(header[8:], 16)
    end = pos + _HEADER + length
    if end + 1 > len(data):
        return (
            f"incomplete body ({len(data) - pos - _HEADER} of "
            f"{length}+1 bytes)"
        )
    if data[end:end + 1] != b"\n":
        return "missing record terminator"
    body = data[pos + _HEADER:end]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return "CRC mismatch"
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        return f"body is not valid JSON ({exc})"
    if not isinstance(payload, dict):
        return f"body is not an object ({type(payload).__name__})"
    return payload
