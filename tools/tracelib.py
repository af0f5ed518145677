"""Shared plumbing for the offline trace tools (trace_check.py,
trace_critpath.py).

Both tools consume the same JSONL stream obs::JsonlTraceRecorder writes:
one meta header line followed by one JSON object per trace event. This
module owns the stream-level concerns so they cannot drift per tool:

  * the known event-kind vocabulary (mirrors obs::EventKind),
  * per-line structural validation with line-numbered errors,
  * trace schema versioning: the meta line's ``"v"`` field must equal
    TRACE_VERSION — a v1 trace (no ``"v"``, no span ids) or a
    future-versioned trace is rejected up front with the offending line
    number instead of producing nonsense span DAGs downstream,
  * bounded streaming: traces are read line-by-line (never slurped), and
    an optional --max-events guard aborts with a clear error instead of
    letting a runaway trace exhaust memory in the accumulating checkers.

Zero dependencies beyond the standard library, like the tools themselves.
"""

from __future__ import annotations

import json
from typing import IO, Iterator, Optional, Tuple

# Schema version of the JSONL traces this tooling understands. Version 2
# (PR 9) added causal span ids (``span``/``parent`` on every transport- or
# protocol-emitted event) and the stall watchdog kinds; version 1 traces
# carry neither and cannot be span-analyzed.
TRACE_VERSION = 2

# Mirrors obs::EventKind: exactly the names kind_name() in src/obs/trace.cpp
# returns (trace_check.py --self-test asserts the equality).
KNOWN_KINDS = {
    "msg_send", "msg_recv", "msg_drop", "msg_dup", "msg_corrupt",
    "crash", "restart",
    "epoch_start", "commit_sent", "commit_accepted", "reveal_sent",
    "contribute_sent", "verify_pass", "verify_fail", "blind_sign_begin",
    "sign_done", "decrypt_begin", "decrypt_done", "done_sign_begin",
    "done_recorded", "retransmit",
    "epoch_install", "epoch_abort", "contribute_cited",
    "stall", "stall_resolved",
}


class TraceError(Exception):
    """A malformed or unsupported trace line (message carries the line no)."""


class TraceLimitError(TraceError):
    """The --max-events guard tripped: the trace is larger than allowed."""


def parse_line(lineno: int, line: str) -> dict:
    """Validate one JSONL line; returns the decoded object.

    Meta lines are version-checked here so every consumer rejects
    mismatched schemas identically and before any event is interpreted.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise TraceError(f"line {lineno}: not valid JSON: {e.msg}")
    if not isinstance(obj, dict):
        raise TraceError(f"line {lineno}: expected a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise TraceError(f"line {lineno}: missing string field 'kind'")
    if kind == "meta":
        version = obj.get("v")
        if version != TRACE_VERSION:
            have = "none (schema v1)" if version is None else repr(version)
            raise TraceError(
                f"line {lineno}: unsupported trace schema version {have} — "
                f"this tool reads v{TRACE_VERSION} traces (re-record with a "
                f"current build)")
        return obj
    if kind not in KNOWN_KINDS:
        raise TraceError(f"line {lineno}: unknown event kind '{kind}'")
    for req in ("ts", "node"):
        if not isinstance(obj.get(req), int):
            raise TraceError(f"line {lineno}: missing integer field '{req}'")
    return obj


def iter_trace(fh: IO[str],
               max_events: Optional[int] = None) -> Iterator[Tuple[int, str]]:
    """Stream (lineno, raw line) pairs from an open JSONL trace.

    Reads line-by-line — memory use is bounded by the caller's own
    accumulation, not the trace size. Parsing is left to the caller (via
    parse_line) so a checker can collect per-line errors and keep going.
    When ``max_events`` is set, exceeding it raises TraceLimitError naming
    both the limit and the line where it tripped.
    """
    seen = 0
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        seen += 1
        if max_events is not None and seen > max_events:
            raise TraceLimitError(
                f"line {lineno}: trace exceeds --max-events={max_events}; "
                f"raise the limit or pre-filter the trace")
        yield lineno, line


def instance_of(ev: dict) -> tuple:
    """(transfer, coordinator, epoch) identity of an instance-scoped event."""
    return (ev.get("transfer"), ev.get("coord"), ev.get("epoch"))
