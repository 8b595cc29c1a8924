"""Saving, loading and diffing logical traces.

A determinism library lives or dies by its debugging story: when two
runs that should match do not, you want the traces on disk and the
first divergence located.  The format is JSON-lines with a small
header, so traces from different machines/versions can be compared with
standard tools as well.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.traces import TraceDivergence, first_divergence
from repro.reactors.telemetry import Trace

#: Format marker written in the header line.
FORMAT = "repro-trace-v1"


def save_trace(trace: Trace, path: str | Path) -> int:
    """Write *trace* to *path*; returns the number of records written."""
    path = Path(path)
    records = trace.records
    with path.open("w") as handle:
        header = {
            "format": FORMAT,
            "records": len(records),
            "fingerprint": trace.fingerprint(),
        }
        handle.write(json.dumps(header) + "\n")
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "t": record.tag.time,
                        "m": record.tag.microstep,
                        "k": record.kind,
                        "n": record.name,
                        "v": record.value,
                    }
                )
                + "\n"
            )
    return len(records)


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`.

    The stored fingerprint is verified against the reloaded records, so
    a corrupted or hand-edited file is detected immediately.
    """
    path = Path(path)
    with path.open() as handle:
        header = json.loads(handle.readline())
        if header.get("format") != FORMAT:
            raise ValueError(f"{path} is not a {FORMAT} file")
        trace = Trace()
        for line in handle:
            entry = json.loads(line)
            trace.add_row(entry["t"], entry["m"], entry["k"], entry["n"], entry["v"])
    if trace.fingerprint() != header["fingerprint"]:
        raise ValueError(f"{path}: fingerprint mismatch (file corrupted?)")
    return trace


def diff_trace_files(left: str | Path, right: str | Path) -> TraceDivergence | None:
    """Locate the first divergence between two saved traces."""
    return first_divergence(load_trace(left), load_trace(right))
