"""CSV / JSON output with round-trip-exact floats and provenance.

Every writer takes a path, or ``"-"`` for standard output."""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from . import __version__

__all__ = ["format_float", "write_csv", "write_json"]


def format_float(x: float) -> str:
    # 17 significant digits round-trips every IEEE double exactly.
    return f"{float(x):.17g}"


@contextmanager
def _open_output(path: str | Path, **kwargs) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", **kwargs) as fh:
            yield fh


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[float]]) -> None:
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) for v in row])


def _provenance(inputs: dict) -> dict:
    return {"artifact_version": __version__, "inputs": inputs}


def write_json(path: str | Path, payload: dict, inputs: dict) -> None:
    doc = dict(payload)
    doc["provenance"] = _provenance(inputs)
    with _open_output(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
