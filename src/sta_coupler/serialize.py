"""CSV / JSON output with round-trip-exact floats and provenance.

Every writer takes a path, or ``"-"`` for standard output."""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .sweep import SweepResult

__all__ = ["format_float", "write_csv", "write_json", "sweep_payload"]


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


def sweep_payload(result: SweepResult) -> dict:
    return {
        "axes": {
            "x": {"name": result.provenance.get("axis_x", {}).get("name", "x"),
                  "values": np.asarray(result.x_values).tolist()},
            "y": {"name": result.provenance.get("axis_y", {}).get("name", "y"),
                  "values": np.asarray(result.y_values).tolist()},
        },
        "grid": np.asarray(result.grid).tolist(),
    }


def write_sweep_csv(path: str | Path, result: SweepResult) -> None:
    """Grid as CSV: header row carries the x-axis samples, first column
    the y-axis samples."""
    x_name = result.provenance.get("axis_x", {}).get("name", "x")
    y_name = result.provenance.get("axis_y", {}).get("name", "y")
    header = [f"{y_name}\\{x_name}"] + [format_float(x) for x in result.x_values]
    write_csv(path, header, ([y, *row] for y, row in zip(result.y_values, result.grid)))
