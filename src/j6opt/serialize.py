"""File formats: instance JSON, per-step trace CSV, and run summary JSON.

Instances are small, so everything is text: JSON numbers round-trip
float64 exactly (shortest-repr serialization, up to 17 significant
digits), traces are plain CSV with LF line endings and ``.`` decimals.
All writers go through a temp-file-plus-rename so readers never observe
partial files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import ProblemInstance, WMode, require_int
from .optimizer import RunResult, TraceRecord
from .strategies import StrategyKind

__all__ = [
    "InstanceFormatError",
    "save_instance",
    "load_instance",
    "write_trace",
    "read_trace",
    "selection_counts",
    "write_summary",
]

FORMAT_VERSION = "1"

_TOP_KEYS = {"V", "d", "T", "H", "W", "y", "w_mode", "v_star", "metadata"}
_META_KEYS = {"seed", "family", "format_version"}


class InstanceFormatError(ValueError):
    """Malformed, truncated, or wrong-version instance file."""


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def save_instance(
    instance: ProblemInstance,
    path: str | Path,
    seed: int | None = None,
    family: str | None = None,
) -> None:
    """Write the instance as JSON; seed/family are provenance metadata."""
    doc = {
        "V": instance.V,
        "d": instance.d,
        "T": instance.T,
        "H": instance.H.tolist(),
        "W": instance.W.tolist(),
        "y": instance.y.tolist(),
        "w_mode": instance.w_mode.value,
        "v_star": instance.v_star,
        "metadata": {
            "seed": seed,
            "family": family,
            "format_version": FORMAT_VERSION,
        },
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _reals(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float64 matrix.  numpy reads a JSON true/false as
    1.0/0.0, so the entries that load as exactly 0 or 1, and only those,
    are checked for a bool in the parsed lists."""
    rows = doc[key]
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim == 2:
        for i, j in np.argwhere((x == 0.0) | (x == 1.0)):
            if isinstance(rows[i][j], bool):
                raise ValueError(f"{key!r} entries must be numbers, got a boolean at [{i}, {j}]")
    return x


def load_instance(path: str | Path) -> ProblemInstance:
    """Parse and validate an instance file (strict: unknown keys rejected)."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"{path}: invalid JSON at byte offset {e.pos}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceFormatError(f"{path}: unknown keys {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise InstanceFormatError(f"{path}: missing keys {sorted(missing)}")
    meta = doc["metadata"]
    if not isinstance(meta, dict):
        raise InstanceFormatError(f"{path}: metadata must be an object")
    meta_unknown = set(meta) - _META_KEYS
    if meta_unknown:
        raise InstanceFormatError(f"{path}: unknown metadata keys {sorted(meta_unknown)}")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise InstanceFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION!r})"
        )
    try:
        w_mode = WMode(doc["w_mode"])
    except ValueError:
        raise InstanceFormatError(f"{path}: unknown w_mode {doc['w_mode']!r}") from None
    try:
        if not isinstance(doc["y"], list):
            raise ValueError("'y' must be a list of integers")
        return ProblemInstance(
            V=doc["V"],
            d=doc["d"],
            T=doc["T"],
            H=_reals(doc, "H"),
            W=_reals(doc, "W"),
            # Each entry checked here: numpy would read [1, true] as [1, 1].
            y=np.asarray([require_int("y", v) for v in doc["y"]], dtype=np.int64),
            w_mode=w_mode,
            v_star=doc["v_star"],
        )
    except (OverflowError, TypeError, ValueError) as e:  # e.g. "H": {}, "y": [2**70]
        raise InstanceFormatError(f"{path}: {e}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def trace_header(kind: StrategyKind, n_scores: int) -> list[str]:
    header = ["step", "ob1", "ob2", "entropy", "n11", "n12", "n21", "n22"]
    header += [f"s{i}" for i in range(n_scores)]
    if StrategyKind(kind) is StrategyKind.SOFT:
        header += [f"a{i}" for i in range(6)]
    else:
        header += ["decision"]
    header += ["dh_norm", "dw_norm"]
    return header


def _trace_row(record: TraceRecord, kind: StrategyKind) -> list[str]:
    row = [
        str(record.step),
        _fmt(record.ob1),
        _fmt(record.ob2),
        _fmt(record.entropy),
        _fmt(record.n11),
        _fmt(record.n12),
        _fmt(record.n21),
        _fmt(record.n22),
    ]
    row += [_fmt(s) for s in record.scores]
    if StrategyKind(kind) is StrategyKind.SOFT:
        row += [_fmt(a) for a in record.alpha]
    else:
        # Baselines make no routing decision; -1 marks that explicitly.
        row += [str(record.chosen_index if record.chosen_index is not None else -1)]
    row += [_fmt(record.dh_norm), _fmt(record.dw_norm)]
    return row


def write_trace(result: RunResult, path: str | Path, kind: StrategyKind) -> None:
    """One CSV row per executed step; header-only when the trace is empty."""
    kind = StrategyKind(kind)
    n_scores = 15 if kind is StrategyKind.HARD_JPLUS else 6
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(trace_header(kind, n_scores))
    for record in result.trace:
        writer.writerow(_trace_row(record, kind))
    _atomic_write(path, buf.getvalue())


def read_trace(path: str | Path) -> tuple[list[str], list[dict]]:
    """Parse a trace CSV back into typed rows (ints for step/decision,
    floats elsewhere)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        fields = list(reader.fieldnames or [])
        rows = []
        for raw in reader:
            row = {}
            for key, value in raw.items():
                row[key] = int(value) if key in ("step", "decision") else float(value)
            rows.append(row)
    return fields, rows


def selection_counts(result: RunResult) -> dict[str, int]:
    """Per-slot selection histogram: chosen index for hard strategies,
    argmax weight for soft; empty for the unrouted baselines."""
    counts: Counter[int] = Counter()
    for record in result.trace:
        if record.chosen_index is not None:
            counts[record.chosen_index] += 1
        elif record.alpha is not None:
            counts[int(np.argmax(record.alpha))] += 1
    return {str(k): counts[k] for k in sorted(counts)}


def write_summary(named_results: Sequence[tuple[str, RunResult]], path: str | Path) -> None:
    """Aggregate finals and the role-attribution histogram per run."""
    doc = {
        "format_version": FORMAT_VERSION,
        "runs": [
            {
                "name": name,
                "final_ob1": result.objectives.ob1,
                "final_ob2": result.objectives.ob2,
                "stop_reason": result.stop_reason.value,
                "steps": len(result.trace),
                "selection_counts": selection_counts(result),
            }
            for name, result in named_results
        ],
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")
