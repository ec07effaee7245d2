"""File formats: instance JSON, per-step trace CSV, run summary JSON and
sweep CSV.

Instances are small, so everything is text: JSON numbers round-trip
float64 exactly (shortest-repr serialization, up to 17 significant
digits), the CSV files are plain CSV with LF line endings and ``.``
decimals.  Their every value is a float's or an int's repr or a fixed
name, which never needs CSV quoting, so each row is one join.
The JSON files are exactly ``json.dumps(doc, indent=2)`` plus a newline,
written by ``_json`` (which never runs json's pure-Python encoder).
Files go out as streams of chunks, a trace one line at a time and a
matrix a block of rows at a time straight from its array, so neither is
ever held whole as text.  All writers go through a
temp-file-plus-rename so readers never observe partial files.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import ProblemInstance, WMode, require_int
from .optimizer import RunResult
from .probgen import FAMILY_VERSIONS, Family, _family_version
from .strategies import StrategyKind

__all__ = [
    "InstanceFormatError",
    "save_instance",
    "load_instance",
    "write_trace",
    "write_summary",
]

# The summary's format.
FORMAT_VERSION = "1"

_TOP_KEYS = {"V", "d", "T", "H", "W", "y", "w_mode", "v_star", "metadata"}
_META_KEYS = {"seed", "family", "format_version"}
# An instance file's format is the family version it records: a conflict
# family's version, else 1.  Format "1" records no version, as before
# versions existed; a later format also holds metadata.family_version.
_FORMATS = {str(v): v for v in FAMILY_VERSIONS}
_VERSIONED = {Family.CONFLICTING.value, Family.ROLE_SWAP.value}


class InstanceFormatError(ValueError):
    """Malformed, truncated, or wrong-version instance file."""


def _atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` to ``path`` through ``path.tmp``
    and a rename.  A write that fails midway, in the chunks or in the
    file system, leaves ``path`` as it was and removes the temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_NUMBER_TYPES = {int, float}
# A matrix is written in chunks of whole rows of about this many numbers.
_CHUNK_NUMBERS = 1024


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``'s text for a document of dicts with
    string keys, lists and JSON scalars, at nesting ``indent``.

    With ``indent`` set, json encodes through pure-Python generators, one
    frame per value.  Here keys and scalars go through ``json.dumps``
    without ``indent``, which runs in C, and a list of ints and floats is
    one join of their reprs: json spells a number as its repr, except
    nan and the infinities (the only reprs with an "n"), which fall back.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{body}\n{indent}}}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    body = sep.join(map(repr, value)) if set(map(type, value)) <= _NUMBER_TYPES else None
    if body is None or "n" in body:
        body = sep.join(_json(v, inner) for v in value)
    return f"[\n{inner}{body}\n{indent}]"


def _json_chunks(doc: dict) -> Iterator[str]:
    """``_json(doc)`` plus a newline, in chunks: each matrix (a non-empty
    2-D array) goes out in blocks of rows of about ``_CHUNK_NUMBERS``
    numbers, read from the array, so neither the text nor a nested list
    of the whole matrix exists at once; the other values join the next
    chunk."""
    text, sep = "{", "\n  "
    for key, value in doc.items():
        text += f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if isinstance(value, np.ndarray):
            step, opener = max(1, _CHUNK_NUMBERS // value.shape[1]), "["
            for first in range(0, len(value), step):
                block = value[first:first + step].tolist()
                rows = ",\n    ".join(_json(row, "    ") for row in block)
                yield f"{text}{opener}\n    {rows}"
                text, opener = "", ","
            text = "\n  ]"
        else:
            text += _json(value, "  ")
    yield text + "\n}\n"


def save_instance(
    instance: ProblemInstance,
    path: str | Path,
    seed: int | None = None,
    family: str | None = None,
) -> None:
    """Write the instance as JSON, H and W a block of rows at a time;
    seed and family are provenance metadata.  A conflict family's file
    also records the instance's family version, as its format; version 1
    (also when the instance's is unknown) is format "1", which records no
    version."""
    meta = {"seed": seed, "family": family}
    version = instance.family_version if family in _VERSIONED else None
    if version is not None and _family_version(version) > 1:
        meta["family_version"] = version
    meta["format_version"] = str(meta.get("family_version", 1))
    doc = {
        "V": instance.V,
        "d": instance.d,
        "T": instance.T,
        "H": instance.H,
        "W": instance.W,
        "y": instance.y.tolist(),
        "w_mode": instance.w_mode.value,
        "v_star": instance.v_star,
        "metadata": meta,
    }
    _atomic_write(path, _json_chunks(doc))


def _reals(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float64 array of JSON numbers.  numpy would read a
    string such as "7.5" as 7.5 and true/false as 1.0/0.0, so each entry
    it may have read that way (every entry of a matrix that is not
    numeric, else those equal to 0 or 1) is checked in the parsed lists."""
    rows = doc[key]
    x = np.asarray(rows)
    if x.ndim == 2:
        numeric = x.dtype.kind in "if"
        for i, j in np.argwhere((x == 0) | (x == 1)) if numeric else np.ndindex(x.shape):
            v = rows[i][j]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{key!r} entries must be numbers, got {v!r} at [{i}, {j}]")
    return np.asarray(x, dtype=np.float64)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, rejecting a repeated key (json.loads would
    keep the last value)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _no_constant(token: str) -> None:
    """Reject json's non-standard NaN, Infinity and -Infinity tokens."""
    raise InstanceFormatError(f"non-standard JSON constant {token!r}")


def load_instance(path: str | Path) -> ProblemInstance:
    """Parse and validate an instance file (strict: unknown keys rejected)."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"{path}: invalid JSON at byte offset {e.pos}: {e.msg}"
        ) from None
    except InstanceFormatError as e:
        raise InstanceFormatError(f"{path}: {e}") from None
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
    version = meta.get("format_version")
    if not isinstance(version, str) or version not in _FORMATS:
        raise InstanceFormatError(f"{path}: unsupported format_version {version!r} "
                                  f"(expected one of {list(_FORMATS)})")
    family_version = _FORMATS[version]
    meta_unknown = set(meta) - _META_KEYS - ({"family_version"} if family_version > 1 else set())
    if meta_unknown:
        raise InstanceFormatError(f"{path}: unknown metadata keys {sorted(meta_unknown)} "
                                  f"in format_version {version!r}")
    if family_version > 1:
        if "family_version" not in meta:
            raise InstanceFormatError(
                f"{path}: format_version {version!r} needs metadata family_version")
        recorded = meta["family_version"]
        if type(recorded) is not int or recorded != family_version:  # bools are not ints here
            raise InstanceFormatError(f"{path}: metadata family_version must be "
                                      f"{family_version} in format_version {version!r}, "
                                      f"got {recorded!r}")
    seed, family = meta.get("seed"), meta.get("family")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or not 0 <= seed < 2**64):
        raise InstanceFormatError(
            f"{path}: metadata seed must be null or an integer in [0, 2**64), got {seed!r}"
        )
    families = [f.value for f in Family]
    if family is not None and family not in families:
        raise InstanceFormatError(
            f"{path}: metadata family must be null or one of {families}, got {family!r}"
        )
    if family_version > 1 and family not in _VERSIONED:
        raise InstanceFormatError(
            f"{path}: format_version {version!r} needs a conflict family, got {family!r}")
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
            family_version=family_version if family in _VERSIONED else None,
        )
    except (OverflowError, TypeError, ValueError) as e:  # e.g. "H": {}, "y": [2**70]
        raise InstanceFormatError(f"{path}: {e}") from None


def trace_header(kind: StrategyKind, n_scores: int) -> list[str]:
    header = ["step", "ob1", "ob2", "entropy", "n11", "n12", "n21", "n22"]
    header += [f"s{i}" for i in range(n_scores)]
    if StrategyKind(kind) is StrategyKind.SOFT:
        header += [f"a{i}" for i in range(6)]
    else:
        header += ["decision"]
    header += ["dh_norm", "dw_norm"]
    return header


def write_trace(result: RunResult, path: str | Path, kind: StrategyKind) -> None:
    """One CSV row per executed step; header-only when the trace is empty.
    Its entropy column is -ob2."""
    _atomic_write(path, _trace_lines(result, StrategyKind(kind)))


def _trace_lines(result: RunResult, kind: StrategyKind) -> Iterator[str]:
    """``write_trace``'s text, one line at a time."""
    soft = kind is StrategyKind.SOFT
    yield ",".join(trace_header(kind, 15 if kind is StrategyKind.HARD_JPLUS else 6)) + "\n"
    for r in result.trace:
        # Baselines make no routing decision; -1 marks that explicitly.
        routed = r.alpha.tolist() if soft else [-1 if r.chosen_index is None else r.chosen_index]
        # float() keeps the repr of a numpy scalar a plain float's
        yield ",".join(map(repr, [
            r.step, float(r.ob1), float(r.ob2), -float(r.ob2), float(r.n11), float(r.n12),
            float(r.n21), float(r.n22), *r.scores.tolist(), *routed,
            float(r.dh_norm), float(r.dw_norm)])) + "\n"


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
    _atomic_write(path, _json_chunks(doc))


def write_sweep(param: str, swept: Sequence[tuple[float, RunResult]], path: str | Path,
                kind: StrategyKind) -> None:
    """One CSV row per swept value of ``param``, with its run's finals;
    ``alpha_max`` is a soft run's largest first-step weight, else empty.
    The file is one chunk: it holds a row per value, not per step."""
    soft = StrategyKind(kind) is StrategyKind.SOFT
    lines = ["param,value,final_ob1,final_ob2,stop_reason,steps,alpha_max"]
    for value, result in swept:
        alpha_max = repr(float(result.trace[0].alpha.max())) if soft and result.trace else ""
        lines.append(",".join([param, repr(value), repr(result.objectives.ob1),
                               repr(result.objectives.ob2), result.stop_reason.value,
                               str(len(result.trace)), alpha_max]))
    _atomic_write(path, ["\n".join(lines) + "\n"])
