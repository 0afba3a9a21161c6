"""File formats: tree JSON, leaf-function/weight CSV, sweep CSV and fit
JSON.

CSV files are plain numeric, comma-separated, no header except the sweep
CSV (fixed column order). Floats are written with repr, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json

import numpy as np

from .experiments import SweepRecord
from .filtration import build_from_tree, nest_preorder
from .linalg import ValidationError
from .weights import MatrixWeight, as_weight


def tree_to_spec(space):
    """Nested {"mass", "children"} description reproducing the space
    (persisting atoms become single-child chains).

    Every atom of every level is a node. The nodes that start at one leaf
    form a chain of first children, from the shallowest level down, so the
    preorder sorts the atoms by start and then by level."""
    starts = space.tiled_starts % space.n_leaves
    levels = np.repeat(np.arange(space.depth + 1), np.diff(space.atom_base))
    order = np.lexsort((levels, starts))
    return nest_preorder(levels[order].tolist(),
                         space.tiled_atom_probs[order].tolist())


def save_tree(path, space):
    with open(path, "w") as fh:
        json.dump(tree_to_spec(space), fh, indent=1)
        fh.write("\n")


@contextlib.contextmanager
def _open_text(path, **kw):
    """``open(path, **kw)`` for reading; a file that is not text raises
    ValidationError naming it."""
    try:
        with open(path, **kw) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not a text file (byte {exc.start}: {exc.reason})"
        ) from None


def load_tree(path):
    with _open_text(path) as fh:
        return build_from_tree(json.load(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _cell(path, row, column, text, kind=float):
    """The CSV cell ``text`` as ``kind``; a cell that is not one raises
    ValidationError naming the file, its row and its column."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{path}: row {row}, column {column}: {text!r} is not "
            f"{'an integer' if kind is int else 'a number'}") from None


def _read_rows(path):
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [[_cell(path, reader.line_num, col, v)
                 for col, v in enumerate(row, 1)] for row in reader if row]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"{path}: ragged or empty CSV")
    return np.array(rows)


def save_function_csv(path, values):
    """One row per leaf, d columns."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    _write_rows(path, arr)


def load_function_csv(path):
    """The (L, d) leaf function of a CSV with one row per leaf."""
    return _read_rows(path)


def save_weight_csv(path, W):
    """d^2 columns per leaf, row-major matrix entries."""
    W = as_weight(W)
    _write_rows(path, W.mats.reshape(W.n_leaves, -1))


def load_weight_csv(path):
    arr = _read_rows(path)
    d = int(round(arr.shape[1] ** 0.5))
    if d * d != arr.shape[1]:
        raise ValidationError(
            f"{path}: {arr.shape[1]} columns is not a squared dimension")
    return MatrixWeight(arr.reshape(arr.shape[0], d, d))


def write_sweep_csv(path, records):
    """Deterministic sweep CSV: fixed column order, repr-formatted floats,
    no timing column."""
    fields = SweepRecord.CSV_FIELDS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            row = []
            for name in fields:
                val = getattr(rec, name)
                if isinstance(val, bool):
                    row.append("true" if val else "false")
                elif isinstance(val, float):
                    row.append(repr(val))
                else:
                    row.append(str(val))
            writer.writerow(row)


def read_sweep_csv(path, columns=()):
    """The rows of a sweep CSV as dicts with typed cells. A header that
    lacks one of ``columns``, the columns the caller reads, raises
    ValidationError naming the file and the missing columns."""
    with _open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if header and missing:
            raise ValidationError(
                f"{path}: the sweep CSV header has no column "
                f"{', '.join(map(repr, missing))}")
        rows = []
        for raw in reader:
            row = dict(raw)
            for key in ("p", "alpha", "eps", "ap_char", "ratio"):
                if key in row:
                    row[key] = _cell(path, reader.line_num, repr(key),
                                     row[key])
            for key in ("d", "depth", "iterations", "restarts"):
                if key in row:
                    row[key] = _cell(path, reader.line_num, repr(key),
                                     row[key], int)
            if "converged" in row:
                row["converged"] = row["converged"] == "true"
            rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: empty sweep CSV")
    return rows


def write_fit_json(path, fit):
    with open(path, "w") as fh:
        json.dump({k: fit[k] for k in ("slope", "intercept", "stderr", "n")},
                  fh, sort_keys=True)
        fh.write("\n")
