"""Deterministic JSON/CSV serialization and matrix-file parsing.

Floats are always rendered with 17 significant digits, so identical inputs
and seeds produce byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import DimensionMismatchError, MatrixParseError


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def matrix_hash(a) -> str:
    """16 hex digits of the SHA-256 of n and the 17-digit real and imaginary
    parts of the entries, row by row: the input's name in result files."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    parts = [f"n={m.shape[0]}"] + [fmt_float(x) for x in m.view(np.float64).ravel().tolist()]
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def dumps(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats.
    Raises ValueError on a non-finite float, before any text is returned."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], depth: int) -> None:
    pad = "  " * depth
    pad1 = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write {float(obj)} as JSON")
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad1 + json.dumps(str(k)) + ": ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad1)
            _emit(v, out, depth + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def complex_obj(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def matrix_obj(m: np.ndarray) -> dict:
    return {
        "n": int(m.shape[0]),
        "rows": [[complex_obj(x) for x in row] for row in np.asarray(m)],
    }


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file: {"n": int, "rows": [[{re, im}, ...], ...]}."""
    return matrix_from_obj(load_json(path), where=path)


def dimension(obj, fields: tuple[str, ...], where: str) -> int:
    """The positive integer field 'n' of an object that must also hold fields."""
    if not isinstance(obj, dict) or not all(f in obj for f in ("n",) + fields):
        names = ", ".join(f"'{f}'" for f in ("n",) + fields)
        raise MatrixParseError(f"{where}: expected an object with fields {names}")
    try:
        n = int(obj["n"])
    except (TypeError, ValueError) as exc:
        raise MatrixParseError(f"{where}: field 'n' must be an integer") from exc
    if n < 1:
        raise MatrixParseError(f"{where}: field 'n' must be positive")
    return n


def vector_from_obj(cells, n: int, where: str) -> np.ndarray:
    """Parse a list of n {re, im} objects with finite numeric parts."""
    if not isinstance(cells, list) or len(cells) != n:
        raise DimensionMismatchError(f"{where}: expected a list of {n} entries")
    out = np.zeros(n, dtype=np.complex128)
    for j, cell in enumerate(cells):
        try:
            re = float(cell["re"])
            im = float(cell["im"])
        except (TypeError, KeyError, ValueError) as exc:
            raise MatrixParseError(
                f"{where}, entry {j}: expected an object with numeric 're' and 'im'"
            ) from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixParseError(f"{where}, entry {j}: entries must be finite")
        out[j] = complex(re, im)
    return out


def matrix_from_obj(obj, where: str = "<matrix>") -> np.ndarray:
    n = dimension(obj, ("rows",), where)
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != n:
        raise DimensionMismatchError(f"{where}: expected {n} rows, got {len(rows) if isinstance(rows, list) else 'none'}")
    return np.array([vector_from_obj(row, n, f"{where}: row {i}") for i, row in enumerate(rows)])


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def boundary_csv(thetas, supports, witnesses) -> str:
    """One boundary sample per line: theta,support,re,im."""
    lines = []
    for th, h, w in zip(thetas, supports, witnesses):
        lines.append(
            f"{fmt_float(th)},{fmt_float(h)},{fmt_float(w.real)},{fmt_float(w.imag)}\n"
        )
    return "".join(lines)
