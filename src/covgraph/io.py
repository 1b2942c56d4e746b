"""File formats: data tables, moment files, graphs, families, matrices."""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .graphs import CovarianceGraph, _content_lines, parse_family_text, parse_graph_text
from .model import ModelError, SampleStats, is_pos_def, stats_from_moments

__all__ = [
    "InputError",
    "load_data",
    "load_stats",
    "load_graph",
    "load_family",
    "load_matrix",
    "write_matrix",
    "format_matrix",
]


class InputError(ValueError):
    """Malformed input file; the message carries file and position."""


def _read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | os.PathLike, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str | os.PathLike) -> None:
    """Raise ``_write_text``'s ``InputError`` now if ``path`` cannot be opened for writing.

    The file is opened for appending, so one that exists keeps its
    contents, and one that the check made is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    if not existed:
        os.remove(path)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _split_row(line: str, delimiter: str | None) -> list[str]:
    if delimiter is None:
        line = line.replace(",", " ").replace(";", " ").replace("\t", " ")
        return line.split()
    return [tok.strip() for tok in line.split(delimiter)]


def _numeric_table(path: str | os.PathLike, rows: list[tuple[int, list[str]]], what: str) -> np.ndarray:
    """``rows`` of (line number, cells) as one float array; ragged rows and bad cells cite their line."""
    width = len(rows[0][1])
    for lineno, toks in rows:
        if len(toks) != width:
            raise InputError(
                f"{path}:{lineno}: ragged {what}, expected {width} values, found {len(toks)}"
            )
    try:
        # numpy parses each cell with Python's float(), so this equals a
        # cell-by-cell conversion; only a failure is re-scanned for its cell.
        return np.array([toks for _, toks in rows], dtype=float)
    except ValueError:
        for lineno, toks in rows:
            for c, tok in enumerate(toks):
                if not _is_number(tok):
                    raise InputError(
                        f"{path}:{lineno}: non-numeric cell {tok!r} in column {c + 1}"
                    ) from None
        raise


def load_data(
    path: str | os.PathLike,
    delimiter: str | None = None,
    header: str = "auto",
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a delimited numeric table; returns (array, column labels).

    ``header`` is 'auto' (label row detected when the first row is not
    numeric), 'yes', or 'no'; the labels are None without one.  Ragged
    rows and non-numeric cells are reported with their line and column.
    """
    if delimiter == "":
        raise InputError("delimiter must not be empty")
    rows = [(lineno, _split_row(line, delimiter)) for lineno, line in _content_lines(_read_text(path))]
    if not rows:
        raise InputError(f"{path}: file holds no data rows")
    labels: tuple[str, ...] | None = None
    first_tokens = rows[0][1]
    has_header = header == "yes" or (header == "auto" and not all(_is_number(t) for t in first_tokens))
    if has_header:
        labels = tuple(first_tokens)
        rows = rows[1:]
        if not rows:
            raise InputError(f"{path}: header present but no data rows")
    data = _numeric_table(path, rows, "row")
    if labels is not None and len(labels) != data.shape[1]:
        raise InputError(f"{path}: header has {len(labels)} labels for {data.shape[1]} columns")
    return data, labels


def load_stats(path: str | os.PathLike) -> SampleStats:
    """Read sample size, standard deviations, and correlations.

    Format, one block per keyword::

        n 134
        vars A B C
        sd 1.0 2.0 0.5
        corr
        0.30
        0.10 -0.20

    The ``corr`` block lists the strict lower triangle row by row (row
    k has k entries), and each keyword comes once.  The covariance is
    rebuilt as r_ij sd_i sd_j and must come out positive definite.
    """
    n = None
    labels: tuple[str, ...] | None = None
    sds: np.ndarray | None = None
    corr_rows: list[tuple[int, list[str]]] = []
    in_corr = False
    first: dict[str, int] = {}  # the line of each keyword read so far
    for lineno, line in _content_lines(_read_text(path)):
        toks = line.split()
        key = toks[0].lower()
        if key in first:
            raise InputError(f"{path}:{lineno}: second {key!r} line (the first is line {first[key]})")
        if not in_corr:
            first[key] = lineno
            if key == "n":
                if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()):
                    raise InputError(f"{path}:{lineno}: expected 'n <count>'")
                n = int(toks[1])
            elif key == "vars":
                labels = tuple(toks[1:])
            elif key == "sd":
                try:
                    sds = np.array([float(t) for t in toks[1:]])
                except ValueError:
                    raise InputError(f"{path}:{lineno}: non-numeric standard deviation") from None
            elif key == "corr":
                in_corr = True
            else:
                raise InputError(f"{path}:{lineno}: unknown keyword {toks[0]!r}")
        else:
            corr_rows.append((lineno, toks))
    if n is None or labels is None or sds is None:
        raise InputError(f"{path}: stats file needs 'n', 'vars', 'sd', and 'corr' blocks")
    p = len(labels)
    if sds.shape != (p,):
        raise InputError(f"{path}: expected {p} standard deviations, found {sds.size}")
    if np.any(sds <= 0):
        raise InputError(f"{path}: standard deviations must be positive")
    if len(corr_rows) != p - 1:
        raise InputError(
            f"{path}: correlation block needs {p - 1} rows, found {len(corr_rows)}"
        )
    corr = np.eye(p)
    for k, (lineno, toks) in enumerate(corr_rows, start=1):
        if len(toks) != k:
            raise InputError(
                f"{path}:{lineno}: correlation row {k} needs {k} entries, found {len(toks)}"
            )
        for c, tok in enumerate(toks):
            try:
                r = float(tok)
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric correlation {tok!r}") from None
            if abs(r) > 1.0:
                raise InputError(
                    f"{path}:{lineno}: correlation between {labels[k]} and {labels[c]} "
                    f"is {r}, outside [-1, 1]"
                )
            corr[k, c] = corr[c, k] = r
    s = corr * np.outer(sds, sds)
    if not is_pos_def(s):
        raise InputError(f"{path}: reconstructed covariance is not positive definite")
    try:
        return stats_from_moments(n=n, s=s, labels=labels)
    except ModelError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_graph(path: str | os.PathLike) -> CovarianceGraph:
    return parse_graph_text(_read_text(path), source=str(path))


def load_family(path: str | os.PathLike, g: CovarianceGraph) -> tuple[tuple[str, ...], ...]:
    return parse_family_text(_read_text(path), g, source=str(path))


def format_matrix(
    m: np.ndarray, labels: Sequence[str] | None = None, digits: int | None = None
) -> str:
    """Tab-delimited matrix text; 17 significant digits by default.

    The default precision round-trips doubles exactly; ``digits``
    switches to fixed-point for human-readable tables.  Labels go on a
    ``#labels`` line so purely numeric label sets stay unambiguous.
    The numbers are written by one ``%`` format of a repeated row
    template, ``%.17g`` or ``%.<digits>f``, which formats each float
    as ``format`` does.
    """
    m = np.asarray(m, dtype=float)
    fmt = "%.17g" if digits is None else f"%.{digits}f"
    head = "" if labels is None else "#labels\t" + "\t".join(labels) + "\n"
    row = "\t".join([fmt] * m.shape[1]) + "\n"
    return head + (row * m.shape[0]) % tuple(m.ravel().tolist())


def write_matrix(
    path: str | os.PathLike,
    m: np.ndarray,
    labels: Sequence[str] | None = None,
    digits: int | None = None,
) -> None:
    """Write ``format_matrix``'s text to ``path``."""
    _write_text(path, format_matrix(m, labels, digits))


def load_matrix(path: str | os.PathLike) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """Read a square matrix written by :func:`write_matrix`; labels optional.

    Accepts either a ``#labels`` line or a bare non-numeric header row.
    A ``#labels`` line after the first matrix row, or a second one, is
    rejected with its line number.
    """
    text = _read_text(path)
    rows = [(lineno, line.split()) for lineno, line in _content_lines(text)]
    label_lines = [
        (lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip().startswith("#labels")
    ]
    labels = None
    if label_lines:
        lineno, raw = label_lines[0]
        if rows and rows[0][0] < lineno:
            raise InputError(f"{path}:{lineno}: #labels line after the first matrix row (line {rows[0][0]})")
        if len(label_lines) > 1:
            raise InputError(f"{path}:{label_lines[1][0]}: second #labels line (the first is line {lineno})")
        labels = tuple(raw.split()[1:])
    if not rows:
        raise InputError(f"{path}: no matrix content")
    if labels is None and not all(_is_number(t) for t in rows[0][1]):
        labels = tuple(rows[0][1])
        rows = rows[1:]
    if not rows:
        raise InputError(f"{path}: header without matrix rows")
    width = len(rows[0][1])
    if len(rows) != width:
        raise InputError(f"{path}: matrix has {len(rows)} rows and {width} columns, not square")
    m = _numeric_table(path, rows, "matrix row")
    if labels is not None and len(labels) != width:
        raise InputError(f"{path}: label count does not match matrix width")
    return labels, m
