"""Plain-text persistence for mixed social networks.

Format: a header line ``# nodes=<n>`` followed by one tie per line,
``<u>\t<v>\t<kind>`` with ``kind`` one of ``d`` (directed, true
orientation), ``b`` (bidirectional, canonical pair) or ``u`` (undirected,
canonical pair).  ``#`` starts a comment that runs to the end of the
line; the header may sit in any whole-line comment (the last one wins).
Blank lines, CRLF endings and whitespace around fields are accepted,
and fields may be separated by any run of tabs or spaces.  The full
grammar and error taxonomy are in ``docs/graph_storage.md``.

Both directions are array-native: :func:`read_tie_list` parses the body
with numpy's C tokenizer (``np.loadtxt``) and :func:`write_tie_list`
formats every tie in one vectorised pass, so neither holds a Python
object per tie.
"""

from __future__ import annotations

import os
import re
import warnings
from pathlib import Path

import numpy as np

from ..obs.trace import span
from .mixed_graph import GraphValidationError, MixedSocialNetwork, TieKind

_KIND_CODES = {
    "d": TieKind.DIRECTED,
    "b": TieKind.BIDIRECTIONAL,
    "u": TieKind.UNDIRECTED,
}

#: Row layout handed to ``np.loadtxt``.  ``S2`` is wide enough to tell
#: a one-letter code from anything longer: whitespace splitting leaves
#: no padding inside the field, so every bad kind keeps a second byte.
_ROW_DTYPE = np.dtype([("uv", np.int64, (2,)), ("kind", "S2")])
#: A ``#`` that may open a ``nodes=`` header; whether it starts a
#: whole-line comment is checked per match, not per line.  The leading
#: literal ``#`` (not ``#+``) lets the regex engine skip ahead to each
#: ``#`` instead of trying every byte of the file.
_HEADER = re.compile(rb"##*[\t ]*nodes=([^\r\n]*)")
#: An integer field as numpy's tokenizer accepts it.
_INT_FIELD = re.compile(r"[+-]?[0-9]+")


def write_tie_list(network: MixedSocialNetwork, path: str | os.PathLike) -> None:
    """Write a network to ``path`` in the tie-list format."""
    classes = [network.social_ties(kind) for kind in _KIND_CODES.values()]
    pairs = np.concatenate(classes).astype(np.int64)
    codes = np.repeat(
        np.frombuffer("".join(_KIND_CODES).encode(), dtype=np.uint8),
        [len(ties) for ties in classes],
    )
    if len(pairs) and pairs.min() < 0:
        raise GraphValidationError("cannot write negative node ids")
    with open(path, "wb") as handle:
        handle.write(f"# nodes={network.n_nodes}\n".encode())
        handle.write(_format_rows(pairs, codes))


def _format_rows(pairs: np.ndarray, codes: np.ndarray) -> bytes:
    """``u\\tv\\tcode\\n`` for every row, as one ASCII buffer.

    Each row becomes a fixed-width byte row whose non-negative ids are
    right-aligned in ``width`` digit cells with NUL in place of leading
    zeros; dropping every NUL from the row-major buffer leaves exactly
    the concatenated lines.
    """
    width = len(str(int(pairs.max()))) if len(pairs) else 1
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    rows = np.zeros((len(pairs), 2 * width + 4), dtype=np.uint8)
    for col, at in ((0, 0), (1, width + 1)):
        ids = pairs[:, col, None]
        cells = rows[:, at : at + width]
        cells[...] = ids // powers % 10 + ord("0")
        cells[(ids < powers) & (powers > 1)] = 0
    rows[:, width] = rows[:, 2 * width + 1] = ord("\t")
    rows[:, 2 * width + 2] = codes
    rows[:, 2 * width + 3] = ord("\n")
    return rows[rows != 0].tobytes()


def read_tie_list(path: str | os.PathLike) -> MixedSocialNetwork:
    """Read a network previously written by :func:`write_tie_list`."""
    with span("graph.build", source=str(path)) as sp:
        network = _read(Path(path))
        sp.set(n_nodes=network.n_nodes, n_ties=network.n_ties)
        return network


def _read(path: Path) -> MixedSocialNetwork:
    # Reading the bytes first also pins ``path`` to a local file before
    # numpy's loader, which would fetch URLs and unpack archives.
    data = path.read_bytes()
    try:
        with warnings.catch_warnings():
            # A header-only file is a valid (if empty) body; the empty
            # E_d is reported by the network's own validation.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, dtype=_ROW_DTYPE, comments="#", ndmin=1)
    except ValueError as exc:
        raise _locate_error(path) or GraphValidationError(
            f"{path}: unparseable tie list: {exc}"
        ) from exc
    masks = [rows["kind"] == code.encode() for code in _KIND_CODES]
    if not np.logical_or.reduce(masks).all():
        raise _locate_error(path) or GraphValidationError(
            f"{path}: unknown tie kind"
        )
    n_nodes = _header_nodes(data)
    if n_nodes is None:
        raise GraphValidationError("missing '# nodes=<n>' header")
    directed, bidirectional, undirected = (rows["uv"][mask] for mask in masks)
    return MixedSocialNetwork.from_arrays(
        n_nodes, directed, bidirectional, undirected
    )


def _header_nodes(data: bytes) -> int | None:
    """``n`` of the last whole-line ``# nodes=<n>`` comment, if any."""
    n_nodes = None
    for match in _HEADER.finditer(data):
        line_start = data.rfind(b"\n", 0, match.start()) + 1
        if data[line_start : match.start()].strip():
            continue  # a trailing comment after data, not a header
        try:
            n_nodes = int(match.group(1))
        except ValueError:
            lineno = data.count(b"\n", 0, match.start()) + 1
            raise GraphValidationError(
                f"line {lineno}: expected '# nodes=<n>', got "
                f"{data[line_start:match.end()].decode(errors='replace')!r}"
            ) from None
    return n_nodes


def _locate_error(path: Path) -> GraphValidationError | None:
    """The first malformed line's error, by physical line number.

    Error path only: ``np.loadtxt`` counts data rows, not lines, so a
    rejected file is re-scanned once with the same grammar to name the
    offending line.
    """
    with open(path, errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 3 or not all(
                _INT_FIELD.fullmatch(field) for field in fields[:2]
            ):
                return GraphValidationError(
                    f"line {lineno}: expected '<u>\\t<v>\\t<kind>', "
                    f"got {line.strip()!r}"
                )
            if fields[2] not in _KIND_CODES:
                return GraphValidationError(
                    f"line {lineno}: unknown tie kind {fields[2]!r}"
                )
    return None
