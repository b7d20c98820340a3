"""File formats: state tables, count grids, reports, frequency inputs.

Each output has three forms: table (aligned text), records (JSON lines,
one object per state, grid cell or report) and csv (with a header row).
One schema lists a state's fields in order, with typed values: index, k,
i, rep_row1, rep_row2, m (row-major canonical matrix), d (as "num/K^2"),
n_distinct, stabilizer_size, is_symmetric, row_equiv, row_equal and,
given frequencies, probability. One renderer writes these, the count
grid and the key/value reports (expectation, prevalence) under two cell
conventions. In records and the state and grid csv, booleans are
true/false and an exact value (d, a rational probability or report
value) is an "a/b" string plus a name_float companion field. In the
table forms and the key/value csv, booleans are yes/no and an exact
value is its "a/b" text alone, with no companion column. Floats have 12
significant digits. The records and csv forms of a state table parse
back losslessly, and parsing accepts exactly what the writer writes: a
table is rebuilt from its matrices and probabilities and must write back
to the same bytes, so a blank line, CRLF line ends, reordered keys, an
unreduced fraction or a field that disagrees with its matrix is a
ValueError.

Frequency input files are UTF-8, comma- or tab-delimited, with an
optional ``object_id,p[,q]`` header, told by its second cell ``p``;
values are decimals or "a/b" rationals. A missing q column means q = p.
Auto mode is decided once over both columns.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from operator import attrgetter
from typing import TYPE_CHECKING

from .core import DissimilarityValue, Value
from .enumeration import IdentityState, StateMatrix

# json and probability are imported by the functions that use them, so a
# request that writes neither records nor reads frequencies loads neither
if TYPE_CHECKING:
    from .probability import FrequencyVector


def format_exact(x) -> str:
    """Exact value as "a/b", or a plain integer when the denominator is 1."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_float(x) -> str:
    return f"{float(x):.12g}"


def rounded_float(x) -> float:
    """Float squeezed through the 12-significant-digit print format."""
    return float(format_float(x))


# Largest decimal exponent read; the same as Python's digit limit on the
# integers of an "a/b" literal.
MAX_DECIMAL_EXPONENT = 4300

# A decimal literal with an exponent, in the form Fraction() reads it.
_EXPONENT_LITERAL = re.compile(
    r"[-+]?(?=\d|\.\d)[\d_]*(?:\.[\d_]*)?[eE]([-+]?[\d_]+)"
)


def _check_exponent(token: str):
    """Reject a decimal literal whose exponent is beyond MAX_DECIMAL_EXPONENT.

    Fraction() expands the exponent into a full integer before any range
    check could run; 1e10000000 takes seconds.
    """
    match = _EXPONENT_LITERAL.fullmatch(token.strip())
    digits = match.group(1).replace("_", "").lstrip("-+0") if match else ""
    if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            or int(digits or 0) > MAX_DECIMAL_EXPONENT):
        raise ValueError(
            f"decimal exponent out of range (limit {MAX_DECIMAL_EXPONENT}): "
            f"{token.strip()!r}"
        )


def parse_number(token: str, exact: bool):
    """One numeric token: "a/b", decimal, or integer."""
    token = token.strip()
    _check_exponent(token)
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {token!r}")
    if value < 0:
        raise ValueError(f"negative value: {token!r}")
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"too large for a float: {token!r}")


class StateTable(Value):
    """A state catalog plus optional per-state probabilities.

    draw_size and n_objects are read from the states' matrices, which must
    all have the same (K, I). The probabilities, one per state, are all
    Fractions (exact) or all floats; exact is read from them. Its fields
    are lists, so it has no hash.
    """

    __slots__ = ("draw_size", "n_objects", "states", "probabilities")

    def __init__(self, states: list[IdentityState], probabilities: list | None = None):
        sizes = {(m.draw_size, m.n_objects)
                 for m in map(attrgetter("canonical_matrix"), states)}
        if len(sizes) != 1:
            raise ValueError("a state table needs states of one (K, I), got "
                             + (", ".join(map(str, sorted(sizes))) or "none"))
        if probabilities is not None and len(probabilities) != len(states):
            raise ValueError(f"a state table needs one probability per state: "
                             f"{len(probabilities)} for {len(states)} states")
        self._fill(*sizes.pop(), states, probabilities)

    @property
    def exact(self) -> bool:
        """False when any probability is a float."""
        return not any(isinstance(x, float) for x in self.probabilities or ())


# The two cell conventions (module docstring), as (true text, false text).
_TRUE_FALSE = ("true", "false")
_YES_NO = ("yes", "no")


def _cell(value, booleans: tuple[str, str]) -> str:
    """The one cell renderer: a typed value as its table or csv text."""
    kind = type(value)
    if kind is tuple:  # counts; an int's repr is its str, and cheaper to call
        return " ".join(map(repr, value))
    if kind is bool:
        return booleans[0] if value else booleans[1]
    if kind is float:
        return format_float(value)
    if kind is Fraction:
        return format_exact(value)
    return str(value)


def _json_record(fields) -> dict:
    """The one JSON-record rule: an exact value gives its "a/b" text plus a
    name_float companion, a float is rounded to 12 significant digits."""
    rec = {}
    for name, value in fields:
        kind = type(value)
        if kind is Fraction or kind is DissimilarityValue:
            rec[name] = _cell(value, _TRUE_FALSE)
            rec[name + "_float"] = rounded_float(value)
        elif kind is float:
            rec[name] = rounded_float(value)
        else:
            rec[name] = value
    return rec


def _align(rows, right: bool = False) -> list[str]:
    """The one column aligner: columns two spaces apart, trailing spaces
    stripped; all left-justified, or all but the first right-justified."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    pads = [str.ljust] + [str.rjust if right else str.ljust] * (len(widths) - 1)
    return ["  ".join([pad(cell, w) for pad, cell, w in zip(pads, row, widths)]).rstrip()
            for row in rows]


def _write(fmt: str, records, table, csv_rows=None) -> str:
    """The one dispatch on the output form. table() and records() are called
    only for the forms that use them; csv is the records' cells (true/false)
    under their keys, or csv_rows when given, each row its cells joined by
    commas. No cell holds a comma, quote or newline, so none is quoted."""
    if fmt == "table":
        return table()
    if fmt == "records":
        import json

        # json.dumps's encoder without its reference-cycle check: records are flat
        encode = json.JSONEncoder(check_circular=False).encode
        return "\n".join(map(encode, records())) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if csv_rows is None:
        recs = records()
        csv_rows = [list(recs[0]),
                    *([_cell(v, _TRUE_FALSE) for v in rec.values()] for rec in recs)]
    return "".join(",".join(row) + "\n" for row in csv_rows)


def _state_fields(table: StateTable, idx: int) -> dict[str, object]:
    """The one schema: state idx's fields, in order, with their typed values."""
    state = table.states[idx]
    row1, row2 = state.representative
    fields = {
        "index": idx, "k": table.draw_size, "i": table.n_objects,
        "rep_row1": row1, "rep_row2": row2,
        "m": state.canonical_matrix.flattened, "d": state.dissimilarity,
        "n_distinct": state.n_distinct, "stabilizer_size": state.stabilizer_size,
        "is_symmetric": state.is_symmetric, "row_equiv": state.row_equiv,
        "row_equal": state.row_equal,
    }
    if table.probabilities is not None:
        fields["probability"] = table.probabilities[idx]
    return fields


def state_records(table: StateTable) -> list[dict]:
    return [_json_record(_state_fields(table, idx).items())
            for idx in range(len(table.states))]


# The text table's heading for each state field it shows, in column order.
_TEXT_HEADINGS = {
    "index": "index", "rep_row1": "row1", "rep_row2": "row2", "d": "D",
    "n_distinct": "N", "stabilizer_size": "stab", "is_symmetric": "sym",
    "row_equiv": "row~", "row_equal": "row=", "probability": "probability",
    "m": "M(row-major)",
}


def write_state_text(table: StateTable) -> str:
    shown = [name for name in _TEXT_HEADINGS
             if name != "probability" or table.probabilities is not None]
    rows = [[_TEXT_HEADINGS[name] for name in shown]]
    for idx in range(len(table.states)):
        fields = _state_fields(table, idx)
        rows.append([_cell(fields[name], _YES_NO) for name in shown])
    header = (f"# identity states\n# draw_size={table.draw_size} "
              f"n_objects={table.n_objects} states={len(table.states)}")
    return "\n".join([header, *_align(rows)]) + "\n"


def write_state_table(table: StateTable, fmt: str) -> str:
    return _write(fmt, lambda: state_records(table), lambda: write_state_text(table))


def _parse_state_table(text: str, fmt: str) -> StateTable:
    """The table whose fmt form is exactly text. Only each record's m and
    probability are read; the rest is derived from the matrices, and the
    table must write back to text byte for byte. The writer quotes no csv
    cell, so a csv line splits at its commas."""
    lines = text.splitlines()
    try:
        if fmt == "records":
            import json

            records = [json.loads(line) for line in lines]
        else:
            header, *rows = [line.split(",") for line in lines] or [[]]
            records = [dict(zip(header, row)) for row in rows]
        first = records[0] if records else {}
        has_prob = "probability" in first
        exact = not has_prob or "probability_float" in first
        states, probs = [], []
        for rec in records:
            cells = map(int, rec["m"].split()) if fmt == "csv" else rec["m"]
            states.append(IdentityState(StateMatrix(cells)))
            if has_prob:
                probs.append(parse_number(str(rec["probability"]), exact))
        table = StateTable(states, probs if has_prob else None)
        written = write_state_table(table, fmt).split("\n")
    except (LookupError, TypeError, OverflowError, RecursionError) as err:
        raise ValueError(f"malformed state table: {err!r}") from None
    for number, (got, want) in enumerate(zip_longest(text.split("\n"), written), 1):
        if got != want:
            raise ValueError(f"line {number} differs from the writer's: {got!r:.80}")
    return table


def parse_state_records(text: str) -> StateTable:
    return _parse_state_table(text, "records")


def parse_state_csv(text: str) -> StateTable:
    return _parse_state_table(text, "csv")


def parse_frequency_values(p_tokens, q_tokens=None, mode: str = "auto"):
    """Parse columns of frequency tokens into FrequencyVectors (p, q).

    q is p when q_tokens is None. Auto mode is decided once over both
    columns: "float" when any token is a decimal, that is, holds ".", "e"
    or "E" (Fraction's only decimal markers), and "rational" otherwise.
    """
    from .probability import FrequencyVector

    if mode == "auto":
        tokens = [*p_tokens, *(q_tokens or ())]
        exact = not any(marker in t for t in tokens for marker in ".eE")
    elif mode in ("rational", "float"):
        exact = mode == "rational"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p = FrequencyVector(tuple(parse_number(t, exact) for t in p_tokens), exact)
    if q_tokens is None:
        return p, p
    return p, FrequencyVector(tuple(parse_number(t, exact) for t in q_tokens), exact)


def parse_frequency_file(
    path, mode: str = "auto"
) -> tuple[FrequencyVector, FrequencyVector]:
    """Read (p, q) from a delimited file; a missing q column means q = p."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    delim = "\t" if lines and "\t" in lines[0] else ","
    rows = [ln.split(delim) for ln in lines]
    # optional header object_id,p[,q]: any other first row is data
    if rows and len(rows[0]) >= 2 and rows[0][1].strip() == "p":
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arity = len(rows[0])
    if arity not in (2, 3):
        raise ValueError(f"{path}: expected 2 or 3 columns, found {arity}")
    seen_ids = set()
    p_tokens, q_tokens = [], []
    for row in rows:
        if len(row) != arity:
            raise ValueError(f"{path}: ragged row {row!r}")
        obj = row[0].strip()
        if obj in seen_ids:
            raise ValueError(f"{path}: duplicate object_id {obj!r}")
        seen_ids.add(obj)
        p_tokens.append(row[1])
        if arity == 3:
            q_tokens.append(row[2])
    return parse_frequency_values(p_tokens, q_tokens if arity == 3 else None, mode)


def write_count_grid(counts: dict[tuple[int, int], int], fmt: str,
                     paper_layout: bool = False) -> str:
    """Identity-state count grid; rows are object counts, columns draw sizes.

    counts needs the cells (K, I <= 2K) for K = 1..K_max, its largest K; a
    missing one is a ValueError. A cell with 2K < I <= 2*K_max repeats the
    plateau value at (K, 2K): it is marked '*' (text) or plateau
    (records/csv), or blanked/omitted under paper_layout.
    """
    max_draw_size = max((k for k, _ in counts), default=0)
    if max_draw_size < 1:
        raise ValueError("a count grid needs at least one cell with K >= 1")
    ks = range(1, max_draw_size + 1)
    i_range = range(1, 2 * max_draw_size + 1)
    try:
        grid = {(k, i): counts[k, min(i, 2 * k)] for i in i_range for k in ks}
    except KeyError as err:
        raise ValueError(f"count grid lacks the cell (K, I) = {err.args[0]}") from None

    def records():
        return [{"k": k, "i": i, "count": grid[k, i], "plateau": i > 2 * k}
                for i in i_range for k in ks if not (paper_layout and i > 2 * k)]

    def cell(k, i):
        if i <= 2 * k:
            return str(grid[k, i])
        return "" if paper_layout else f"{grid[k, i]}*"

    def table():
        lines = ["# identity-state counts (rows: object count I, columns: draw size K)"]
        if not paper_layout:
            lines.append("# '*' marks cells repeating the I=2K plateau value")
        rows = [["I\\K", *map(str, ks)]]
        rows += [[str(i), *(cell(k, i) for k in ks)] for i in i_range]
        return "\n".join(lines + _align(rows, right=True)) + "\n"

    return _write(fmt, records, table)


def write_fields(fields: list[tuple[str, object]], fmt: str) -> str:
    """Small key/value report (expectation, prevalence) in any output form."""
    names = [name for name, _ in fields]
    cells = [_cell(value, _YES_NO) for _, value in fields]
    return _write(fmt, lambda: [_json_record(fields)],
                  lambda: "\n".join(_align(list(zip(names, cells)))) + "\n",
                  csv_rows=[names, cells])
