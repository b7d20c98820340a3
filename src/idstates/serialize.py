"""File formats: state tables, count grids, frequency inputs.

Three interchangeable output forms for state tables:

  text     human-readable aligned columns, one state per line, '#' headers
  records  JSON lines, one object per state
  csv      comma-separated with header row

Structured records carry, per state: index, k, i, rep_row1, rep_row2,
m (row-major canonical matrix), d (as "num/K^2"), n_distinct,
stabilizer_size, is_symmetric, row_equiv, row_equal, and optionally a
probability. Rational values serialize as "a/b" strings accompanied by a
float companion field; floats render with 12 significant digits. The
records and csv forms parse back losslessly (canonical matrices and
rational values identical).

Frequency input files are UTF-8, comma- or tab-delimited, with an
optional ``object_id,p[,q]`` header; values are decimals or "a/b"
rationals. A missing q column means q = p. Auto mode is decided once
over both columns.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import DrawVector, PairMatrix
from .enumeration import IdentityState, StateMatrix
from .probability import FrequencyVector

STATE_FIELDS = [
    "index",
    "k",
    "i",
    "rep_row1",
    "rep_row2",
    "m",
    "d",
    "d_float",
    "n_distinct",
    "stabilizer_size",
    "is_symmetric",
    "row_equiv",
    "row_equal",
]


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


@dataclass
class StateTable:
    """A state catalog plus optional per-state probabilities."""

    draw_size: int
    n_objects: int
    states: list[IdentityState]
    probabilities: list | None = None
    exact: bool = True


def _state_record(table: StateTable, idx: int) -> dict:
    state = table.states[idx]
    rec = {
        "index": idx,
        "k": table.draw_size,
        "i": table.n_objects,
        "rep_row1": list(state.representative.row1.counts),
        "rep_row2": list(state.representative.row2.counts),
        "m": list(state.canonical_matrix.flattened),
        "d": str(state.dissimilarity),
        "d_float": rounded_float(float(state.dissimilarity)),
        "n_distinct": state.n_distinct,
        "stabilizer_size": state.stabilizer_size,
        "is_symmetric": state.is_symmetric,
        "row_equiv": state.row_equiv,
        "row_equal": state.row_equal,
    }
    if table.probabilities is not None:
        prob = table.probabilities[idx]
        if table.exact:
            rec["probability"] = format_exact(prob)
            rec["probability_float"] = rounded_float(prob)
        else:
            rec["probability"] = rounded_float(prob)
    return rec


def state_records(table: StateTable) -> list[dict]:
    return [_state_record(table, idx) for idx in range(len(table.states))]


def write_state_records(table: StateTable) -> str:
    return "\n".join(json.dumps(rec) for rec in state_records(table)) + "\n"


def write_state_csv(table: StateTable) -> str:
    records = state_records(table)
    fields = list(STATE_FIELDS)
    if table.probabilities is not None:
        fields.append("probability")
        if table.exact:
            fields.append("probability_float")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for rec in records:
        row = []
        for field in fields:
            value = rec[field]
            if isinstance(value, list):
                row.append(" ".join(str(v) for v in value))
            elif isinstance(value, bool):
                row.append("true" if value else "false")
            elif isinstance(value, float):
                row.append(format_float(value))
            else:
                row.append(str(value))
        writer.writerow(row)
    return buf.getvalue()


def write_state_text(table: StateTable) -> str:
    header = [
        "# identity states",
        f"# draw_size={table.draw_size} n_objects={table.n_objects} "
        f"states={len(table.states)}",
    ]
    cols = ["index", "row1", "row2", "D", "N", "stab", "sym", "row~", "row="]
    if table.probabilities is not None:
        cols.append("probability")
    cols.append("M(row-major)")
    rows = []
    for idx, state in enumerate(table.states):
        row = [
            str(idx),
            " ".join(map(str, state.representative.row1.counts)),
            " ".join(map(str, state.representative.row2.counts)),
            str(state.dissimilarity),
            str(state.n_distinct),
            str(state.stabilizer_size),
            "yes" if state.is_symmetric else "no",
            "yes" if state.row_equiv else "no",
            "yes" if state.row_equal else "no",
        ]
        if table.probabilities is not None:
            prob = table.probabilities[idx]
            row.append(format_exact(prob) if table.exact else format_float(prob))
        row.append(" ".join(map(str, state.canonical_matrix.flattened)))
        rows.append(row)
    widths = [max(len(cols[c]), *(len(r[c]) for r in rows)) if rows else len(cols[c])
              for c in range(len(cols))]
    lines = list(header)
    lines.append("  ".join(name.ljust(w) for name, w in zip(cols, widths)).rstrip())
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def write_state_table(table: StateTable, fmt: str) -> str:
    if fmt == "table":
        return write_state_text(table)
    if fmt == "records":
        return write_state_records(table)
    if fmt == "csv":
        return write_state_csv(table)
    raise ValueError(f"unknown format {fmt!r}")


def _state_from_record(rec: dict) -> tuple[IdentityState, object]:
    side = rec["k"] + 1
    flat = rec["m"]
    if len(flat) != side * side:
        raise ValueError(f"matrix has {len(flat)} entries, expected {side * side}")
    matrix = StateMatrix(
        tuple(tuple(flat[r * side : (r + 1) * side]) for r in range(side))
    )
    if matrix.n_objects != rec["i"]:
        raise ValueError(
            f"matrix covers {matrix.n_objects} objects, record says {rec['i']}"
        )
    state = IdentityState(matrix)
    rep = PairMatrix(
        DrawVector(tuple(rec["rep_row1"])), DrawVector(tuple(rec["rep_row2"]))
    )
    checks = [
        (state.representative == rep, "representative"),
        (str(state.dissimilarity) == rec["d"], "dissimilarity"),
        (state.n_distinct == rec["n_distinct"], "n_distinct"),
        (state.stabilizer_size == rec["stabilizer_size"], "stabilizer_size"),
        (state.is_symmetric == rec["is_symmetric"], "is_symmetric"),
        (state.row_equiv == rec["row_equiv"], "row_equiv"),
        (state.row_equal == rec["row_equal"], "row_equal"),
    ]
    for ok, name in checks:
        if not ok:
            raise ValueError(f"record field {name} disagrees with its matrix")
    prob = rec.get("probability")
    if isinstance(prob, str):
        prob = Fraction(prob)
    return state, prob


def _records_to_table(records: list[dict]) -> StateTable:
    if not records:
        raise ValueError("empty state table")
    draw_size = records[0]["k"]
    n_objects = records[0]["i"]
    states, probs = [], []
    has_prob = "probability" in records[0]
    exact = not has_prob or isinstance(records[0]["probability"], str)
    for idx, rec in enumerate(records):
        if rec["k"] != draw_size or rec["i"] != n_objects:
            raise ValueError("mixed draw sizes or object counts in one table")
        if rec["index"] != idx:
            raise ValueError(f"record index {rec['index']} out of order")
        state, prob = _state_from_record(rec)
        states.append(state)
        probs.append(prob)
    return StateTable(
        draw_size=draw_size,
        n_objects=n_objects,
        states=states,
        probabilities=probs if has_prob else None,
        exact=exact,
    )


def parse_state_records(text: str) -> StateTable:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return _records_to_table(records)


def parse_state_csv(text: str) -> StateTable:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("empty state table")
    header, body = rows[0], rows[1:]
    # exact tables carry a probability_float companion column; their
    # probability cells stay "a/b" or integer strings, read as Fractions
    exact = "probability_float" in header
    records = []
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} cells, header has {len(header)}")
        rec = {}
        for name, cell in zip(header, row):
            if name in ("rep_row1", "rep_row2", "m"):
                rec[name] = [int(v) for v in cell.split()]
            elif name in ("index", "k", "i", "n_distinct", "stabilizer_size"):
                rec[name] = int(cell)
            elif name in ("is_symmetric", "row_equiv", "row_equal"):
                rec[name] = {"true": True, "false": False}[cell]
            elif name in ("d_float", "probability_float"):
                rec[name] = float(cell)
            elif name == "probability":
                rec[name] = cell if exact else float(cell)
            else:
                rec[name] = cell
        records.append(rec)
    return _records_to_table(records)


_EXACT_TOKEN = re.compile(r"\d+(/\d+)?$")


def numeric_mode(tokens, mode: str = "auto") -> str:
    """The numeric mode for a set of frequency tokens.

    Auto resolves to "rational" when every token is an integer or "a/b"
    literal (both exact), and to "float" when any token is a decimal.
    """
    if mode == "auto":
        exact = all(_EXACT_TOKEN.fullmatch(t.strip()) for t in tokens)
        return "rational" if exact else "float"
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def parse_frequency_values(tokens, mode: str = "auto"):
    """Parse one column of frequency tokens into a FrequencyVector.

    Auto mode is decided over this column alone (see numeric_mode); pass
    the resolved mode to parse two columns alike.
    """
    exact = numeric_mode(tokens, mode) == "rational"
    values = [parse_number(t, exact) for t in tokens]
    return FrequencyVector(tuple(values), exact)


def parse_frequency_file(
    path, mode: str = "auto"
) -> tuple[FrequencyVector, FrequencyVector]:
    """Read (p, q) from a delimited file; a missing q column means q = p."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    delim = "\t" if "\t" in lines[0] else ","
    rows = [ln.split(delim) for ln in lines]
    # optional header: first row whose second cell is not numeric
    if len(rows[0]) >= 2:
        _check_exponent(rows[0][1])
        try:
            Fraction(rows[0][1].strip())
        except (ValueError, ZeroDivisionError):
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
    mode = numeric_mode(p_tokens + q_tokens, mode)
    p = parse_frequency_values(p_tokens, mode)
    q = parse_frequency_values(q_tokens, mode) if arity == 3 else p
    return p, q


def write_count_grid(
    counts: dict[tuple[int, int], int],
    max_draw_size: int,
    fmt: str,
    paper_layout: bool = False,
) -> str:
    """Identity-state count grid; rows are object counts, columns draw sizes.

    Cells with I > 2K repeat the I = 2K plateau value; they are marked
    with '*' (text) or a plateau flag (records/csv), or blanked/omitted
    under paper_layout.
    """
    ks = range(1, max_draw_size + 1)
    i_max = 2 * max_draw_size
    cells = []
    for i in range(1, i_max + 1):
        for k in ks:
            plateau = i > 2 * k
            cells.append((k, i, counts[(k, i)], plateau))
    if fmt == "records":
        lines = [
            json.dumps({"k": k, "i": i, "count": c, "plateau": plateau})
            for k, i, c, plateau in cells
            if not (paper_layout and plateau)
        ]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "i", "count", "plateau"])
        for k, i, c, plateau in cells:
            if paper_layout and plateau:
                continue
            writer.writerow([k, i, c, "true" if plateau else "false"])
        return buf.getvalue()
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    header = ["# identity-state counts (rows: object count I, columns: draw size K)"]
    if not paper_layout:
        header.append("# '*' marks cells repeating the I=2K plateau value")
    grid = {}
    for k, i, c, plateau in cells:
        if paper_layout and plateau:
            grid[(k, i)] = ""
        else:
            grid[(k, i)] = f"{c}*" if plateau else str(c)
    col_w = {
        k: max(len(str(k)), *(len(grid[(k, i)]) for i in range(1, i_max + 1)))
        for k in ks
    }
    label_w = max(len("I\\K"), len(str(i_max)))
    lines = list(header)
    lines.append(
        "  ".join(["I\\K".ljust(label_w)] + [str(k).rjust(col_w[k]) for k in ks])
    )
    for i in range(1, i_max + 1):
        lines.append(
            "  ".join(
                [str(i).ljust(label_w)] + [grid[(k, i)].rjust(col_w[k]) for k in ks]
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def write_fields(fields: list[tuple[str, object]], fmt: str, exact: bool) -> str:
    """Small key/value report (expectation, prevalence) in any output form."""

    def render(v):
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return format_float(v)
        if isinstance(v, Fraction):
            return format_exact(v)
        return str(v)

    if fmt == "records":
        obj = {}
        for name, v in fields:
            if isinstance(v, Fraction):
                obj[name] = format_exact(v)
                obj[name + "_float"] = rounded_float(v)
            elif isinstance(v, float):
                obj[name] = rounded_float(v)
            else:
                obj[name] = v
        return json.dumps(obj) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([name for name, _ in fields])
        writer.writerow([render(v) for _, v in fields])
        return buf.getvalue()
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    width = max(len(name) for name, _ in fields)
    lines = [f"{name.ljust(width)}  {render(v)}" for name, v in fields]
    return "\n".join(lines) + "\n"
