"""Serialization: state tables, count grids, frequency files."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idstates import enumerate_states, state_count, state_distribution, state_probability
from idstates.serialize import (
    StateTable,
    format_exact,
    format_float,
    parse_frequency_file,
    parse_frequency_values,
    parse_number,
    parse_state_csv,
    parse_state_records,
    rounded_float,
    state_records,
    write_count_grid,
    write_fields,
    write_state_table,
)

from conftest import random_rational_vector

PARSE = {"records": parse_state_records, "csv": parse_state_csv}


def make_table(k=2, i=4, with_probs=True, exact=True):
    states = enumerate_states(k, i)
    if not with_probs:
        return StateTable(states)
    if exact:
        rng = random.Random(1)
        p = random_rational_vector(rng, i)
        q = random_rational_vector(rng, i)
    else:
        p = q = tuple(1.0 / i for _ in range(i))
    probs = [state_probability(s, p, q).value for s in states]
    return StateTable(states, probabilities=probs)


def test_number_formatting():
    assert format_exact(Fraction(3, 4)) == "3/4"
    assert format_exact(Fraction(2)) == "2"
    assert format_float(0.2599999999999999) == "0.26"
    assert parse_number("3/4", exact=True) == Fraction(3, 4)
    assert parse_number("0.8", exact=True) == Fraction(4, 5)
    assert parse_number("0.8", exact=False) == 0.8
    with pytest.raises(ValueError):
        parse_number("abc", exact=True)
    with pytest.raises(ValueError):
        parse_number("-1/2", exact=True)


@pytest.mark.parametrize("with_probs", [False, True])
def test_records_round_trip(with_probs):
    table = make_table(with_probs=with_probs)
    text = write_state_table(table, "records")
    back = parse_state_records(text)
    assert back.draw_size == table.draw_size
    assert back.n_objects == table.n_objects
    assert back.states == table.states
    assert [s.canonical_matrix for s in back.states] == [
        s.canonical_matrix for s in table.states
    ]
    if with_probs:
        assert back.probabilities == table.probabilities
        assert all(isinstance(p, Fraction) for p in back.probabilities)


@pytest.mark.parametrize("with_probs", [False, True])
def test_csv_round_trip(with_probs):
    table = make_table(k=3, i=6, with_probs=with_probs)
    text = write_state_table(table, "csv")
    back = parse_state_csv(text)
    assert back.states == table.states
    if with_probs:
        assert back.probabilities == table.probabilities


@st.composite
def exact_table(draw):
    """State table for K <= 3, I <= 5, with exact probabilities or none."""
    k, i = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    states = enumerate_states(k, i)
    if not draw(st.booleans()):
        return StateTable(states)
    weights = st.lists(st.integers(0, 6), min_size=i, max_size=i).filter(any)
    p, q = draw(weights), draw(weights)
    dist = state_distribution(k, [Fraction(w, sum(p)) for w in p],
                              [Fraction(w, sum(q)) for w in q])
    probs = [dist.get(s.canonical_matrix, Fraction(0)) for s in states]
    return StateTable(states, probabilities=probs)


@settings(max_examples=40)
@given(exact_table(), st.sampled_from(["records", "csv"]))
def test_exact_table_round_trip(table, fmt):
    back = PARSE[fmt](write_state_table(table, fmt))
    assert [s.canonical_matrix for s in back.states] == [
        s.canonical_matrix for s in table.states
    ]
    assert back.states == table.states
    assert back.probabilities == table.probabilities
    assert back.exact
    assert all(isinstance(v, Fraction) for v in back.probabilities or [])


def test_float_mode_round_trip():
    table = make_table(exact=False)
    for fmt, parse in (("records", parse_state_records), ("csv", parse_state_csv)):
        back = parse(write_state_table(table, fmt))
        assert back.states == table.states
        assert not back.exact
        # float probabilities survive the 12-significant-digit print form
        assert back.probabilities == [rounded_float(p) for p in table.probabilities]


def test_text_form_shape():
    table = make_table(with_probs=False)
    text = write_state_table(table, "table")
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert "draw_size=2" in lines[1]
    assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 1 + 7


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_state_table(make_table(), "yaml")


def test_corrupt_record_rejected():
    table = make_table(with_probs=False)
    text = write_state_table(table, "records")
    broken = text.replace('"n_distinct": 4', '"n_distinct": 3', 1)
    with pytest.raises(ValueError):
        parse_state_records(broken)


def _edit(text, fmt, line, field, value):
    """text with one field of line `line` (0 = first record) set to value.

    A records value is a Python value, JSON-encoded like the writer does; a
    csv value is the cell's text.
    """
    lines = text.split("\n")
    if fmt == "records":
        rec = json.loads(lines[line])
        rec[field] = value
        lines[line] = json.dumps(rec)
    else:
        header, cells = lines[0].split(","), lines[line + 1].split(",")
        cells[header.index(field)] = value
        lines[line + 1] = ",".join(cells)
    return "\n".join(lines)


def _unreduced(text, fmt):
    """The first probability written as a/b with both terms doubled."""
    prob = make_table().probabilities[0]
    return _edit(text, fmt, 0, "probability",
                 f"{2 * prob.numerator}/{2 * prob.denominator}")


def _without_m(text, fmt):
    lines = text.split("\n")
    rec = json.loads(lines[0])
    del rec["m"]
    return "\n".join([json.dumps(rec)] + lines[1:])


def _reordered(text, fmt):
    lines = text.split("\n")
    lines[0] = json.dumps(dict(reversed(json.loads(lines[0]).items())))
    return "\n".join(lines)


def _short_row(text, fmt):
    """The first csv row without its last cell."""
    lines = text.split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0]
    return "\n".join(lines)


def _transposed_m(text, fmt):
    """Record 1 (not symmetric) with its matrix transposed: not canonical."""
    m = json.loads(text.split("\n")[1])["m"]
    return _edit(text, fmt, 1, "m", [m[c * 3 + r] for r in range(3) for c in range(3)])


def _mixed_draw_sizes(text, fmt):
    """Record 1 replaced by a K=3 I=4 record whose k and i still read 2 and 4."""
    lines = text.split("\n")
    old = json.loads(lines[1])
    rec = state_records(StateTable(enumerate_states(3, 4)))[1]
    rec.update(index=old["index"], k=2, i=4, probability=old["probability"],
               probability_float=old["probability_float"])
    lines[1] = json.dumps(rec)
    return "\n".join(lines)


#: Tables the writer never writes, each made from the K=2 I=4 catalog with
#: exact probabilities; every one must be a ValueError.
MALFORMED = {
    "d_float": ("records", lambda t, f: _edit(t, f, 0, "d_float", 0.75)),
    "probability_float": ("records",
                          lambda t, f: _edit(t, f, 0, "probability_float", 0.5)),
    "is_symmetric 1": ("records", lambda t, f: _edit(t, f, 0, "is_symmetric", 1)),
    "n_distinct": ("records", lambda t, f: _edit(t, f, 0, "n_distinct", 3)),
    "record without m": ("records", _without_m),
    "list line": ("records", lambda t, f: "[1, 2]\n" + t),
    "non-canonical m": ("records", _transposed_m),
    "index out of order": ("records", lambda t, f: _edit(t, f, 1, "index", 0)),
    "mixed k": ("records", lambda t, f: _edit(t, f, 1, "k", 3)),
    "mixed draw sizes": ("records", _mixed_draw_sizes),
    "matrix beyond i": ("records", lambda t, f: t.replace('"i": 4', '"i": 3')),
    "reordered keys": ("records", _reordered),
    "blank line": ("records", lambda t, f: t.replace("\n", "\n\n", 1)),
    "crlf": ("records", lambda t, f: t.replace("\n", "\r\n")),
    "unreduced probability": ("records", _unreduced),
    "probability beyond a float": ("records", lambda t, f: _edit(t, f, 0, "probability",
                                                                  "1" + "0" * 400)),
    "empty records": ("records", lambda t, f: ""),
    "extra column": ("csv", lambda t, f: t.replace("\n", ",x\n")),
    "is_symmetric maybe": ("csv", lambda t, f: _edit(t, f, 0, "is_symmetric", "maybe")),
    "csv unreduced probability": ("csv", _unreduced),
    "csv crlf": ("csv", lambda t, f: t.replace("\n", "\r\n")),
    "csv short row": ("csv", _short_row),
    "header only": ("csv", lambda t, f: t.split("\n")[0] + "\n"),
    "empty csv": ("csv", lambda t, f: ""),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parsers_reject_what_the_writer_never_writes(case):
    fmt, mutate = MALFORMED[case]
    text = write_state_table(make_table(), fmt)
    broken = mutate(text, fmt)
    assert broken != text
    with pytest.raises(ValueError):
        PARSE[fmt](broken)


@settings(max_examples=60)
@given(exact_table(), st.sampled_from(["records", "csv"]), st.data())
def test_one_changed_character_is_rejected_or_written_back(table, fmt, data):
    text = write_state_table(table, fmt)
    pos = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.characters(max_codepoint=127).filter(lambda c: c != text[pos]))
    changed = text[:pos] + char + text[pos + 1:]
    try:
        back = PARSE[fmt](changed)
    except ValueError:
        return
    assert write_state_table(back, fmt) == changed


def test_frequency_file_comma_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("object_id,p,q\nA,0.8,0.9\nB,0.2,0.1\n")
    p, q = parse_frequency_file(path)
    assert not p.exact
    assert p.entries == (0.8, 0.2)
    assert q.entries == (0.9, 0.1)


def test_frequency_file_tab_no_header_rational(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("A\t1/2\t1/3\nB\t1/2\t2/3\n")
    p, q = parse_frequency_file(path)
    assert p.exact and q.exact
    assert p.entries == (Fraction(1, 2), Fraction(1, 2))
    assert q.entries == (Fraction(1, 3), Fraction(2, 3))


def test_frequency_file_missing_q_defaults_to_p(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,0.25\nB,0.75\n")
    p, q = parse_frequency_file(path)
    assert p.entries == q.entries == (0.25, 0.75)


def test_frequency_file_forced_rational_mode(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("A,0.8,0.9\nB,0.2,0.1\n")
    p, q = parse_frequency_file(path, mode="rational")
    assert p.exact
    assert p.entries == (Fraction(4, 5), Fraction(1, 5))
    assert q.entries == (Fraction(9, 10), Fraction(1, 10))


def test_frequency_file_errors(tmp_path):
    bad_sum = tmp_path / "a.csv"
    bad_sum.write_text("A,0.8\nB,0.1\n")
    with pytest.raises(ValueError, match="sum to 0.9"):
        parse_frequency_file(bad_sum)
    dup = tmp_path / "b.csv"
    dup.write_text("A,0.5\nA,0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_frequency_file(dup)
    junk = tmp_path / "c.csv"
    junk.write_text("A,0.5\nB,zebra\n")
    with pytest.raises(ValueError, match="not a number"):
        parse_frequency_file(junk)
    neg = tmp_path / "d.csv"
    neg.write_text("A,1.5\nB,-0.5\n")
    with pytest.raises(ValueError, match="negative"):
        parse_frequency_file(neg)
    ragged = tmp_path / "e.csv"
    ragged.write_text("A,0.5,0.5\nB,0.5\n")
    with pytest.raises(ValueError, match="ragged"):
        parse_frequency_file(ragged)
    empty = tmp_path / "f.csv"
    empty.write_text("object_id,p\n")
    with pytest.raises(ValueError, match="no data"):
        parse_frequency_file(empty)


def test_parse_frequency_values_auto_mode():
    p, q = parse_frequency_values(["1/2", "1/2"])
    assert p.exact and q is p
    p, q = parse_frequency_values(["0.5", "0.5"])
    assert not p.exact and q is p
    # auto mode is decided once over both columns: one decimal makes both float
    p, q = parse_frequency_values(["1/2", "1/2"], ["0.5", "0.5"])
    assert not p.exact and not q.exact
    assert p.entries == q.entries == (0.5, 0.5)
    p, q = parse_frequency_values(["1/2", "1/2"], ["1/3", "2/3"])
    assert p.exact and q.entries == (Fraction(1, 3), Fraction(2, 3))
    # only ".", "e" and "E" mark a decimal: a sign or an underscore, which
    # Fraction reads in an exact literal too, keeps the mode rational
    for tokens in (["+1/2", "1/2"], ["1_0/2_0", " 1/2 "], ["1_000/2_000", "+1/2"]):
        p, q = parse_frequency_values(tokens)
        assert p.exact and p.entries == (Fraction(1, 2), Fraction(1, 2))
    p, q = parse_frequency_values(["+1", "0"], ["5E-1", "1/2"])
    assert not p.exact and p.entries == (1.0, 0.0) and q.entries == (0.5, 0.5)
    for tokens, message in ((["inf", "1"], "not a number: 'inf'"),
                            (["nan", "1"], "not a number: 'nan'"),
                            (["1e400", "1"], "too large for a float: '1e400'")):
        with pytest.raises(ValueError, match=message):
            parse_frequency_values(tokens)
    with pytest.raises(ValueError, match="unknown mode 'exact'"):
        parse_frequency_values(["1"], mode="exact")


def test_count_grid_text_and_paper_layout():
    counts = {
        (k, i): state_count(k, i) for k in (1, 2) for i in range(1, 5)
    }
    text = write_count_grid(counts, "table")
    assert "2*" in text  # plateau marker for I > 2K
    paper = write_count_grid(counts, "table", paper_layout=True)
    assert "*" not in paper
    lines = [ln for ln in paper.splitlines() if not ln.startswith("#")]
    # K=1 column reads 1, 2 and then blanks under paper layout
    assert lines[1].split() == ["1", "1", "1"]
    assert lines[2].split() == ["2", "2", "4"]
    assert lines[3].split() == ["3", "6"]


def test_count_grid_csv_records():
    counts = {(k, i): state_count(k, i) for k in (1, 2) for i in range(1, 5)}
    csv_text = write_count_grid(counts, "csv")
    assert csv_text.splitlines()[0] == "k,i,count,plateau"
    assert "2,4,7,false" in csv_text
    rec_text = write_count_grid(counts, "records", paper_layout=True)
    assert '"plateau": true' not in rec_text


def test_count_grid_needs_only_the_cells_up_to_the_plateau():
    full = {(k, i): state_count(k, i) for k in (1, 2, 3) for i in range(1, 7)}
    below = {(k, i): n for (k, i), n in full.items() if i <= 2 * k}
    for fmt in ("table", "records", "csv"):
        for paper_layout in (False, True):
            assert (write_count_grid(below, fmt, paper_layout)
                    == write_count_grid(full, fmt, paper_layout))
    with pytest.raises(ValueError, match=r"lacks the cell \(K, I\) = \(1, 2\)"):
        write_count_grid({(1, 1): 1, (2, 1): 1}, "table")
    for counts in ({}, {(0, 5): 3}):
        with pytest.raises(ValueError, match="needs at least one cell with K >= 1"):
            write_count_grid(counts, "table")


def test_write_fields_forms():
    fields = [("alpha", Fraction(1, 4)), ("flag", True), ("x", 0.5)]
    table = write_fields(fields, "table")
    assert "alpha" in table and "1/4" in table and "yes" in table
    rec = write_fields(fields, "records")
    assert '"alpha": "1/4"' in rec and '"alpha_float": 0.25' in rec
    csv_text = write_fields(fields, "csv")
    assert csv_text.splitlines()[0] == "alpha,flag,x"
