"""Serialization: state tables, count grids, frequency files."""

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
    write_count_grid,
    write_fields,
    write_state_table,
)

from conftest import random_rational_vector


def make_table(k=2, i=4, with_probs=True, exact=True):
    states = enumerate_states(k, i)
    if not with_probs:
        return StateTable(k, i, states)
    if exact:
        rng = random.Random(1)
        p = random_rational_vector(rng, i)
        q = random_rational_vector(rng, i)
    else:
        p = q = tuple(1.0 / i for _ in range(i))
    probs = [state_probability(s, p, q).value for s in states]
    return StateTable(k, i, states, probabilities=probs, exact=exact)


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
        return StateTable(k, i, states)
    weights = st.lists(st.integers(0, 6), min_size=i, max_size=i).filter(any)
    p, q = draw(weights), draw(weights)
    dist = state_distribution(k, [Fraction(w, sum(p)) for w in p],
                              [Fraction(w, sum(q)) for w in q])
    probs = [dist.get(s.canonical_matrix, Fraction(0)) for s in states]
    return StateTable(k, i, states, probabilities=probs, exact=True)


@settings(max_examples=40)
@given(exact_table(), st.sampled_from(["records", "csv"]))
def test_exact_table_round_trip(table, fmt):
    parse = {"records": parse_state_records, "csv": parse_state_csv}[fmt]
    back = parse(write_state_table(table, fmt))
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
    exact = parse_frequency_values(["1/2", "1/2"])
    assert exact.exact
    floats = parse_frequency_values(["0.5", "0.5"])
    assert not floats.exact


def test_count_grid_text_and_paper_layout():
    counts = {
        (k, i): state_count(k, i) for k in (1, 2) for i in range(1, 5)
    }
    text = write_count_grid(counts, 2, "table")
    assert "2*" in text  # plateau marker for I > 2K
    paper = write_count_grid(counts, 2, "table", paper_layout=True)
    assert "*" not in paper
    lines = [ln for ln in paper.splitlines() if not ln.startswith("#")]
    # K=1 column reads 1, 2 and then blanks under paper layout
    assert lines[1].split() == ["1", "1", "1"]
    assert lines[2].split() == ["2", "2", "4"]
    assert lines[3].split() == ["3", "6"]


def test_count_grid_csv_records():
    counts = {(k, i): state_count(k, i) for k in (1, 2) for i in range(1, 5)}
    csv_text = write_count_grid(counts, 2, "csv")
    assert csv_text.splitlines()[0] == "k,i,count,plateau"
    assert "2,4,7,false" in csv_text
    rec_text = write_count_grid(counts, 2, "records", paper_layout=True)
    assert '"plateau": true' not in rec_text


def test_write_fields_forms():
    fields = [("alpha", Fraction(1, 4)), ("flag", True), ("x", 0.5)]
    table = write_fields(fields, "table", exact=True)
    assert "alpha" in table and "1/4" in table and "yes" in table
    rec = write_fields(fields, "records", exact=True)
    assert '"alpha": "1/4"' in rec and '"alpha_float": 0.25' in rec
    csv_text = write_fields(fields, "csv", exact=True)
    assert csv_text.splitlines()[0] == "alpha,flag,x"
