import io
import json

import pytest

from chipfire.formulas import D_diff, a_seq, d0
from chipfire.sequences import (
    SEQUENCE_NAMES,
    SequenceId,
    SequenceWindow,
    difference,
    emit_bfile,
    emit_csv,
    emit_json,
    generate,
    reference_fixtures,
)


def test_generate_examples():
    g03 = generate(SequenceId("g0", 3), count=14)
    assert g03.values == (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 18)
    d3 = generate(SequenceId("D", 3), count=19)
    assert d3.values == (1, 1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 18, 1, 1, 5, 1, 1, 5)
    f4 = generate(SequenceId("F_special", 4), count=12)
    assert f4.values == (0, 1, 10, 67, 380, 1973, 9710, 46119, 213600,
                         970905, 4349650, 19262731)


def test_generate_windows_are_contiguous():
    whole = generate(SequenceId("G", 2), start=1, count=20)
    tail = generate(SequenceId("G", 2), start=11, count=10)
    assert tail.values == whole.values[10:]


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        generate(SequenceId("nope", 2), count=5)
    with pytest.raises(ValueError):
        generate(SequenceId("g0", 1), count=5)
    with pytest.raises(ValueError):
        generate(SequenceId("g0", 2), count=0)
    with pytest.raises(ValueError):
        generate(SequenceId("g0", 2), start=0, count=5)


def test_unknown_id_message_lists_choices():
    with pytest.raises(ValueError, match="g0"):
        generate(SequenceId("bogus", 2), count=1)


def test_every_fixture_reproduces():
    fixtures = reference_fixtures()
    assert len(fixtures) >= 24
    for fx in fixtures:
        got = generate(fx.window.id, start=fx.window.start,
                       count=len(fx.window.values))
        assert got.values == fx.window.values, fx.source


def test_fixture_value_counts():
    # the four tables carry 50 + 50 + 50 + 63 entries
    by_name = {}
    for fx in reference_fixtures():
        if "table" in fx.source or "distinct D values" in fx.source:
            by_name.setdefault(fx.window.id.name, []).append(fx)
    assert sum(len(f.window.values) for f in by_name["g0"]) == 50
    assert sum(len(f.window.values) for f in by_name["G"]) == 50
    assert sum(len(f.window.values) for f in by_name["D"]) == 50
    assert sum(len(f.window.values) for f in by_name["a"]) == 63


def test_difference_examples():
    g0 = generate(SequenceId("g0", 2), count=8)
    assert difference(g0).values == (1, 1, 2, 1, 2, 1, 3)
    G = generate(SequenceId("G", 2), count=8)
    assert difference(G).values == (1, 1, 4, 1, 4, 1, 11)
    flat = SequenceWindow(SequenceId("g0", 2), 1, (5, 5, 5, 5))
    assert difference(flat).values == (0, 0, 0)


def test_difference_matches_difference_sequences():
    for k in (2, 3, 4):
        g0 = generate(SequenceId("g0", k), count=201)
        assert difference(g0).values == generate(SequenceId("d0", k), count=200).values
        G = generate(SequenceId("G", k), count=201)
        assert difference(G).values == generate(SequenceId("D", k), count=200).values


def test_difference_rejects_short_keeps_sign():
    with pytest.raises(ValueError):
        difference(SequenceWindow(SequenceId("g0", 2), 1, (1,)))
    assert difference(SequenceWindow(SequenceId("g0", 2), 1, (3, 1))).values == (-2,)


def test_difference_index_convention():
    w = generate(SequenceId("G", 3), start=5, count=4)
    d = difference(w)
    assert d.start == 5
    assert len(d.values) == 3
    assert d.id.name == "G.diff"


def test_distinct_D_values_are_a_values():
    for k in (2, 3, 4, 5, 6):
        seen_d0 = set()
        seen_D = set()
        for m in range(1, 10001):
            seen_d0.add(d0(m, k))
            seen_D.add(D_diff(m, k))
        assert seen_D == {a_seq(n, k) for n in seen_d0}


def test_raw_sequences():
    raw = generate(SequenceId("F_raw", 2), start=12, count=1)
    assert raw.values == (11,)
    raw0 = generate(SequenceId("f0_raw", 2), start=16, count=1)
    assert raw0.values == (11,)


def test_emit_bfile_format():
    sink = io.StringIO()
    emit_bfile(SequenceWindow(SequenceId("g0", 2), 1, (0, 1, 2)), sink)
    assert sink.getvalue() == "1 0\n2 1\n3 2\n"

    sink = io.StringIO()
    emit_bfile(generate(SequenceId("g0", 3), count=14), sink)
    lines = sink.getvalue().splitlines(keepends=True)
    assert len(lines) == 14
    assert lines[-1] == "14 18\n"

    for emit in (emit_bfile, emit_csv, emit_json):
        with pytest.raises(ValueError, match="^refusing to emit an empty window$"):
            emit(SequenceWindow(SequenceId("g0", 2), 1, ()), io.StringIO())


def test_emit_csv():
    sink = io.StringIO()
    emit_csv(SequenceWindow(SequenceId("a", 10), 1, (1, 12, 123)), sink, header=True)
    assert sink.getvalue() == "index,value\n1,1\n2,12\n3,123\n"


def test_emit_json_round_trip():
    sink = io.StringIO()
    window = generate(SequenceId("a", 10), count=7)
    emit_json(window, sink)
    text = sink.getvalue()
    parsed = json.loads(text)
    assert parsed == [[i + 1, v] for i, v in enumerate(window.values)]
    assert json.dumps(parsed, separators=(",", ":")) + "\n" == text
