"""Named integer sequences, published reference values, and emitters.

Every sequence is 1-indexed.  The block sequences g0 and G sample the root
and total fire counts once per block of k consecutive pile sizes (the counts
are constant on N in {mk-k+1, ..., mk}), d0 and D are their first
differences, and the remaining ids expose the raw and special-case families
directly.  Where a sequence exists in the OEIS its A-number is recorded with
the fixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, TextIO

from . import formulas
from .numerics import _require_at_least, _require_k, format_int

# id -> (closed form, first difference, whether indices are piles).  The ids
# with a first difference are running sums of it: a block id adds it at every
# index m; a pile id steps by k, adding it only at N = mk, because the fire
# counts are constant on each block of k pile sizes.
_GENERATORS: dict[str, tuple[Callable[[int, int], int],
                             Callable[[int, int], int] | None, bool]] = {
    "g0": (lambda m, k: formulas.root_fires(m * k, k), formulas.d0, False),
    "G": (lambda m, k: formulas.total_fires(m * k, k), formulas.D_diff, False),
    "d0": (formulas.d0, None, False),
    "D": (formulas.D_diff, None, False),
    "f0_special": (formulas.special_root_fires, None, False),
    "F_special": (formulas.special_total_fires, None, False),
    "a": (formulas.a_seq, None, False),
    "b": (formulas.b_seq, None, False),
    "f0_raw": (formulas.root_fires, formulas.d0, True),
    "F_raw": (formulas.total_fires, formulas.D_diff, True),
}

SEQUENCE_NAMES = tuple(_GENERATORS)


@dataclass(frozen=True)
class SequenceId:
    name: str
    k: int


@dataclass(frozen=True)
class SequenceWindow:
    id: SequenceId
    start: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class Fixture:
    """A published window of sequence values with its provenance label."""

    window: SequenceWindow
    source: str


def _require_name(name: str) -> None:
    if name not in _GENERATORS:
        raise ValueError(f"unknown sequence id {name!r}; "
                         f"available: {', '.join(SEQUENCE_NAMES)}")


def generate(id: SequenceId, start: int = 1, count: int = 10) -> SequenceWindow:
    """Window of `count` exact values of the sequence, indices start..start+count-1.

    The running-sum ids (g0, G, f0_raw, F_raw) are streamed: the closed form
    gives the first value, and each next one adds d0 or D, which `crosscheck`
    computes by every route.  `formulas._agree`, the one comparison of routes,
    holds the last value to the closed form at the window's end, so each
    increment is checked by two or three routes and both ends by the closed
    form.  The other ids take the closed form at every index.
    """
    name, k = id.name, id.k
    _require_name(name)
    _require_k(k)
    _require_at_least("count", count, 1)
    if start < 1:
        raise ValueError(f"sequences are 1-indexed; got start {format_int(start)}")
    fn, diff, piles = _GENERATORS[name]
    if diff is None:
        values = tuple(fn(i, k) for i in range(start, start + count))
        return SequenceWindow(id=id, start=start, values=values)
    step = k if piles else 1
    end = start + count - 1
    value = fn(start, k)
    out = [value]
    for i in range(start, end):
        if i % step == 0:
            value += diff(i // step, k)
        out.append(value)
    closed = fn(end, k) if count > 1 else value
    formulas._agree(name, (end, k), [("streamed", value), ("closed form", closed)])
    return SequenceWindow(id=id, start=start, values=tuple(out))


def difference(window: SequenceWindow) -> SequenceWindow:
    """First differences; entry i holds values[i+1] - values[i], of any sign.

    g0 and G are nondecreasing, but d0 and D, their own differences, are not.
    """
    if len(window.values) < 2:
        raise ValueError("difference needs a window of length >= 2")
    diffs = tuple(cur - prev for prev, cur in zip(window.values, window.values[1:]))
    out_id = SequenceId(name=window.id.name + ".diff", k=window.id.k)
    return SequenceWindow(id=out_id, start=window.start, values=diffs)


# --- published values --------------------------------------------------------
#
# Row data for the four small-value tables and the published sequence
# prefixes.  Stored verbatim (1-indexed), never fetched from the network.

_G0_TABLE = {
    2: (0, 1, 2, 4, 5, 7, 8, 11, 12, 14),
    3: (0, 1, 2, 3, 5, 6, 7, 9, 10, 11),
    4: (0, 1, 2, 3, 4, 6, 7, 8, 9, 11),
    5: (0, 1, 2, 3, 4, 5, 7, 8, 9, 10),
    6: (0, 1, 2, 3, 4, 5, 6, 8, 9, 10),
}

_G_TABLE = {
    2: (0, 1, 2, 6, 7, 11, 12, 23, 24, 28),
    3: (0, 1, 2, 3, 8, 9, 10, 15, 16, 17),
    4: (0, 1, 2, 3, 4, 10, 11, 12, 13, 19),
    5: (0, 1, 2, 3, 4, 5, 12, 13, 14, 15),
    6: (0, 1, 2, 3, 4, 5, 6, 14, 15, 16),
}

_D_TABLE = {
    2: (1, 1, 4, 1, 4, 1, 11, 1, 4, 1),
    3: (1, 1, 1, 5, 1, 1, 5, 1, 1, 5),
    4: (1, 1, 1, 1, 6, 1, 1, 1, 6, 1),
    5: (1, 1, 1, 1, 1, 7, 1, 1, 1, 1),
    6: (1, 1, 1, 1, 1, 1, 8, 1, 1, 1),
}

_A_TABLE = {
    2: ((1, 4, 11, 26, 57, 120, 247), "A000295"),
    3: ((1, 5, 18, 58, 179, 543, 1636), "A000340"),
    4: ((1, 6, 27, 112, 453, 1818, 7279), "A014825"),
    5: ((1, 7, 38, 194, 975, 4881, 24412), "A014827"),
    6: ((1, 8, 51, 310, 1865, 11196, 67183), "A014829"),
    7: ((1, 9, 66, 466, 3267, 22875, 160132), "A014830"),
    8: ((1, 10, 83, 668, 5349, 42798, 342391), "A014831"),
    9: ((1, 11, 102, 922, 8303, 74733, 672604), "A014832"),
    10: ((1, 12, 123, 1234, 12345, 123456, 1234567), "A014824"),
}

_LISTINGS = (
    ("f0_special", 2, (0, 1, 4, 11, 26, 57, 120, 247, 502, 1013),
     "root fires at piles 2^n - 1 (A000295, shifted indexing)"),
    ("g0", 3, (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 18),
     "g0(.,3) prefix (A378724)"),
    ("d0", 2, (1, 1, 2, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1),
     "d0(.,2) prefix (A091090)"),
    ("d0", 3, (1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 3, 1, 1, 2, 1, 1, 2, 1, 1, 3, 1),
     "d0(.,3) prefix (A378725)"),
    ("G", 2, (0, 1, 2, 6, 7, 11, 12, 23, 24, 28, 29, 40, 41, 45),
     "G(.,2) prefix (A376131)"),
    ("G", 3, (0, 1, 2, 3, 8, 9, 10, 15, 16, 17, 22, 23, 24, 42, 43, 44, 49, 50, 51),
     "G(.,3) prefix (A378726)"),
    ("F_special", 4,
     (0, 1, 10, 67, 380, 1973, 9710, 46119, 213600, 970905, 4349650, 19262731),
     "F_special(.,4) prefix (A378727)"),
    ("F_special", 5,
     (0, 1, 12, 98, 684, 4395, 26856, 158692, 915528, 5187989, 28991700),
     "F_special(.,5) prefix (A378728)"),
    ("D", 2, (1, 1, 4, 1, 4, 1, 11, 1, 4, 1, 11, 1, 4, 1, 26),
     "D(.,2) prefix (A376132)"),
    ("D", 3, (1, 1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 18, 1, 1, 5, 1, 1, 5),
     "D(.,3) prefix (A378962)"),
)


def _fixture(name: str, k: int, values: tuple[int, ...], source: str) -> Fixture:
    window = SequenceWindow(id=SequenceId(name=name, k=k), start=1, values=values)
    return Fixture(window=window, source=source)


def reference_fixtures() -> tuple[Fixture, ...]:
    """Every published reference window, 1-indexed, as immutable fixtures."""
    out = []
    for k, row in _G0_TABLE.items():
        src = "g0 small-values table, row k=%d" % k
        if k == 2:
            src += " (A376116)"
        out.append(_fixture("g0", k, row, src))
    for k, row in _G_TABLE.items():
        out.append(_fixture("G", k, row, "G small-values table, row k=%d" % k))
    for k, row in _D_TABLE.items():
        out.append(_fixture("D", k, row, "D small-values table, row k=%d" % k))
    for k, (row, anum) in _A_TABLE.items():
        out.append(_fixture("a", k, row,
                            "distinct D values, row k=%d (%s)" % (k, anum)))
    for name, k, values, source in _LISTINGS:
        out.append(_fixture(name, k, values, source))
    return tuple(out)


# --- emitters ----------------------------------------------------------------

def json_text(obj) -> str:
    """Canonical JSON: sorted keys, no spaces, every int through `format_int`.

    The bytes equal json.dumps(obj, sort_keys=True, separators=(",", ":")),
    which refuses ints past the interpreter's digit limit, for payloads of
    dicts with str keys, lists, tuples, str and int.
    """
    if type(obj) is int:  # not bool, which json spells true/false
        return format_int(obj)
    if isinstance(obj, (list, tuple)):
        # ints inline: one call per int, not two, in the long fire-count lists
        return "[" + ",".join([format_int(v) if type(v) is int else json_text(v)
                               for v in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(key) + ":" + json_text(obj[key])
                              for key in sorted(obj)) + "}"
    return json.dumps(obj)


def _pairs(window: SequenceWindow):
    """(index, value) of every term, refusing an empty window before any output."""
    if not window.values:
        raise ValueError("refusing to emit an empty window")
    return enumerate(window.values, window.start)


def emit_bfile(window: SequenceWindow, sink: TextIO) -> None:
    """OEIS b-file lines: "index value", newline-terminated, ASCII decimal."""
    for i, v in _pairs(window):
        sink.write(f"{format_int(i)} {format_int(v)}\n")


def emit_csv(window: SequenceWindow, sink: TextIO, header: bool = False) -> None:
    pairs = _pairs(window)
    if header:
        sink.write("index,value\n")
    for i, v in pairs:
        sink.write(f"{format_int(i)},{format_int(v)}\n")


def emit_json(window: SequenceWindow, sink: TextIO) -> None:
    """Canonical JSON array of [index, value] pairs (round-trips byte-exactly)."""
    sink.write(json_text([[i, v] for i, v in _pairs(window)]) + "\n")
