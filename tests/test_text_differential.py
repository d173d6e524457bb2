"""Differential tests: the whole-grid text writer and the chunked text reader
against the line-by-line versions in ``oracles``.

Written text must be byte-identical, for arrays of every shape, alphabets up
to 2^63 and arrays longer than one write block.  Reading a valid text, or one
with a defect or two, must give an equal array or the same error message,
also when it is read in chunks of a few lines.
The defects include every way a text can leave the layout ``dump_array``
writes, which is where a chunk leaves the whole-array pass for the line
loop; text in that layout must never reach the loop, and a defect sends its
own chunk there, no other.
"""

import random
import tracemalloc
from operator import itemgetter

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp.designs import (
    AugmentedOA,
    OrthogonalArray,
    dump_array,
    linear_aoa,
    load_array,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
)
from oaramp import designs
from oaramp.gf import GF

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
ALPHABETS = [2, 3, 10, 11, 1000, 2**62, 2**63]


@st.composite
def arrays(draw, alphabets=ALPHABETS):
    v = draw(st.sampled_from(alphabets))
    k = draw(st.integers(1, 4))
    t = draw(st.integers(1, k))
    aug = draw(st.booleans())
    s = draw(st.integers(0, t - 1)) if aug else None
    width = k + (t - s if aug else 0)
    rows = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=width, max_size=width),
                         max_size=30))
    return AugmentedOA(s, t, k, v, rows) if aug else OrthogonalArray(t, k, v, rows)


@SETTINGS
@given(arrays())
def test_dump_is_byte_identical_and_loads_back(a):
    text = dump_array(a)
    assert text == oracles.dump_array(a)
    assert load_array(text) == a


@pytest.mark.parametrize("build", [
    lambda: oa_from_generator(rs_generator(GF(2, 4), 3), 3),  # 4,096 rows
    lambda: linear_aoa(shamir_matrix(GF(11), 2, 4, 8), 2, 4, 8),  # 14,641 rows
])
def test_dump_of_arrays_longer_than_one_block(build):
    a = build()
    text = dump_array(a)
    assert text == oracles.dump_array(a)
    assert load_array(text) == a


@SETTINGS
@given(arrays(), st.sampled_from([1, 3]))
def test_dump_in_small_blocks_is_byte_identical(a, rows):
    """Blocks of one or three rows put the larger alphabets past the
    whole-alphabet table, so both tables write arrays of several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_DUMP_ROWS", rows)
        assert dump_array(a) == oracles.dump_array(a)


def outcome(load, text):
    try:
        return load(text)
    except ValueError as e:
        return type(e), str(e)


# Defects of one symbol, of one line, or of the text's layout.
DEFECTS = ["extra", "missing", "word", "huge", "negative", "top", "comma", "header",
           "crlf", "tab", "double space", "leading space", "trailing space",
           "blank before header", "blank between rows", "blank at end", "no final newline",
           "plus", "leading zeros", "underscore", "non-ascii digit", "19 digits",
           "space after comma"]
# The reader's tests also end every line with a lone "\r"; the CLI corpus,
# recorded from DEFECTS, does not.
READER_DEFECTS = [*DEFECTS, "cr"]
# Each replaces one symbol (or one header number) with a spelling int() reads.
SPELLINGS = {"plus": lambda x: "+" + x, "leading zeros": lambda x: "00" + x,
             "underscore": lambda x: "1_0", "non-ascii digit": lambda x: "\u0663",
             "19 digits": lambda x: x.zfill(19)}


def drawing(data):
    """A ``pick`` for ``with_defect`` that draws from Hypothesis ``data``."""
    return lambda options: data.draw(st.sampled_from(options))


def with_defect(text, defect, pick):
    """``text``, canonical array text, with one defect placed by ``pick``,
    which returns one element of the sequence it is given."""
    lines = text.splitlines()
    if defect in ("crlf", "cr"):
        return "".join(ln + {"crlf": "\r\n", "cr": "\r"}[defect] for ln in lines)
    if defect == "blank before header":
        return "\n" + text
    if defect == "blank at end":
        return text + "\n"
    if defect == "no final newline":
        return text[:-1]
    if defect == "blank between rows":
        lines.insert(pick(range(1, max(2, len(lines)))), "")
    elif defect == "header":
        head = lines[0].split()
        head[pick(range(1, len(head)))] = pick(["0", "-1", "1", "x", str(2**64)])
        lines[0] = " ".join(head)
    elif defect in ("tab", "double space", "space after comma"):
        old, new = {"tab": (" ", "\t"), "double space": (" ", "  "),
                    "space after comma": (",", ", ")}[defect]
        where = [n for n, ln in enumerate(lines) if old in ln]
        if where:
            i = pick(where)
            at = pick([n for n, c in enumerate(lines[i]) if c == old])
            lines[i] = lines[i][:at] + new + lines[i][at + 1:]
    elif defect in ("leading space", "trailing space"):
        i = pick(range(len(lines)))
        lines[i] = " " + lines[i] if defect == "leading space" else lines[i] + " "
    elif defect in SPELLINGS:
        i = pick(range(len(lines)))  # the header's numbers too
        tokens = lines[i].replace(",", " , ").split()
        symbols = [n for n, x in enumerate(tokens) if x != ","]
        j = pick(symbols[1:] if i == 0 else symbols)
        tokens[j] = SPELLINGS[defect](tokens[j])
        lines[i] = " ".join(tokens).replace(" , ", ",")
    elif len(lines) > 1:
        i = pick(range(1, len(lines)))
        tokens = lines[i].replace(",", " , ").split()
        j = pick([n for n, x in enumerate(tokens) if x != ","])
        if defect == "extra":
            tokens.insert(j, "0")
        elif defect == "missing":
            del tokens[j]
        elif defect == "comma":
            tokens[j] = "0,0"
        else:
            tokens[j] = {"word": "x", "huge": str(2**64), "negative": "-1",
                         "top": lines[0].split()[-1]}[defect]
        lines[i] = " ".join(tokens).replace(" , ", ",")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(arrays(), st.sampled_from(READER_DEFECTS), st.data())
def test_load_matches_the_oracle_on_one_defect(a, defect, data):
    text = with_defect(dump_array(a), defect, drawing(data))
    assert outcome(load_array, text) == outcome(oracles.load_array, text)


# Cells per chunk, patched down so that chunks hold one to a few lines.
SMALL_CHUNKS = [1, 5, 12]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrays(), st.sampled_from(["none", *READER_DEFECTS]), st.sampled_from(SMALL_CHUNKS),
       st.integers(0, 9), st.data())
def test_load_in_chunks_of_a_few_lines_matches_the_oracle(a, defect, cells, seed, data):
    text = shuffled(dump_array(a), seed)
    if defect != "none":
        text = with_defect(text, defect, drawing(data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_LOAD_CELLS", cells)
        assert outcome(load_array, text) == outcome(oracles.load_array, text)


def with_two_defects(text, first, second, pick):
    """``text``, canonical array text, with defect ``first`` placed among
    the first half of its rows and ``second`` among the rest.  A defect that
    lands on the second half's own header (or on the newline before it) is
    dropped with that header."""
    head, *rows = text.splitlines(keepends=True)
    half = len(rows) // 2
    one = with_defect(head + "".join(rows[:half]), first, pick)
    two = with_defect(head + "".join(rows[half:]), second, pick)
    return one + "".join(two.lstrip("\n").splitlines(keepends=True)[1:])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrays(), st.sampled_from(READER_DEFECTS), st.sampled_from(READER_DEFECTS),
       st.sampled_from(SMALL_CHUNKS), st.data())
def test_load_with_two_defects_in_different_chunks_matches_the_oracle(a, first, second, cells,
                                                                       data):
    """Chunks of a few lines put the two defects in different chunks, so the
    reader must keep the line loop's error order across chunks."""
    text = with_two_defects(dump_array(a), first, second, drawing(data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_LOAD_CELLS", cells)
        assert outcome(load_array, text) == outcome(oracles.load_array, text)


def cut(text, data):
    """``text`` cut into pieces at places drawn from Hypothesis ``data``:
    inside a symbol, between "\\r" and "\\n", inside the header line and
    anywhere, some of them twice, for empty pieces."""
    header = next((i for i, c in enumerate(text) if c in "\r\n"), len(text))
    kinds = [[i for i in range(1, len(text)) if text[i - 1:i + 1].isdigit()],
             [i for i in range(1, len(text)) if text[i - 1:i + 1] == "\r\n"],
             list(range(1, header)), list(range(len(text) + 1))]
    places = [i for kind in kinds if kind for i in data.draw(st.lists(st.sampled_from(kind),
                                                                       max_size=3))]
    places += data.draw(st.lists(st.sampled_from(places or [0]), max_size=2))
    places.sort()
    return [text[i:j] for i, j in zip([0, *places], [*places, len(text)])]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(arrays(), st.lists(st.sampled_from(READER_DEFECTS), max_size=2),
       st.sampled_from(SMALL_CHUNKS), st.data())
def test_load_from_pieces_matches_load_from_the_whole_text(a, defects, cells, data):
    """A text with no defect, one or two, and maybe one of its line ends a
    "\\r" alone, read from pieces cut anywhere: the reader carries each
    partial line over to the piece it ends in."""
    text = dump_array(a)
    if len(defects) == 1:
        text = with_defect(text, defects[0], drawing(data))
    elif defects:
        text = with_two_defects(text, *defects, drawing(data))
    ends = [i for i, c in enumerate(text[:-1]) if c == "\n"]
    if ends and data.draw(st.booleans()):
        i = data.draw(st.sampled_from(ends))
        text = text[:i] + "\r" + text[i + 1:]
    pieces = cut(text, data)
    assert "".join(pieces) == text
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_LOAD_CELLS", cells)
        assert outcome(load_array, pieces) == outcome(load_array, text)


def test_lone_carriage_returns_are_cut_as_the_pieces_arrive_and_into_windows(monkeypatch):
    """A body of 50,000 rows, each ended by a lone "\\r", from pieces of 2^16
    characters: the whole lines of each piece are read as it arrives, in
    chunks of at most 2 * ``_LOAD_CELLS`` characters, as its "\\n" twin's
    are.  Cut only at "\\n", the body was carried whole into one chunk."""
    text = "OA 2 3 2\r" + "0 1 1\r" * 50000
    want, taken, reads = load_array(text.replace("\r", "\n")), 0, []

    def pieces():
        nonlocal taken
        for at in range(0, len(text), 2**16):
            taken += 1
            yield text[at:at + 2**16]
    read_lines = designs._read_lines

    def recording(body, k, aug_width):
        reads.append((taken, len(body)))
        return read_lines(body, k, aug_width)
    monkeypatch.setattr(designs, "_read_lines", recording)
    assert load_array(pieces()) == want
    assert sorted({piece for piece, _ in reads}) == list(range(1, taken + 1)) == [1, 2, 3, 4, 5]
    assert max(size for _, size in reads) <= 2 * designs._LOAD_CELLS


ROWS = "0 1\n" * 5000  # 10,000 cells: more than one chunk at the default size


@pytest.mark.parametrize("cells", [designs._LOAD_CELLS, 1])
@pytest.mark.parametrize("text", [
    "AOA 1 1 2 3\n0 1\n1 0\n",  # s = t, rows of k symbols
    "AOA 1 1 2 3\n0 1 2\n",
    "AOA 2 1 2 3\n0 1\n",  # s > t
    "AOA 0 1 0 3\n2\n0\n",  # k = 0
    "OA 1 0 3\n0\n",
    "OA 0 1 3\n0\n1\n",
    "OA 1 1 1\n0\n",
    "OA 2 2 3\n",  # no rows
    "OA 2 2 3\n\n",
    "OA 1 2 3\n0 1\n2 2",
    f"OA 1 2 {10**18}\n{10**18 - 1} 0\n",
    f"OA 1 2 {10**18}\n{10**18} 0\n",
    "OA 1 2 3\n0 1\n\n2 2\n",  # a blank line between chunks of one line
    f"OA 1 1 3\n0\n{'0' * 40}\n1\n",  # a line longer than a window, and too long a symbol
    "OA 1 2 3\n" + "0 1\r2 2\n" * 3,  # lines split by "\r" outnumber the newlines
    # two errors in different chunks; the line loop raises the one named first
    pytest.param("OA 1 2 3\n0\n" + ROWS + "0 x\n", id="late int() error, early ragged row"),
    pytest.param("OA 0 2 3\n" + ROWS + "0\n", id="header's t, ragged row"),
    pytest.param("OA 1 2 3\n0\n" + ROWS + f"0 {2**64}\n", id="ragged row, past int64"),
    pytest.param(f"OA 1 2 3\n0 {2**64}\n" + ROWS + "5 0\n", id="past int64, out of range"),
    pytest.param("OA 1 2 3\n5 0\n" + ROWS + f"0 {2**64}\n", id="late past int64, out of range"),
    pytest.param("AOA 2 1 2 3\n" + "0 1 0\n" * 5000, id="AOA row shape, s > t"),
    pytest.param("AOA 1 1 2 3\n" + "0 1 0\n" * 5000, id="AOA row shape, s = t"),
])
def test_load_matches_the_oracle_at_the_edges_of_the_whole_text_path(text, cells, monkeypatch):
    monkeypatch.setattr(designs, "_LOAD_CELLS", cells)
    assert outcome(load_array, text) == outcome(oracles.load_array, text)


def shuffled(text, seed, final_newline=True):
    head, *rows = text.splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    out = head + "".join(rows)
    return out if final_newline else out[:-1]


def refuse_the_line_loop(monkeypatch):
    def loop(body, k, aug_width):
        raise AssertionError("canonical text reached the line loop")
    monkeypatch.setattr(designs, "_read_lines", loop)


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("build", [
    lambda: oa_from_generator(rs_generator(GF(3), 2), 2),
    lambda: oa_from_generator(rs_generator(GF(2, 4), 3), 3),  # 4,096 rows
    lambda: linear_aoa(shamir_matrix(GF(11), 2, 4, 8), 2, 4, 8),  # 14,641 rows
    lambda: linear_aoa(shamir_matrix(GF(5), 1, 2, 4), 1, 2, 4),  # a 1-digit augmented field
])
def test_canonical_text_never_reaches_the_line_loop(build, final_newline, monkeypatch):
    a = build()
    text = shuffled(dump_array(a), seed=len(a.grid), final_newline=final_newline)
    refuse_the_line_loop(monkeypatch)
    assert load_array(text) == a


@SETTINGS
@given(arrays(alphabets=[2, 3, 10, 11, 1000, 10**18]), st.booleans(), st.integers(0, 9))
def test_canonical_text_of_any_shape_never_reaches_the_line_loop(a, final_newline, seed):
    """Every symbol below 10^18 has at most 18 digits; a text with no rows
    has no chunk to read."""
    text = shuffled(dump_array(a), seed, final_newline)
    with pytest.MonkeyPatch.context() as mp:
        refuse_the_line_loop(mp)
        assert load_array(text) == a


AOA_2_4_8_11 = linear_aoa(shamir_matrix(GF(11), 2, 4, 8), 2, 4, 8)  # 14,641 rows


def test_canonical_text_is_kept_as_read_without_a_sort(monkeypatch):
    a = AOA_2_4_8_11
    text = dump_array(a)
    assert load_array(shuffled(text, seed=1)) == a

    def sort(*args, **kwargs):
        raise AssertionError("canonical rows were sorted")
    monkeypatch.setattr(np, "argsort", sort)
    monkeypatch.setattr(np, "lexsort", sort)
    loaded = load_array(text)
    assert loaded == a and not loaded.grid.flags.writeable


def test_a_callers_array_in_canonical_order_is_copied_and_left_writeable():
    rows = np.array(AOA_2_4_8_11.grid)
    a = AugmentedOA(2, 4, 8, 11, rows)
    assert a == AOA_2_4_8_11
    assert rows.flags.writeable and not a.grid.flags.writeable
    assert not np.shares_memory(rows, a.grid)


def load_peak(text):
    """The array ``load_array`` reads from ``text``, and its ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        a = load_array(text)
        return a, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_canonical_text_takes_little_more_memory_than_its_grid():
    """Text is parsed a chunk at a time into the one grid, which is kept as
    read: whole-array passes and a sort peaked at 4.57 MiB here."""
    a, peak = load_peak(dump_array(AOA_2_4_8_11))
    assert a == AOA_2_4_8_11
    assert peak <= a.grid.nbytes + 2**19


def test_text_off_the_export_layout_takes_little_more_memory_than_its_dump():
    """CRLF line ends send every chunk to the line loop, which holds one
    chunk's rows as Python ints at a time.  Read whole that way, the body
    peaked at 4.7 MiB over the dump's 1.5 MiB."""
    text = dump_array(AOA_2_4_8_11)
    dumped, dump_peak = load_peak(text)
    crlf, crlf_peak = load_peak(text.replace("\n", "\r\n"))
    assert crlf == dumped == AOA_2_4_8_11
    assert crlf_peak <= dump_peak + 2**19


@pytest.mark.parametrize("defect", ["word", "tab", "plus", "trailing space", "blank at end",
                                    "19 digits"])
def test_a_defect_in_the_last_row_sends_only_the_last_chunk_to_the_line_loop(defect,
                                                                           monkeypatch):
    text = with_defect(dump_array(AOA_2_4_8_11), defect, itemgetter(-1))
    lines = []
    read_lines = designs._read_lines

    def counting(body, k, aug_width):
        lines.append(len(body.splitlines()))
        assert text.endswith(body)
        return read_lines(body, k, aug_width)
    monkeypatch.setattr(designs, "_read_lines", counting)
    assert outcome(load_array, text) == outcome(oracles.load_array, text)
    # one chunk of 2^14 characters, and a row takes 20 at least: 819 of 14,641 lines
    assert len(lines) == 1 and lines[0] <= 2 * designs._LOAD_CELLS // 20
