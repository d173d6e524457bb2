"""Differential tests: the whole-grid text writer and the one-pass reader
against the line-by-line versions in ``oracles``.

Written text must be byte-identical, for arrays of every shape, alphabets up
to 2^63 and arrays longer than one write block.  Reading a valid text, or one
with a single defect, must give an equal array or the same error message.
"""

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
from oaramp.gf import GF

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
ALPHABETS = [2, 3, 10, 11, 1000, 2**62, 2**63]


@st.composite
def arrays(draw):
    v = draw(st.sampled_from(ALPHABETS))
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


def outcome(load, text):
    try:
        return load(text)
    except ValueError as e:
        return type(e), str(e)


DEFECTS = ["extra", "missing", "word", "huge", "negative", "top", "comma", "header"]


@SETTINGS
@given(arrays(), st.sampled_from(DEFECTS), st.data())
def test_load_matches_the_oracle_on_one_defect(a, defect, data):
    lines = dump_array(a).splitlines()
    if defect == "header":
        head = lines[0].split()
        head[data.draw(st.integers(1, len(head) - 1))] = data.draw(
            st.sampled_from(["0", "-1", "1", "x", str(2**64)]))
        lines[0] = " ".join(head)
    elif len(lines) > 1:
        i = data.draw(st.integers(1, len(lines) - 1))
        tokens = lines[i].replace(",", " , ").split()
        j = data.draw(st.sampled_from([n for n, x in enumerate(tokens) if x != ","]))
        if defect == "extra":
            tokens.insert(j, "0")
        elif defect == "missing":
            del tokens[j]
        elif defect == "comma":
            tokens[j] = "0,0"
        else:
            tokens[j] = {"word": "x", "huge": str(2**64), "negative": "-1",
                         "top": str(a.v)}[defect]
        lines[i] = " ".join(tokens).replace(" , ", ",")
    text = "\n".join(lines) + "\n"
    assert outcome(load_array, text) == outcome(oracles.load_array, text)
