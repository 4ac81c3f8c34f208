import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgmt import core
from cgmt.core import (
    CgmtError,
    DepthCapExceeded,
    PrefixTooShort,
    block_length,
    block_of_prefix_length,
    block_prefix,
    column,
    index_of,
    iter_strings,
    pair,
    string_at,
)

# Opening of the length-lex enumeration, written out by hand.
FIRST_STRINGS = ["", "0", "1", "00", "01", "10", "11", "000", "001"]


def test_enumeration_start():
    assert [string_at(i) for i in range(len(FIRST_STRINGS))] == FIRST_STRINGS


def test_index_examples():
    assert index_of("") == 0
    assert index_of("01") == 4


def test_roundtrip_exhaustive():
    for i, s in enumerate(iter_strings(12)):
        assert index_of(s) == i
        assert string_at(i) == s


@given(st.text(alphabet="01", max_size=60))
def test_roundtrip_property(s):
    assert string_at(index_of(s)) == s


@given(st.integers(min_value=0, max_value=(1 << 61) - 1))
def test_index_roundtrip_property(i):
    assert index_of(string_at(i)) == i


def test_block_length():
    assert [block_length(n) for n in range(4)] == [1, 3, 7, 15]


def test_block_of_prefix_length():
    assert block_of_prefix_length(0) is None
    # Block n starts being covered exactly at length 2^{n+1} - 1.
    for n in range(6):
        start = block_length(n)
        assert block_of_prefix_length(start) == n
        assert block_of_prefix_length(start - 1) == (n - 1 if n else None)
        assert block_of_prefix_length(start + 1) == n


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(0, 1) == 1
    assert pair(1, 0) == 2
    assert pair(0, 2) == 3
    assert pair(1, 1) == 4
    assert pair(2, 0) == 5


def test_pair_injective_exhaustive():
    seen = {}
    for n in range(65):
        for m in range(65):
            v = pair(n, m)
            assert v not in seen, (n, m, seen[v])
            seen[v] = (n, m)


def test_column_of_ones():
    # pair(0, m) for m = 0..5 is 0, 1, 3, 6, 10, 15; pair(0, 6) = 21 >= 20.
    assert column("1" * 20, 0) == "111111"


def test_column_picks_pair_positions():
    bits = ["0"] * 21
    for m in range(3):
        bits[pair(1, m)] = "1"
    assert column("".join(bits), 1).startswith("111")


def test_block_prefix():
    bits = "1011010"
    assert block_prefix(bits, 1) == "101"
    assert block_prefix(bits, 2) == bits
    with pytest.raises(PrefixTooShort):
        block_prefix(bits, 3)


def test_depth_cap_default():
    assert core.DEPTH_CAP == 63
    with pytest.raises(DepthCapExceeded):
        index_of("0" * 64)
    with pytest.raises(DepthCapExceeded):
        string_at(1 << 64)


def test_reject_non_binary():
    with pytest.raises(CgmtError):
        index_of("012")
    with pytest.raises(CgmtError):
        column("01x", 0)


def test_parent_children_compatible():
    assert core.parent("01") == "0"
    assert core.children("1") == ("10", "11")
    assert core.compatible("01", "0110")
    assert core.compatible("", "1")
    assert not core.compatible("01", "00")
    with pytest.raises(CgmtError):
        core.parent("")
