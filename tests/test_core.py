import pytest

from cgmt import core
from cgmt.core import CgmtError, check_bits, column, pair, shown


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


def test_reject_non_binary():
    with pytest.raises(CgmtError):
        check_bits("012")
    with pytest.raises(CgmtError):
        column("01x", 0)


def test_compatible():
    assert core.compatible("01", "0110")
    assert core.compatible("", "1")
    assert not core.compatible("01", "00")


def test_shown_clips_only_long_values():
    # short values keep their exact repr, a 101-digit depth among them
    for value in ("01x", 12, -3, True, 10**100, "x" * 118):
        assert shown(value) == repr(value)
    long = shown("1" * 4000)
    assert long == repr("1" * 4000)[:120] + "... (4002 characters)"
    with pytest.raises(CgmtError) as info:
        check_bits("2" * 4000)
    assert len(str(info.value)) < 200
