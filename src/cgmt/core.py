"""Length-lex coding of binary strings and the pairing function.

Binary strings are enumerated shortest-first, ties broken lexicographically:

    "" , "0", "1", "00", "01", "10", "11", "000", ...

so index 0 is the empty string and the strings of length L occupy indices
2^L - 1 .. 2^{L+1} - 2.  A code prefix of "block length" 2^{n+1} - 1 therefore
describes exactly the strings of length <= n, which is the unit all the
jump-level machinery works in.

Index arithmetic is capped at string length DEPTH_CAP = 63, so indices fit
comfortably in a machine word even after squaring.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TypeVar

T = TypeVar("T")

DEPTH_CAP = 63


class CgmtError(Exception):
    """Base class for all library errors."""


class ParseError(CgmtError):
    """Malformed input document: a tree spec, a certificate, a weight object."""


class DepthCapExceeded(CgmtError):
    """Index or string length beyond the depth cap."""


class BudgetExceeded(CgmtError):
    """An enumeration or search exceeded its configured budget."""


class PrefixTooShort(CgmtError):
    """A code prefix does not cover the requested block."""


def read_input(path: str, what: str, parse: Callable[[str], T]) -> T:
    """parse applied to the text of the UTF-8 file at path.

    Every input file (tree spec, certificate, opens file) is read here, so
    that anything it holds fails as a ParseError (exit 3): bytes that are
    not UTF-8, a ValueError of the parse (json.JSONDecodeError among them),
    and nesting past the interpreter's recursion limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return parse(text)
    except RecursionError:
        raise ParseError(f"{what} {path} is nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _check_length(length: int) -> None:
    if length > DEPTH_CAP:
        raise DepthCapExceeded(f"string length {length} exceeds depth cap {DEPTH_CAP}")


def check_bits(s: str) -> None:
    """Reject anything that is not a plain 0/1 string."""
    if not isinstance(s, str) or (s and s.strip("01")):
        raise CgmtError(f"not a binary string: {s!r}")


def index_of(s: str) -> int:
    """Length-lex index of a binary string; index_of('') == 0."""
    check_bits(s)
    _check_length(len(s))
    if not s:
        return 0
    return (1 << len(s)) - 1 + int(s, 2)


def string_at(index: int) -> str:
    """Inverse of index_of."""
    if index < 0:
        raise CgmtError(f"negative index: {index}")
    length = (index + 1).bit_length() - 1
    _check_length(length)
    if length == 0:
        return ""
    rank = index - ((1 << length) - 1)
    return format(rank, f"0{length}b")


def block_length(n: int) -> int:
    """Number of strings of length <= n, i.e. 2^{n+1} - 1."""
    if n < 0:
        raise CgmtError(f"negative block level: {n}")
    _check_length(n)
    return (1 << (n + 1)) - 1


def block_of_prefix_length(length: int) -> int | None:
    """Largest n with block_length(n) <= length, or None below the first block.

    A prefix of length L covers all strings of length <= n exactly when
    L >= 2^{n+1} - 1.
    """
    if length < 1:
        return None
    return (length + 1).bit_length() - 2


def pair(n: int, m: int) -> int:
    """Cantor pairing (n, m) -> (n+m)(n+m+1)/2 + n."""
    if n < 0 or m < 0:
        raise CgmtError(f"pairing needs nonnegative arguments, got ({n}, {m})")
    return (n + m) * (n + m + 1) // 2 + n


def column(bits: str, n: int) -> str:
    """Column n of a prefix viewed as a pairing table.

    Entry m of the result is bits[pair(n, m)]; the column ends at the first
    pair index falling off the end of the prefix.
    """
    check_bits(bits)
    out = []
    m = 0
    while True:
        i = pair(n, m)
        if i >= len(bits):
            return "".join(out)
        out.append(bits[i])
        m += 1


def block_prefix(bits: str, n: int) -> str:
    """Initial segment of a code prefix covering strings of length <= n."""
    check_bits(bits)
    need = block_length(n)
    if len(bits) < need:
        raise PrefixTooShort(f"need {need} bits for block {n}, have {len(bits)}")
    return bits[:need]


def parent(s: str) -> str:
    if not s:
        raise CgmtError("the empty string has no parent")
    return s[:-1]


def children(s: str) -> tuple[str, str]:
    return s + "0", s + "1"


def compatible(a: str, b: str) -> bool:
    """True when one string is a prefix of the other."""
    return a.startswith(b) or b.startswith(a)


def iter_strings(max_length: int) -> Iterator[str]:
    """All binary strings of length <= max_length in length-lex order."""
    _check_length(max_length)
    yield ""
    for length in range(1, max_length + 1):
        for rank in range(1 << length):
            yield format(rank, f"0{length}b")
