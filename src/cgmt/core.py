"""Errors, input reading and the small string helpers shared by the package.

Binary strings are plain str values of 0s and 1s; check_bits rejects
anything else.  shown is how an error message echoes an outside value.  pair is the Cantor pairing function and column reads one
column of a bit string viewed as a pairing table, which the column-tree
gadget uses to interleave its columns.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


class CgmtError(Exception):
    """Base class for all library errors."""


class ParseError(CgmtError):
    """Malformed input document: a tree spec, a certificate, a weight object."""


class BudgetExceeded(CgmtError):
    """An enumeration or search exceeded its configured budget."""


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


SHOWN_CHARS = 120


def shown(value) -> str:
    """An outside value as an error message echoes it: a string quoted, anything else as str.

    A value (a spec field, a command-line constant) is echoed whole when
    it is short, a 101-digit depth among them; a longer one keeps its
    first SHOWN_CHARS characters and says how long it was, so one bad
    field cannot make a kilobyte-long error line.
    """
    text = repr(value) if isinstance(value, str) else str(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def check_bits(s: str) -> None:
    """Reject anything that is not a plain 0/1 string."""
    if not isinstance(s, str) or (s and s.strip("01")):
        raise CgmtError(f"not a binary string: {shown(s)}")


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


def compatible(a: str, b: str) -> bool:
    """True when one string is a prefix of the other."""
    return a.startswith(b) or b.startswith(a)
