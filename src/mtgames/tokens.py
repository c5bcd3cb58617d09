"""Token tables of the game, strategy and winning-set files, read as arrays.

:func:`split` cuts a text into tokens and returns where each token lies
and which line holds it, so that the readers check and convert whole
columns at once. It takes the lexical rules of Python's ``str``:

- a line ends at every ``str.splitlines()`` break, and CRLF is one break;
- tokens are separated by runs of ``str.split()`` whitespace, and a line
  that holds no token is skipped;
- with ``comments``, a ``#`` cuts the rest of its line wherever it stands
  (the strategy reader keeps it, since its comments open a line).

:meth:`Tokens.ints` converts integers of up to ``MAX_DIGITS`` ASCII digits
as arrays and any other token one at a time, and :func:`raise_first` words
the earliest line that breaks a reader's rules. The spec and ``--boxes``
line parsers take each line's tokens from :func:`split_lines`.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GameParseError

# Longest integer token converted as an array. Eight digits stay far inside
# int64 and above every bound the readers apply (MAX_STATES is 10**7).
MAX_DIGITS = 8

# Every str.isspace() code point, and those of them that end a line for
# str.splitlines(); no code point above U+3000 is either.
_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(
    map(chr, range(0x2000, 0x200B))
) + "\u2028\u2029\u202f\u205f\u3000"
_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
# Per code point up to U+3000, and 0 for any above: 1 a space, 2 a break.
_KIND = np.zeros(0x3002, dtype=np.uint8)
_KIND[[ord(c) for c in _SPACES]] = 1
_KIND[[ord(c) for c in _BREAKS]] = 2
_COMMENT = re.compile(f"#[^{_BREAKS}]*")
# With none of these in an ASCII text, spaces and newlines separate its
# tokens, which two compares find; machine-written text is such.
_RARE = [c for c in _SPACES if c < "\x80" and c not in " \n"]


@dataclass(frozen=True)
class Tokens:
    """Where each token of ``text`` lies: code points ``start[t]`` to
    ``start[t] + length[t] - 1``. ``buf`` holds each code point as a byte,
    255 for those above it. Only lines that hold a token count: line i
    holds tokens ``first[i]`` to ``first[i + 1] - 1``, ``per_line[i]`` of
    them, and ``first`` ends with the token count."""

    text: str
    buf: np.ndarray
    start: np.ndarray
    length: np.ndarray
    first: np.ndarray
    per_line: np.ndarray

    def lineno(self, i: int) -> int:
        """The number in the text, from 1, of line i."""
        return len((self.text[: self.start[self.first[i]]] + "x").splitlines())

    def word(self, t: int) -> str:
        """Token ``t``."""
        return self.text[self.start[t] : self.start[t] + self.length[t]]

    def kinds(self, idx: np.ndarray, words: Sequence[str]) -> np.ndarray:
        """The index in ``words``, each ASCII, of each token at the indices
        ``idx``, or -1."""
        kind = np.full(len(idx), -1, dtype=np.int8)
        at, length = self.start[idx], self.length[idx]
        head = self.buf[at]
        for k, word in enumerate(words):
            w = word.encode("ascii")
            hit = np.flatnonzero((head == w[0]) & (length == len(w)))
            for j in range(1, len(w)):
                hit = hit[self.buf[j:][at[hit]] == w[j]]
            kind[hit] = k
        return kind

    def ints(
        self, lines: np.ndarray | slice, cols: Sequence[int], decimal: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tokens ``cols`` of each of the lines ``lines`` (indices or a slice)
        as integers, or 0 where ``int()`` (with ``decimal``,
        ``str.isdecimal()`` and then ``int()``) refuses the token, and where
        it does: arrays of a row per column over all lines, int64, or Python
        ints when a value is beyond int64."""
        idx = (self.first[:-1][lines] + np.array(cols)[:, None]).ravel()
        length = self.length[idx]
        width = min(int(length.max(initial=0)), MAX_DIGITS)
        got = np.zeros(idx.size, dtype=np.int64)
        top = np.zeros(idx.size, dtype=np.uint8)
        # Horner's rule over each token's last ``width`` code points, those
        # before its start taken as 0. A byte that is no digit wraps to 10 or
        # more as uint8, so a token is read here only if its top "digit" is 9
        # or less.
        lead = width - length
        pos = self.start[idx].astype(np.intp)
        pos -= lead
        for d in range(width):
            digit = np.take(self.buf, pos, mode="clip")
            digit -= np.uint8(ord("0"))
            digit *= lead <= d
            np.maximum(top, digit, out=top)
            got *= 10
            got += digit
            pos += 1
        slow = (top > 9) | (length > MAX_DIGITS)
        refused = np.zeros(idx.size, dtype=bool)
        for k in np.flatnonzero(slow).tolist():
            word = self.word(idx[k])
            try:
                one = int(word) if word.isdecimal() or not decimal else None
            except ValueError:
                one = None
            refused[k], one = one is None, one or 0
            if got.dtype != object and not -(2**63) <= one < 2**63:
                got = got.astype(object)
            got[k] = one
        value = np.zeros((len(cols), self.per_line.size), dtype=got.dtype)
        value[:, lines] = got.reshape(len(cols), -1)
        bad = np.zeros(value.shape, dtype=bool)
        bad[:, lines] = refused.reshape(len(cols), -1)
        return value, bad


def split(text: str, comments: bool = True) -> Tokens:
    """Token table of ``text``, by the rules of the module docstring."""
    if comments and "#" in text:
        # A space in its place, so that a CR before and an LF after it stay
        # two line breaks.
        text = _COMMENT.sub(" ", text)
    wide = not text.isascii()
    if wide:
        code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    buf = np.minimum(code, 255).astype(np.uint8) if wide else np.frombuffer(text.encode(), "u1")
    # Whether each code point separates tokens, with a separator at both
    # ends, so that tokens open and close at alternate changes; and whether
    # each breaks a line.
    gap = np.ones(buf.size + 2, dtype=bool)
    inner = gap[1:-1]
    if not wide and not any(c in text for c in _RARE):
        brk = buf == ord("\n")
        np.equal(buf, ord(" "), out=inner)
        inner |= brk
    else:
        kind = _KIND[np.minimum(code, _KIND.size - 1) if wide else buf]
        brk = kind == 2
        np.not_equal(kind, 0, out=inner)
    change = np.flatnonzero(gap[:-1] != gap[1:])
    # Whether a line break lies between each token and the one before: the
    # separator just after the one before, or a later one of the same gap,
    # which thus follows another separator.
    opens = np.ones(change.size // 2 + 1, dtype=bool)
    opens[1:-1] = brk[change[1:-1:2]]
    later = np.flatnonzero(brk & gap[:-2])
    opens[np.searchsorted(change, later, side="right") // 2] = True
    del gap, inner, brk  # freed before the token table is built, which lowers the peak
    # Token positions are int32 below 2**31 code points, which halves the
    # token table, as GameGraph picks its CSR index dtype.
    index = np.int32 if buf.size < 2**31 else np.int64
    start = change[::2].astype(index)
    length = change[1::2].astype(index) - start
    first = np.flatnonzero(opens).astype(index)
    return Tokens(text, buf, start, length, first, np.diff(first))


def raise_first(rows: Sequence[tuple[np.ndarray, Callable[[int], str]]], tok: Tokens) -> None:
    """Raise a :class:`GameParseError` for the earliest line of ``tok`` that
    a row marks, worded by the first row that marks it. A row is a mask over
    the lines and a function of a line's index that gives its message."""
    marked = [(int(np.argmax(mask)), r) for r, (mask, _) in enumerate(rows) if mask.any()]
    if marked:
        at, r = min(marked)
        raise GameParseError(rows[r][1](at), tok.lineno(at))


def split_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number, from 1, and whitespace-separated tokens of every
    line of ``text`` that holds a token once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts
