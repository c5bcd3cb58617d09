"""Token tables of machine-written text files, read as byte arrays.

The game, strategy and winning-set files this package writes are ASCII
lines of tokens separated by single spaces, each line ending in a
newline. :func:`split` proves that shape from the text's bytes and
returns where every token and line starts, so the readers can check and
convert whole columns at once. It returns None for any other text; the
readers then fall back to their line parsers, which accept the looser
forms (comments, blank lines, other whitespace) and word every error.
The game, spec, winning-set and room-box line parsers take each line's
tokens from :func:`split_lines`, which cuts ``#`` comments and skips
blank lines.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Longest integer token read here. Eight digits stay far inside int64 and
# above every bound the readers apply (MAX_STATES is 10**7).
MAX_DIGITS = 8

_NL, _SP = ord("\n"), ord(" ")
_DIGIT0 = np.uint8(ord("0"))
# Token positions are int32, which halves the token table; longer texts go
# to the line parsers.
_MAX_BYTES = 2**31 - 1


@dataclass(frozen=True)
class Tokens:
    """Where each token of a text lies: bytes ``buf[start[t]:start[t] +
    length[t]]``. Line i holds tokens ``first[i]`` to ``first[i + 1] - 1``;
    ``first`` ends with the token count."""

    buf: np.ndarray
    start: np.ndarray
    length: np.ndarray
    first: np.ndarray

    @property
    def per_line(self) -> np.ndarray:
        """Token count of every line."""
        return np.diff(self.first)

    def are(self, idx: np.ndarray, word: bytes) -> bool:
        """Whether every token at the indices ``idx`` is ``word``."""
        if not np.all(self.length[idx] == len(word)):
            return False
        at = self.start[idx]
        return all(np.all(self.buf[at + j] == c) for j, c in enumerate(word))

    def ints(self, idx: np.ndarray) -> np.ndarray | None:
        """Values of the tokens at the indices ``idx``, or None unless each
        is 1 to ``MAX_DIGITS`` ASCII digits."""
        at, length = self.start[idx], self.length[idx]
        value = np.zeros(at.size, dtype=np.int64)
        width = int(length.max(initial=0))
        if width > MAX_DIGITS:
            return None
        pos = np.empty_like(at)
        for j in range(width):
            live = length > j
            # Past a token's end the byte is read but not used; a non-digit
            # byte wraps to 10 or more as uint8.
            np.minimum(np.add(at, j, out=pos), self.buf.size - 1, out=pos)
            digit = self.buf[pos] - _DIGIT0
            if np.any(live & (digit > 9)):
                return None
            np.multiply(value, 10, out=value, where=live)
            np.add(value, digit, out=value, where=live)
        return value

    def fields(self, lines: slice, word: bytes, count: int) -> np.ndarray | None:
        """The integers of the lines ``lines`` as an array of ``count``
        columns, or None unless each line is ``word`` and then ``count``
        integers (the integers alone when ``word`` is empty)."""
        first = self.first[:-1][lines]
        lead = 1 if word else 0
        if not np.all(self.per_line[lines] == lead + count):
            return None
        if word and not self.are(first, word):
            return None
        values = self.ints((first[:, None] + np.arange(lead, lead + count)).ravel())
        return None if values is None else values.reshape(-1, count)


def split(text: str) -> Tokens | None:
    """Token table of ``text``, or None unless it is ASCII, ends in a
    newline and separates its nonempty tokens by single spaces."""
    if not text or not text.isascii() or len(text) > _MAX_BYTES:
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if buf[-1] != _NL:
        return None
    sep = buf == _SP
    sep |= buf == _NL
    # A token is empty where a separator opens the text or follows another.
    if sep[0] or np.any(sep[1:] & sep[:-1]):
        return None
    end = np.flatnonzero(sep).astype(np.int32)
    del sep
    start = np.zeros_like(end)
    start[1:] = end[:-1] + 1
    first = np.flatnonzero(np.concatenate(([True], buf[end] == _NL))).astype(np.int32)
    end -= start
    return Tokens(buf, start, end, first)


def split_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number, from 1, and whitespace-separated tokens of every
    line of ``text`` that holds a token once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts
