"""Words over exact alphabets, and canonical words as set partitions.

A word is a sequence of symbols where the alphabet is exact: symbols are
dense 0-based integer ids and every id below the alphabet size occurs at
least once.  Textual letters ("abca") are purely a presentation of those
ids.  A canonical word is one whose ids first appear in increasing order
(a restricted growth string).  `parse_word` numbers symbols by first
occurrence, so `parse_word(word.text())` is a word's canonical form.
Canonical words are the set partitions of the positions, symbol i naming
the block of positions where it occurs, so canonical enumeration is
partition enumeration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class EmptyWordError(ValueError):
    """The empty word is not a word."""


class InvalidWordError(ValueError):
    """Symbol ids are not dense 0-based integers."""


_LETTERS_RE = re.compile(r"[a-z]+\Z")
_TOKENS_RE = re.compile(r"[0-9,]+\Z")


@dataclass(frozen=True)
class Word:
    """An immutable symbol sequence over an exact alphabet."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise EmptyWordError("word must contain at least one symbol")
        ids = set(self.letters)
        if ids != set(range(len(ids))):
            raise InvalidWordError(
                f"symbol ids must be exactly 0..{len(ids) - 1}, got {sorted(ids)}"
            )
        # Not a field, so equality, hashing and repr still see only the letters.
        object.__setattr__(self, "_alphabet_size", len(ids))

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def alphabet_size(self) -> int:
        return self._alphabet_size

    def text(self) -> str:
        """Presentation form: letters for alphabets up to 26, else comma-separated ids."""
        return letters_text(self.letters, self.alphabet_size)

    def __str__(self) -> str:
        return self.text()


def symbol_name(symbol: int, alphabet_size: int) -> str:
    """Text for one symbol id: 'a'..'z' for small alphabets, decimal otherwise."""
    if alphabet_size <= 26:
        return chr(ord("a") + symbol)
    return str(symbol)


# Byte i becomes the letter of symbol i, so short alphabets render in C.
_LETTER_TABLE = bytes.maketrans(bytes(range(26)), b"abcdefghijklmnopqrstuvwxyz")


def letters_text(letters: tuple[int, ...], alphabet_size: int) -> str:
    """Text for symbol ids: letters for alphabets up to 26, else comma-separated ids."""
    if alphabet_size <= 26:
        return bytes(letters).translate(_LETTER_TABLE).decode("ascii")
    names = {c: str(c) for c in set(letters)}
    return ",".join(map(names.__getitem__, letters))


def parse_word(text: str) -> Word:
    """Parse a word from text, assigning ids by first occurrence.

    Lowercase letters give one symbol per character; texts containing
    digits or commas are read as comma-separated decimal tokens.
    """
    if not text:
        raise EmptyWordError("empty input")
    if _LETTERS_RE.match(text):
        symbols: str | list[str] = text
    elif _TOKENS_RE.match(text):
        symbols = text.split(",")
        # Every character is a digit or a comma, so only an empty token is malformed.
        if "" in symbols:
            raise InvalidWordError(f"malformed token list: {text!r}")
    else:
        raise InvalidWordError(f"unsupported characters in {text!r}")
    # Tokens are decimal ids, so "01" and "1" name the same symbol.  Each
    # distinct symbol is named once, in order of first occurrence, and the
    # letters are mapped to ids in C.
    names: dict[str, int] = {}
    ids = {s: names.setdefault(s.lstrip("0") or "0", len(names)) for s in dict.fromkeys(symbols)}
    return Word(tuple(map(ids.__getitem__, symbols)))


def iter_canonical_words(length: int, alphabet_size: int) -> Iterator[Word]:
    """Yield every canonical word of `length` with exactly `alphabet_size` symbols.

    Words appear in lexicographic order on their id sequences; the total
    equals the Stirling number of the second kind for (length, alphabet_size).
    A length below the alphabet size yields nothing.
    """
    if length < 1 or alphabet_size < 1:
        raise ValueError("length and alphabet size must be at least 1")
    n = alphabet_size
    if length < n:
        return
    letters = [0] * length
    used = [0] * length  # used[j]: symbols among letters[: j + 1]
    i, c, u = 0, 0, 1
    while True:
        # Set letters[i] to c, leaving u symbols used, and refill the tail with
        # its least completion: zeros, then the unused symbols in order.
        if i == length - 1:
            letters[i], used[i] = c, u
        else:
            fill = length - 1 - i - (n - u)
            letters[i:] = [c] + [0] * fill + list(range(u, n))
            used[i:] = [u] * (1 + fill) + list(range(u + 1, n + 1))
        yield Word(tuple(letters))
        # Raise the rightmost letter that can grow and leave room for the rest.
        for i in range(length - 1, 0, -1):
            c = letters[i] + 1
            p = used[i - 1]
            u = p if p > c else c + 1
            if c < n and c <= p and u + length - 1 - i >= n:
                break
        else:
            return
