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

A word built from `bytes`, one byte per letter, keeps only those bytes and
builds its letter tuple on each read of `letters`.  `parse_word` builds that
form whenever the alphabet fits in a byte, and `split_points` and
`build_graph` then scan the bytes with C builtins: `split_points` calls
`find` and `rfind` once per symbol, and `build_graph` finds the distinct
adjacent pairs of up to 30 symbols in at most 4 integer OR passes, and of
more in one set of 16-bit pair codes.  Words built from a tuple, such as the
canonical words `verify` enumerates, keep the tuple scans, which cost less
on tiny words.
"""

from __future__ import annotations

import re
from collections.abc import Iterator


class EmptyWordError(ValueError):
    """The empty word is not a word."""


class InvalidWordError(ValueError):
    """Symbol ids are not dense 0-based integers."""


# A text is letters or comma-separated decimal tokens; the match ends at the
# first character its form does not allow.
_WORD_RE = re.compile(r"(?P<letters>[a-z]+)|[0-9,]+")
_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"
# Byte i is i: translating it with a word's bytes deleted leaves the absent ids.
_BYTE_IDS = bytes(range(256))


class _Frozen:
    """Base of the immutable values: `==`, `hash`, the `Class(field=value, ...)`
    repr and pickling read the fields, the slots named without a leading `_`,
    and the default constructor takes one value per slot, in order.  The repr
    prints set and dict items sorted, so it depends on the value alone.
    Setting or deleting an attribute raises AttributeError, so constructors
    use `object.__setattr__`."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_value_repr(value)}" for name, value in self._fields().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through the constructor, which sets the slots that `__setattr__` refuses.
        return self.__class__, tuple(self._fields().values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _value_repr(value) -> str:
    """`repr` with the items of every frozenset and dict sorted, also inside
    tuples, so equal values print alike whatever order their sets were built in."""
    kind = type(value)
    if kind is frozenset and value:
        return "frozenset({" + ", ".join(map(_value_repr, sorted(value))) + "})"
    if kind is dict:
        items = (f"{_value_repr(k)}: {_value_repr(v)}" for k, v in sorted(value.items()))
        return "{" + ", ".join(items) + "}"
    if kind is tuple:
        return "(" + ", ".join(map(_value_repr, value)) + ("," if len(value) == 1 else "") + ")"
    return repr(value)


class Word(_Frozen):
    """An immutable symbol sequence over an exact alphabet.

    `letters` is the word as a tuple of ints, the one field `_Frozen`'s value
    methods read.  Given a tuple, the word stores it in the `letters` slot and
    `_bytes` is None.  Given `bytes`, the word keeps only those, as `_bytes`,
    which the letter layers scan in C and pickling keeps; its `letters` slot
    stays empty and each read builds the tuple from the bytes.
    """

    __slots__ = ("letters", "_bytes", "_alphabet_size")

    def __init__(self, letters: tuple[int, ...] | bytes) -> None:
        if type(letters) is not bytes:
            letters = tuple(letters)
        if not letters:
            raise EmptyWordError("word must contain at least one symbol")
        if type(letters) is bytes:
            absent = _BYTE_IDS.translate(None, letters)
            n = 256 - len(absent)
            if absent != _BYTE_IDS[n:]:
                raise _not_dense(n, absent[0])
            object.__setattr__(self, "_bytes", letters)
        else:
            ids = set(letters)
            n = len(ids)
            if ids != set(range(n)):
                raise _not_dense(n, min(set(range(n)) - ids))
            object.__setattr__(self, "letters", letters)
            object.__setattr__(self, "_bytes", None)
        object.__setattr__(self, "_alphabet_size", n)

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: a byte word's empty `letters`
        # slot, or a name the class does not have.
        if name == "letters" and self._bytes is not None:
            return tuple(self._bytes)
        raise AttributeError(f"{self.__class__.__qualname__!r} object has no attribute {name!r}")

    def __reduce__(self):
        return self.__class__, (self._bytes or self.letters,)

    @property
    def length(self) -> int:
        return len(self._bytes or self.letters)

    @property
    def alphabet_size(self) -> int:
        return self._alphabet_size

    def text(self) -> str:
        """Presentation form: letters for alphabets up to 26, else comma-separated ids."""
        return letters_text(self._bytes or self.letters, self.alphabet_size)

    def __str__(self) -> str:
        return self.text()


def _not_dense(n: int, missing: int) -> InvalidWordError:
    # Name one missing id, not the ids: a word may have a million.
    return InvalidWordError(f"symbol ids must be exactly 0..{n - 1}, but {missing} is missing")


# Byte i becomes the letter of symbol i, so short alphabets render in C.
_LETTER_TABLE = bytes.maketrans(_BYTE_IDS[:26], _LOWERCASE.encode("ascii"))


def letters_text(letters: tuple[int, ...] | bytes, alphabet_size: int) -> str:
    """Text for symbol ids: letters for alphabets up to 26, else comma-separated ids."""
    if alphabet_size <= 26:
        return bytes(letters).translate(_LETTER_TABLE).decode("ascii")
    names = {c: str(c) for c in set(letters)}
    return ",".join(map(names.__getitem__, letters))


def parse_word(text: str) -> Word:
    """Parse a word from text, assigning ids by first occurrence.

    Lowercase letters give one symbol per character; texts containing
    digits or commas are read as comma-separated decimal tokens.  The word
    is built from bytes whenever its alphabet fits in a byte.
    """
    if not text:
        raise EmptyWordError("empty input")
    match = _WORD_RE.match(text)
    end = match.end() if match else 0
    if end < len(text):
        raise InvalidWordError(f"unsupported character {text[end]!r} at position {end}")
    if match["letters"]:
        # Each letter's first occurrence orders the symbols; one translate maps them.
        firsts = sorted((i, c) for c in _LOWERCASE if (i := text.find(c)) >= 0)
        table = bytes.maketrans(
            "".join(c for _, c in firsts).encode("ascii"), _BYTE_IDS[: len(firsts)]
        )
        return Word(text.encode("ascii").translate(table))
    symbols = text.split(",")
    # Every character is a digit or a comma, so only an empty token is malformed.
    if "" in symbols:
        at = 0 if text[0] == "," else text.find(",,") + 1 or len(text)
        raise InvalidWordError(f"malformed token list: empty token at position {at}")
    # Tokens are decimal ids, so "01" and "1" name the same symbol.  Each
    # distinct symbol is named once, in order of first occurrence, and the
    # letters are mapped to ids in C.
    names: dict[str, int] = {}
    ids = {s: names.setdefault(s.lstrip("0") or "0", len(names)) for s in dict.fromkeys(symbols)}
    letters = map(ids.__getitem__, symbols)
    return Word(bytes(letters) if len(names) <= 256 else tuple(letters))


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
