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

A word is held as a tuple of ids or, when built from `bytes`, as one byte
per letter; both forms are one value (see `Word`).  `Word(...)` and
`parse_word` check everything they are given; `Word._trusted` skips the
checks and is only for words dense by construction, such as those
`iter_canonical_words` yields.
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
    use `object.__setattr__`, and `_trusted` the slots' own setters."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """An instance holding `values`, one per slot in order, without the
        checks of `cls(...)`: only for values that are valid by construction."""
        self = object.__new__(cls)
        for put, value in zip(cls._slot_setters, values):
            put(self, value)
        return self

    def __init_subclass__(cls):
        cls._slot_setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

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

    @classmethod
    def _trusted(cls, letters, _bytes, alphabet_size) -> Word:
        # `_Frozen._trusted` unrolled: the canonical walk makes one word per call.
        self = object.__new__(cls)
        put_letters, put_bytes, put_size = cls._slot_setters
        put_letters(self, letters)
        put_bytes(self, _bytes)
        put_size(self, alphabet_size)
        return self

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

    A successor walk without recursion (restricted growth strings, in the
    manner of Knuth's Algorithm H) steps through the prefixes of length - 2
    letters, and two nested loops append every last pair that brings the
    prefix's symbols to exactly `alphabet_size`.  Each prefix is built once
    for all the words that share it, and the walk holds a constant number of
    length-sized lists and tuples.  The words are dense by construction, so
    they are built by `Word._trusted`, without `Word(...)`'s checks.
    """
    if length < 1 or alphabet_size < 1:
        raise ValueError("length and alphabet size must be at least 1")
    n = alphabet_size
    if length < n:
        return
    word = Word._trusted
    if length == 1:
        yield word((0,), None, 1)
        return
    m = length - 2
    letters = [0] * length
    used = [0] * length  # used[j]: symbols among letters[: j + 1]
    i, c, u = 0, 0, 1
    while True:
        if m:
            # Set letters[i] to c, leaving u symbols used, and refill the tail
            # with its least completion: zeros, then the unused symbols in order.
            fill = length - 1 - i - (n - u)
            letters[i:] = [c] + [0] * fill + list(range(u, n))
            used[i:] = [u] * (1 + fill) + list(range(u + 1, n + 1))
            prefix, u = tuple(letters[:m]), used[m - 1]
        else:
            prefix, u = (), 0
        # The last two letters raise the u used symbols to exactly n; v counts
        # the symbols used once a is appended.
        for a in range(min(u + 1, n)):
            v = u + (a == u)
            if v + 1 >= n:
                head = prefix + (a,)
                for b in range(0 if v == n else n - 1, n):
                    yield word(head + (b,), None, n)
        # Raise the rightmost prefix letter that can grow and leave room for the rest.
        for i in range(m - 1, 0, -1):
            c = letters[i] + 1
            p = used[i - 1]
            u = p if p > c else c + 1
            if c < n and c <= p and u + length - 1 - i >= n:
                break
        else:
            return
