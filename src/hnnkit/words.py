"""Alphabets and words over signed generators.

A word is an immutable sequence of signed letters over a fixed alphabet.
Internally a letter is a small integer id: generator index g with sign +1
gets id 2g, with sign -1 gets id 2g+1, so that inversion is ``id ^ 1`` and
the natural order of ids is the shortlex letter order (positive before
negative, earlier generators first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


class AlphabetMismatchError(ValueError):
    """Raised when two words over different alphabets are combined."""


class WordParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Generator:
    name: str
    kind: str  # "base" or "stable"
    index: int


@dataclass(frozen=True)
class Letter:
    generator: Generator
    sign: int

    def __str__(self) -> str:
        return _letter_str(self.generator.name, self.sign)


def _letter_str(name: str, sign: int) -> str:
    body = name if len(name) == 1 else f"[{name}]"
    return body if sign > 0 else body + "'"


class Alphabet:
    """A fixed, ordered set of generators (base generators before stable ones)."""

    def __init__(self, generators: Sequence[Generator]):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for i, g in enumerate(generators):
            if g.index != i:
                raise ValueError(f"generator {g.name} has index {g.index}, expected {i}")
        self.generators = tuple(generators)
        self.n_letters = 2 * len(self.generators)
        self._by_name = {g.name: g for g in self.generators}

    @classmethod
    def make(cls, base_names: Sequence[str], stable_names: Sequence[str] = ()) -> "Alphabet":
        gens = [Generator(n, "base", i) for i, n in enumerate(base_names)]
        off = len(gens)
        gens += [Generator(n, "stable", off + i) for i, n in enumerate(stable_names)]
        return cls(gens)

    @property
    def base_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.kind == "base")

    @property
    def stable_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.kind == "stable")

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}; have {sorted(self._by_name)}") from None

    def letter_of_id(self, lid: int) -> Letter:
        return Letter(self.generators[lid >> 1], 1 if lid % 2 == 0 else -1)

    def letter_str(self, lid: int) -> str:
        return _letter_str(self.generators[lid >> 1].name, 1 if lid % 2 == 0 else -1)

    def word(self, ids: Sequence[int]) -> "Word":
        return Word(self, tuple(ids))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return isinstance(other, Alphabet) and all(
            (g.name, g.kind) == (h.name, h.kind)
            for g, h in zip(self.generators, other.generators)
        ) and len(self.generators) == len(other.generators)

    def __hash__(self):
        return hash(tuple((g.name, g.kind) for g in self.generators))

    def __repr__(self):
        return f"Alphabet({[g.name for g in self.generators]})"


class Word:
    """An immutable word; ``ids`` is the tuple of internal letter ids."""

    __slots__ = ("alphabet", "ids")

    def __init__(self, alphabet: Alphabet, ids: tuple[int, ...]):
        self.alphabet = alphabet
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Letter]:
        return (self.alphabet.letter_of_id(i) for i in self.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.ids == other.ids
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash(self.ids)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.ids + other.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.ids[i])
        return self.alphabet.letter_of_id(self.ids[i])

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def reduce_ids(ids: Sequence[int]) -> tuple[int, ...]:
    """Free reduction on raw letter ids (stack cancellation of id vs id^1)."""
    out: list[int] = []
    for lid in ids:
        if out and out[-1] == lid ^ 1:
            out.pop()
        else:
            out.append(lid)
    return tuple(out)


def free_reduce(w: Word) -> Word:
    return Word(w.alphabet, reduce_ids(w.ids))


def invert(w: Word) -> Word:
    return Word(w.alphabet, tuple(lid ^ 1 for lid in reversed(w.ids)))


def shortlex_key(w: Word) -> tuple[int, tuple[int, ...]]:
    return (len(w.ids), w.ids)


def shortlex_compare(w1: Word, w2: Word) -> int:
    """-1, 0 or 1; shorter first, ties broken letterwise by (generator, sign)."""
    if w1.alphabet != w2.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    k1, k2 = shortlex_key(w1), shortlex_key(w2)
    return -1 if k1 < k2 else (1 if k1 > k2 else 0)


def enumerate_words(alphabet: Alphabet, max_len: int, freely_reduced_only: bool = True) -> Iterator[Word]:
    """Yield every word of length <= max_len exactly once, in shortlex order.

    With ``freely_reduced_only`` words containing an adjacent letter-inverse
    pair are skipped.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    n = alphabet.n_letters
    yield Word(alphabet, ())
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for prefix in frontier:
            for lid in range(n):
                if freely_reduced_only and prefix and prefix[-1] == lid ^ 1:
                    continue
                ids = prefix + (lid,)
                nxt.append(ids)
                yield Word(alphabet, ids)
        frontier = nxt


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the compact word syntax: ``ab'sa``; bracketed multi-char names ``[g1]'``."""
    ids: list[int] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise WordParseError("unterminated '['", i)
            name = text[i + 1 : j]
            i = j + 1
        elif ch.isspace():
            i += 1
            continue
        else:
            name = ch
            i += 1
        sign = 1
        if i < len(text) and text[i] == "'":
            sign = -1
            i += 1
        try:
            gen = alphabet.generator(name)
        except KeyError:
            raise WordParseError(f"unknown generator {name!r}", i - 1) from None
        ids.append(2 * gen.index + (0 if sign > 0 else 1))
    return Word(alphabet, tuple(ids))


def format_word(w: Word) -> str:
    return "".join(w.alphabet.letter_str(lid) for lid in w.ids)
