import random

import pytest

from hnnkit.words import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    enumerate_words,
    format_word,
    free_reduce,
    invert,
    parse_word,
    shortlex_compare,
    shortlex_key,
)

AB = Alphabet.make(["a", "b"])
ABS = Alphabet.make(["a", "b"], ["s"])


def w(alphabet, text):
    return parse_word(alphabet, text)


def test_free_reduce_examples():
    assert format_word(free_reduce(w(AB, "aa'"))) == ""
    assert format_word(free_reduce(w(AB, "abb'a"))) == "aa"
    assert format_word(free_reduce(w(ABS, "s'as"))) == "s'as"


def test_invert_examples():
    assert format_word(invert(w(AB, "ab"))) == "b'a'"
    assert format_word(invert(w(AB, ""))) == ""
    assert format_word(invert(w(ABS, "s'as"))) == "s'a's"


def test_free_reduce_idempotent_and_inverse_cancels():
    rng = random.Random(0)
    for _ in range(300):
        ids = tuple(rng.randrange(AB.n_letters) for _ in range(rng.randint(0, 12)))
        word = Word(AB, ids)
        r = free_reduce(word)
        assert free_reduce(r) == r
        assert len(free_reduce(word * invert(word))) == 0


def test_shortlex_examples():
    assert shortlex_compare(w(AB, "a"), w(AB, "b")) == -1
    assert shortlex_compare(w(AB, "ab"), w(AB, "a")) == 1
    assert shortlex_compare(w(AB, "a"), w(AB, "a'")) == -1
    assert shortlex_compare(w(AB, "ab"), w(AB, "ab")) == 0


def test_shortlex_total_order_random_triples():
    rng = random.Random(1)
    words = [
        Word(AB, tuple(rng.randrange(AB.n_letters) for _ in range(rng.randint(0, 5))))
        for _ in range(60)
    ]
    for _ in range(300):
        x, y, z = rng.choice(words), rng.choice(words), rng.choice(words)
        cxy, cyx = shortlex_compare(x, y), shortlex_compare(y, x)
        assert cxy == -cyx
        if shortlex_compare(x, y) <= 0 and shortlex_compare(y, z) <= 0:
            assert shortlex_compare(x, z) <= 0


def test_shortlex_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        shortlex_compare(w(AB, "a"), w(ABS, "a"))


def test_enumerate_counts():
    a1 = Alphabet.make(["a"])
    assert [format_word(x) for x in enumerate_words(a1, 1)] == ["", "a", "a'"]
    unreduced = list(enumerate_words(AB, 2, freely_reduced_only=False))
    assert len(unreduced) == 21  # 1 + 4 + 16
    reduced = list(enumerate_words(AB, 2, freely_reduced_only=True))
    assert len(reduced) == 17  # 1 + 4 + 12


def test_enumerate_strictly_shortlex_increasing():
    prev = None
    for word in enumerate_words(AB, 3):
        key = shortlex_key(word)
        if prev is not None:
            assert prev < key
        prev = key


def test_parse_format_roundtrip():
    multi = Alphabet.make(["a", "g1"])
    for text in ("", "a", "a'", "a[g1]'a'", "[g1][g1]a"):
        assert format_word(parse_word(multi, text)) == text
    rng = random.Random(2)
    for _ in range(200):
        ids = tuple(rng.randrange(multi.n_letters) for _ in range(rng.randint(0, 8)))
        word = Word(multi, ids)
        assert parse_word(multi, format_word(word)) == word


def test_letter_inverse_involution():
    from hnnkit.words import Letter

    for lid in range(AB.n_letters):
        letter = AB.letter_of_id(lid)
        assert AB.letter_of_id(lid ^ 1) == Letter(letter.generator, -letter.sign)
        assert (lid ^ 1) ^ 1 == lid


def test_parse_errors_have_position():
    from hnnkit.words import WordParseError

    with pytest.raises(WordParseError):
        parse_word(AB, "ax")
    with pytest.raises(WordParseError):
        parse_word(AB, "a[unclosed")


def test_alphabet_equality():
    assert AB == AB and ABS == ABS
    # an equal copy is a distinct object that compares and hashes equal
    copy = Alphabet.make(["a", "b"], ["s"])
    assert copy is not ABS and copy == ABS and hash(copy) == hash(ABS)
    assert w(copy, "s'as") == w(ABS, "s'as")
    # different names, kinds or lengths are different alphabets
    for other in (Alphabet.make(["a", "c"], ["s"]), Alphabet.make(["a", "b", "s"]),
                  AB, Alphabet.make(["a", "b"], ["s", "t"])):
        assert other != ABS and ABS != other
    assert ABS != ("a", "b", "s")
