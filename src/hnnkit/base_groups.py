"""Base-group oracles: element arithmetic, canonical keys and geodesic lengths.

Two oracle kinds are implemented, covering finitely generated abelian groups
(canonical coordinates from the Smith normal form of the relation lattice)
and free groups (canonical keys are freely reduced words).  Every oracle
exposes the same small surface used throughout the toolkit:

    identity_key() -> key
    apply_letter(key, lid) / apply_letter_left(lid, key)
    mult_key(k1, k2), inv_key(k)
    evaluate(word) -> key
    key_str(key), word_of_key(key)

Keys are hashable values; two words represent the same group element iff
their keys are equal.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cayley import BallIndex, OracleKeys, locate
from .words import Alphabet, Word, reduce_ids


class BaseGroupOracle:
    """Shared plumbing; concrete oracles fill in the arithmetic."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def identity_key(self):
        raise NotImplementedError

    def apply_letter(self, key, lid: int):
        raise NotImplementedError

    def apply_letter_left(self, lid: int, key):
        raise NotImplementedError

    def mult_key(self, k1, k2):
        raise NotImplementedError

    def inv_key(self, key):
        raise NotImplementedError

    def evaluate(self, word: Word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        key = self.identity_key()
        for lid in word.ids:
            key = self.apply_letter(key, lid)
        return key

    def key_str(self, key) -> str:
        raise NotImplementedError

    def word_of_key(self, key) -> Word:
        raise NotImplementedError

    def geodesic_length_exact(self, key) -> Optional[int]:
        """Length without a ball search, when the oracle knows it; else None."""
        return None

    def is_identity(self, key) -> bool:
        return key == self.identity_key()

    def key_table(self) -> OracleKeys:
        """The key table of a ball over this oracle: its keys as they are."""
        return OracleKeys(self)


def _snf_images(n_gens: int, relator_vectors: list[tuple[int, ...]]):
    """Quotient Z^n_gens by the lattice spanned by relator_vectors.

    Returns (free_rank, moduli, images, preimages, rows) where images[i] is
    the coordinate tuple of generator i, laid out as free coordinates
    followed by torsion coordinates (one per modulus), and preimages maps a
    coordinate row back to an exponent vector over the generators.
    """
    if not relator_vectors:
        images = []
        for i in range(n_gens):
            v = [0] * n_gens
            v[i] = 1
            images.append(tuple(v))
        preimages = {i: tuple(img) for i, img in enumerate(images)}
        return n_gens, (), images, preimages, list(range(n_gens))

    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    m = Matrix([list(v) for v in relator_vectors]).T  # columns = relators
    d, s, _t = smith_normal_decomp(m)
    diag = [int(d[i, i]) for i in range(min(d.rows, d.cols))]
    free_rows = []
    torsion_rows = []
    moduli = []
    for i in range(n_gens):
        di = diag[i] if i < len(diag) else 0
        di = abs(di)
        if di == 0:
            free_rows.append(i)
        elif di > 1:
            torsion_rows.append(i)
            moduli.append(di)
    rows = free_rows + torsion_rows
    images = []
    for g in range(n_gens):
        col = [int(s[r, g]) for r in rows]
        for j, mod in enumerate(moduli):
            idx = len(free_rows) + j
            col[idx] %= mod
        images.append(tuple(col))
    s_inv = s.inv()
    preimages = {r: tuple(int(s_inv[g, r]) for g in range(n_gens)) for r in rows}
    return len(free_rows), tuple(moduli), images, preimages, rows


class AbelianOracle(BaseGroupOracle):
    """Finitely generated abelian group given by generators and relator words."""

    def __init__(self, alphabet: Alphabet, relators: Sequence[Word]):
        if alphabet.stable_generators:
            raise ValueError("base alphabet must not contain stable letters")
        self.alphabet = alphabet
        self.relators = tuple(relators)
        n = len(alphabet.generators)
        vectors = []
        for r in self.relators:
            if r.alphabet != alphabet:
                raise ValueError("relator is over a different alphabet")
            v = [0] * n
            for lid in r.ids:
                v[lid >> 1] += 1 if lid % 2 == 0 else -1
            vectors.append(tuple(v))
        self.free_rank, self.moduli, images, self._preimages, self._rows = _snf_images(n, vectors)
        self.images = [tuple(img) for img in images]
        self._dim = self.free_rank + len(self.moduli)
        self._identity = (0,) * self._dim
        # per letter id, the delta added by one application
        self._deltas = []
        for g in range(n):
            self._deltas.append(self.images[g])
            self._deltas.append(tuple(-x for x in self.images[g]))
        for r in self.relators:
            if not self.is_identity(self.evaluate(r)):
                raise ValueError(f"relator {r} does not evaluate to the identity")

    def identity_key(self):
        return self._identity

    def _norm(self, coords: list[int]) -> tuple[int, ...]:
        fr = self.free_rank
        for j, mod in enumerate(self.moduli):
            coords[fr + j] %= mod
        return tuple(coords)

    def apply_letter(self, key, lid: int):
        d = self._deltas[lid]
        return self._norm([a + b for a, b in zip(key, d)])

    def apply_letter_left(self, lid: int, key):
        return self.apply_letter(key, lid)

    def mult_key(self, k1, k2):
        return self._norm([a + b for a, b in zip(k1, k2)])

    def inv_key(self, key):
        return self._norm([-a for a in key])

    def key_str(self, key) -> str:
        fr = self.free_rank
        s = ",".join(str(x) for x in key[:fr])
        if self.moduli:
            s += ";" + ",".join(str(x) for x in key[fr:])
        return s

    def word_of_key(self, key) -> Word:
        n = len(self.alphabet.generators)
        exps = [0] * n
        for pos, row in enumerate(self._rows):
            c = key[pos]
            pre = self._preimages[row]
            for g in range(n):
                exps[g] += c * pre[g]
        ids = []
        for g, e in enumerate(exps):
            lid = 2 * g if e > 0 else 2 * g + 1
            ids.extend([lid] * abs(e))
        return Word(self.alphabet, tuple(ids))


class FreeOracle(BaseGroupOracle):
    """Free group; canonical keys are tuples of freely reduced letter ids."""

    def __init__(self, alphabet: Alphabet):
        if alphabet.stable_generators:
            raise ValueError("base alphabet must not contain stable letters")
        self.alphabet = alphabet
        self.relators = ()

    def identity_key(self):
        return ()

    def apply_letter(self, key, lid: int):
        if key and key[-1] == lid ^ 1:
            return key[:-1]
        return key + (lid,)

    def apply_letter_left(self, lid: int, key):
        if key and key[0] == lid ^ 1:
            return key[1:]
        return (lid,) + key

    def mult_key(self, k1, k2):
        i = len(k1)
        j = 0
        while i > 0 and j < len(k2) and k1[i - 1] == k2[j] ^ 1:
            i -= 1
            j += 1
        return k1[:i] + k2[j:]

    def inv_key(self, key):
        return tuple(lid ^ 1 for lid in reversed(key))

    def evaluate(self, word: Word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        return reduce_ids(word.ids)

    def key_str(self, key) -> str:
        return "".join(self.alphabet.letter_str(lid) for lid in key)

    def word_of_key(self, key) -> Word:
        return Word(self.alphabet, key)

    def geodesic_length_exact(self, key) -> Optional[int]:
        return len(key)


def abelian_from_presentation(generators: Sequence[str], relators: Sequence[Word | str]) -> AbelianOracle:
    """Build the abelian oracle for <generators | relators, all commutators>."""
    alphabet = Alphabet.make(list(generators))
    from .words import parse_word

    rel_words = [
        r if isinstance(r, Word) else parse_word(alphabet, r) for r in relators
    ]
    return AbelianOracle(alphabet, rel_words)


def free_oracle(generators: Sequence[str]) -> FreeOracle:
    return FreeOracle(Alphabet.make(list(generators)))


def base_geodesic_length(oracle: BaseGroupOracle, w: Word,
                         ball: Optional[BallIndex] = None) -> int:
    """Word-metric length of the element of w in the base Cayley graph.

    Oracles without an exact length read it off the ball over this oracle,
    which is extended as far as the element needs.
    """
    key = oracle.evaluate(w)
    exact = oracle.geodesic_length_exact(key)
    if exact is not None:
        return exact
    if ball is None:
        raise ValueError("this oracle needs a ball for geodesic lengths")
    return ball.dist[locate(ball, key)]
