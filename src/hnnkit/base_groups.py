"""Base-group oracles: element arithmetic, canonical keys and geodesic lengths.

Two oracle kinds are implemented, covering finitely generated abelian groups
(canonical coordinates from the Smith normal form of the relation lattice)
and free groups (canonical keys are freely reduced words).  Every oracle
exposes the same small surface used throughout the toolkit:

    identity_key() -> key
    apply_letter(key, lid)
    mult_key(k1, k2), inv_key(k)
    evaluate(word) -> key
    key_str(key), word_of_key(key)

apply_letter_left(lid, key) is derived once, in BaseGroupOracle: the key of
the letter times the key.

Keys are hashable values; two words represent the same group element iff
their keys are equal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .words import Alphabet, Word, reduce_ids

if TYPE_CHECKING:
    from .cayley import BallIndex


class BaseGroupOracle:
    """Shared plumbing; concrete oracles fill in the arithmetic."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def identity_key(self):
        raise NotImplementedError

    def apply_letter(self, key, lid: int):
        raise NotImplementedError

    def apply_letter_left(self, lid: int, key):
        return self.mult_key(self.apply_letter(self.identity_key(), lid), key)

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


class OracleKeys:
    """The trivial key table of a base oracle: its codes are the oracle's keys."""

    def __init__(self, oracle: BaseGroupOracle):
        self.oracle = oracle
        self.identity = oracle.identity_key()

    def row(self, key) -> list:
        apply_letter = self.oracle.apply_letter
        return [apply_letter(key, lid) for lid in range(self.oracle.alphabet.n_letters)]

    def key(self, code):
        return code

    def encode(self, key):
        return key

    def new_codes(self) -> list:
        """A ball's code container, holding the identity: a list of keys."""
        return [self.identity]


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0.

    The Euclidean recurrence on |a|, |b| with the signs put back afterwards,
    so the coefficients (and hence the Smith transforms) are those of
    sympy's integer ``gcdex``.
    """
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    sa, a = (-1, -a) if a < 0 else (1, a)
    sb, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * sa, y * sb, a


def _add_rows(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # rows i, j := a*row_i + b*row_j, c*row_i + d*row_j
    ri, rj = m[i], m[j]
    for k in range(len(ri)):
        e = ri[k]
        ri[k] = a * e + b * rj[k]
        rj[k] = c * e + d * rj[k]


def _add_columns(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # columns i, j := a*col_i + b*col_j, c*col_i + d*col_j
    for row in m:
        e = row[i]
        row[i] = a * e + b * row[j]
        row[j] = c * e + d * row[j]


def _smith_decomp(m: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith decomposition of a nonempty integer matrix, modified in place.

    Returns (invariants, S, T), S and T unimodular, with S*M*T the matrix
    whose diagonal is the invariants and whose other entries are 0.  The
    steps, and so S and T, are those of sympy 1.14's ``_smith_normal_decomp``
    over ZZ: pivot search, row then column clearing by ``_gcdex``, a
    nonnegative pivot, recursion on the lower-right block, the divisibility
    fix-up, and zero pivots rotated to the end.
    """
    rows, cols = len(m), len(m[0])
    s, t = _eye(rows), _eye(cols)

    # bring a nonzero entry of the first column, else of the first row, to m[0][0]
    if not m[0][0]:
        i = next((i for i in range(rows) if m[i][0]), None)
        if i is not None:
            m[0], m[i] = m[i], m[0]
            s[0], s[i] = s[i], s[0]
        else:
            j = next((j for j in range(cols) if m[0][j]), None)
            if j is not None:
                for mat in (m, t):
                    for row in mat:
                        row[0], row[j] = row[j], row[0]

    while any(m[0][1:]) or any(m[i][0] for i in range(1, rows)):
        pivot = m[0][0]
        for j in range(1, rows):
            if not m[j][0]:
                continue
            q, r = divmod(m[j][0], pivot)
            if not r:
                op = (1, 0, -q, 1)
            else:
                a, b, g = _gcdex(pivot, m[j][0])
                op = (a, b, m[j][0] // g, -(pivot // g))
                pivot = g
            _add_rows(m, 0, j, *op)
            _add_rows(s, 0, j, *op)
        pivot = m[0][0]
        for j in range(1, cols):
            if not m[0][j]:
                continue
            q, r = divmod(m[0][j], pivot)
            if not r:
                op = (1, 0, -q, 1)
            else:
                a, b, g = _gcdex(pivot, m[0][j])
                op = (a, b, m[0][j] // g, -(pivot // g))
                pivot = g
            _add_columns(m, 0, j, *op)
            _add_columns(t, 0, j, *op)

    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[0] = [-x for x in s[0]]

    invs: list[int] = []
    if rows > 1 and cols > 1:
        invs, s_small, t_small = _smith_decomp([r[1:] for r in m[1:]])
        s = _matmul([[1] + [0] * (rows - 1)] + [[0] + r for r in s_small], s)
        t = _matmul(t, [[1] + [0] * (cols - 1)] + [[0] + r for r in t_small])

    if m[0][0]:
        result = [m[0][0]] + invs
        # m[0][0] need not divide the invariants of the lower-right block
        for i in range(len(result) - 1):
            a, b = result[i], result[i + 1]
            if not b or b % a == 0:
                break
            x, y, d = _gcdex(a, b)
            alpha, beta = a // d, b // d
            _add_rows(s, i, i + 1, 1, 0, x, 1)
            _add_columns(t, i, i + 1, 1, y, 0, 1)
            _add_rows(s, i, i + 1, 1, -alpha, 0, 1)
            _add_columns(t, i, i + 1, 1, 0, -beta, 1)
            _add_rows(s, i, i + 1, 0, 1, -1, 0)
            result[i], result[i + 1] = d, b * alpha
    else:
        s = s[1:] + s[:1]
        t = [r[1:] + r[:1] for r in t]
        result = invs + [0]
    return result, s, t


def _unimodular_inverse(s: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix S.

    Read off S's own Smith decomposition S2*S*T2 = D: S is unimodular
    exactly when D is the identity, and then S^-1 = T2*S2.
    """
    diag, s2, t2 = _smith_decomp([row[:] for row in s])
    if diag != [1] * len(s):
        raise RuntimeError("Smith decomposition self-check failed: S is not unimodular")
    return _matmul(t2, s2)


def _snf_images(n_gens: int, relator_vectors: list[tuple[int, ...]]):
    """Quotient Z^n_gens by the lattice spanned by relator_vectors.

    Returns (free_rank, moduli, images, preimages, rows) where images[i] is
    the coordinate tuple of generator i, laid out as free coordinates
    followed by torsion coordinates (one per modulus), and preimages maps a
    coordinate row back to an exponent vector over the generators.

    The coordinates are the rows of S in the Smith decomposition S*M*T = D
    of the matrix M whose columns are the relator vectors, computed by
    ``_smith_decomp`` (sympy 1.14's ``_smith_normal_decomp`` step for step),
    so they are the coordinates sympy's ``smith_normal_decomp`` gives.
    """
    if not relator_vectors or not n_gens:
        images = []
        for i in range(n_gens):
            v = [0] * n_gens
            v[i] = 1
            images.append(tuple(v))
        preimages = {i: tuple(img) for i, img in enumerate(images)}
        return n_gens, (), images, preimages, list(range(n_gens))

    m = [list(col) for col in zip(*relator_vectors)]  # columns = relators
    diag, s, t = _smith_decomp([row[:] for row in m])
    d = _matmul(_matmul(s, m), t)
    if any(d[i][j] != (diag[i] if i == j else 0)
           for i in range(len(d)) for j in range(len(d[0]))):
        raise RuntimeError("Smith decomposition self-check failed: S*M*T != D")
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
        col = [s[r][g] for r in rows]
        for j, mod in enumerate(moduli):
            idx = len(free_rows) + j
            col[idx] %= mod
        images.append(tuple(col))
    s_inv = _unimodular_inverse(s)
    preimages = {r: tuple(s_inv[g][r] for g in range(n_gens)) for r in rows}
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
    if ball is not None and ball.oracle is not oracle:
        raise ValueError("the ball is over a different oracle")
    key = oracle.evaluate(w)
    exact = oracle.geodesic_length_exact(key)
    if exact is not None:
        return exact
    if ball is None:
        raise ValueError("this oracle needs a ball for geodesic lengths")
    from .cayley import locate

    return ball.distance_of(locate(ball, key))
