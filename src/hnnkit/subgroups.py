"""Associated-subgroup oracles: membership with rewriting, and coset reps.

A subgroup oracle answers two questions about its base group:

  * membership_with_rewrite(key): is the element in the subgroup, and if so,
    how does it spell over the subgroup's designated generator words?  The
    answer is a SubgroupWord, a tuple of (generator index, sign) pairs whose
    expansion through the generator words evaluates back to the element.
  * coset_rep(key): a canonical representative of the right coset (sub)*g,
    constant on cosets, idempotent on representatives, and the identity on
    the subgroup itself.

image(key, target) maps a member onto a subgroup with matched generator
words, generator by generator; this is the isomorphism of an HNN pair.

Cyclic subgroups of abelian groups are handled by exact integer arithmetic.
Finitely generated subgroups of free groups are handled by their folded
(Stallings) graph, kept as one map from (vertex, letter) to (vertex, expr)
that stores each edge under both of its letters.  Every fold keeps, per
edge, an expression over the original generators, so a rewrite comes out of
a single walk of the element, and a coset representative out of a single
walk of its key.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .base_groups import AbelianOracle, BaseGroupOracle, FreeOracle
from .words import Word, free_reduce

SubgroupWord = tuple  # of (generator index, sign) pairs

# Membership answers a Stallings oracle keeps before it drops them all and
# starts over.  Word folds ask about the same segments again and again (95 %
# hits on the g2 half of the words_nf benchmark, length-200 words); a ball
# build seldom asks twice, since its key table splits each segment once per
# stable letter (25 % hits on the g2 radius-8 ball and its checks).  The
# bound keeps long runs from growing the cache without limit.
_REWRITE_CACHE_SIZE = 1 << 16


def _sw_reduce(pairs) -> SubgroupWord:
    out = []
    for j, s in pairs:
        if out and out[-1][0] == j and out[-1][1] == -s:
            out.pop()
        else:
            out.append((j, s))
    return tuple(out)


def _sw_invert(sw: SubgroupWord) -> SubgroupWord:
    return tuple((j, -s) for j, s in reversed(sw))


class SubgroupOracle:
    base: BaseGroupOracle
    generator_words: tuple[Word, ...]
    rank: int  # of the subgroup; equal to the number of generators on a free basis

    def __init__(self, base: BaseGroupOracle, generator_words: Sequence[Word]):
        self.base = base
        gws = []
        for w in generator_words:
            if w.alphabet != base.alphabet:
                raise ValueError("subgroup generator word over a different alphabet")
            r = free_reduce(w)
            if len(r) == 0:
                raise ValueError("subgroup generator words must be nonempty")
            if r.ids != w.ids:
                raise ValueError(f"subgroup generator word {w} is not freely reduced")
            gws.append(w)
        self.generator_words = tuple(gws)

    def membership_with_rewrite(self, key) -> Optional[SubgroupWord]:
        raise NotImplementedError

    def contains(self, key) -> bool:
        return self.membership_with_rewrite(key) is not None

    def coset_rep(self, key):
        """Canonical representative r of the right coset (sub)*g; g = u*r.

        The subgroup's own coset must be represented by the identity, so
        coset_rep(identity) is the identity; HnnSpec rejects an oracle that
        breaks this, because its fold reads membership off the representative.
        """
        raise NotImplementedError

    def coset_rep_left(self, key):
        """Canonical representative r of the left coset g*(sub); g = r*u."""
        return self.base.inv_key(self.coset_rep(self.base.inv_key(key)))

    def expand(self, sw: SubgroupWord) -> Word:
        """The literal word over base generators spelled by a SubgroupWord."""
        ids: list[int] = []
        for j, s in sw:
            gw = self.generator_words[j].ids
            if s > 0:
                ids.extend(gw)
            else:
                ids.extend(lid ^ 1 for lid in reversed(gw))
        return Word(self.base.alphabet, tuple(ids))

    def evaluate_subgroup_word(self, sw: SubgroupWord):
        return self.base.evaluate(self.expand(sw))

    def image(self, key, target: "SubgroupOracle"):
        """Image of key under the generator-wise isomorphism onto target.

        None if key is not a member of this subgroup.
        """
        sw = self.membership_with_rewrite(key)
        if sw is None:
            return None
        return target.evaluate_subgroup_word(sw)


class CyclicSubgroup(SubgroupOracle):
    """<w> inside an abelian base; membership is exact integer divisibility."""

    rank = 1  # w has a free part, so <w> is infinite cyclic

    def __init__(self, base: AbelianOracle, generator_word: Word):
        if not isinstance(base, AbelianOracle):
            raise TypeError("cyclic_subgroup requires an abelian base oracle")
        super().__init__(base, [generator_word])
        self.vector = base.evaluate(generator_word)
        fr = base.free_rank
        if all(x == 0 for x in self.vector):
            raise ValueError("cyclic subgroup generator evaluates to the identity")
        self.pivot = next((i for i in range(fr) if self.vector[i] != 0), None)
        if self.pivot is None:
            raise ValueError(
                "torsion cyclic subgroups are not supported (generator has no free part)"
            )

    def _multiple_of(self, key) -> Optional[int]:
        base: AbelianOracle = self.base  # type: ignore[assignment]
        v = self.vector
        p = self.pivot
        if key[p] % v[p] != 0:
            return None
        n = key[p] // v[p]
        fr = base.free_rank
        for i in range(fr):
            if key[i] != n * v[i]:
                return None
        for j, mod in enumerate(base.moduli):
            if key[fr + j] != (n * v[fr + j]) % mod:
                return None
        return n

    def membership_with_rewrite(self, key) -> Optional[SubgroupWord]:
        n = self._multiple_of(key)
        if n is None:
            return None
        sign = 1 if n > 0 else -1
        return tuple((0, sign) for _ in range(abs(n)))

    def image(self, key, target: "CyclicSubgroup"):
        n = self._multiple_of(key)
        if n is None:
            return None
        return target.base._norm([n * x for x in target.vector])

    def coset_rep(self, key):
        base: AbelianOracle = self.base  # type: ignore[assignment]
        v = self.vector
        p = self.pivot
        m = abs(v[p])
        s = 1 if v[p] > 0 else -1
        n = s * (key[p] // m)
        shifted = [a - n * b for a, b in zip(key, v)]
        return base._norm(shifted)


class StallingsSubgroup(SubgroupOracle):
    """Folded automaton for a finitely generated subgroup of a free group.

    The graph is one two-way labelled map: _adj[v][lid] = (w, expr) is the
    edge from v to w that reads letter id lid, and _adj[w][lid ^ 1] holds the
    same edge read backwards, (v, expr^-1).  Each vertex v stands for an
    element c(v) with c(0) = 1, and every entry satisfies
    c(v) * lid * c(w)^-1 = expand(expr), so reading a member along its path
    from the base vertex 0 back to 0 spells it over the generator words.
    """

    def __init__(self, base: FreeOracle, generator_words: Sequence[Word]):
        if not isinstance(base, FreeOracle):
            raise TypeError("stallings_subgroup requires a free base oracle")
        super().__init__(base, generator_words)
        self._adj: list[dict[int, tuple[int, SubgroupWord]]] = [{}]
        # merged vertex -> (kept vertex, c(kept) * c(merged)^-1); construction only
        self._fwd: dict[int, tuple[int, SubgroupWord]] = {}
        for j, gw in enumerate(self.generator_words):
            v = 0
            for p, lid in enumerate(gw.ids):
                if p == len(gw) - 1:
                    self._insert(v, lid, 0, ((j, 1),))
                else:
                    w = len(self._adj)
                    self._adj.append({})
                    self._insert(v, lid, w, ())
                    v = w
        live = len(self._adj) - len(self._fwd)
        del self._fwd
        # rank of the subgroup: E - V + 1 of the folded (connected) graph
        self.rank = sum(map(len, self._adj)) // 2 - live + 1
        self._core_reps()
        self._rewrite_cache: dict = {}

    # -- construction ------------------------------------------------------

    def _resolve(self, v: int):
        """The live vertex v was merged into, and c(live) * c(v)^-1."""
        delta: SubgroupWord = ()
        while v in self._fwd:
            v, d = self._fwd[v]
            delta = d + delta
        return v, delta

    def _insert(self, v: int, lid: int, w: int, expr: SubgroupWord):
        """Add the edge v --lid--> w and fold until the map is deterministic."""
        adj = self._adj
        work = [(v, lid, w, expr)]
        while work:
            v, lid, w, expr = work.pop()
            v, dv = self._resolve(v)
            w, dw = self._resolve(w)
            expr = _sw_reduce(dv + expr + _sw_invert(dw))
            hit = adj[v].get(lid)
            if hit is not None:
                # two edges leave v reading lid: identify their ends
                keep, gone, delta = hit[0], w, _sw_reduce(_sw_invert(hit[1]) + expr)
            else:
                hit = adj[w].get(lid ^ 1)
                if hit is None:
                    adj[v][lid] = (w, expr)
                    adj[w][lid ^ 1] = (v, _sw_invert(expr))
                    continue
                # folded from w's side: two edges leave w reading lid^-1
                keep, gone = hit[0], v
                delta = _sw_reduce(_sw_invert(hit[1]) + _sw_invert(expr))
            if keep == gone:
                continue  # the same edge again (or, for a non-basis, a parallel one)
            if gone == 0:  # the base vertex stays
                keep, gone, delta = gone, keep, _sw_invert(delta)
            # move every edge of gone onto keep; the new edge now duplicates hit
            self._fwd[gone] = (keep, delta)
            for elid, (x, e) in adj[gone].items():
                if x != gone:
                    del adj[x][elid ^ 1]
                    work.append((gone, elid, x, e))
                elif elid % 2 == 0:  # a loop is stored twice; move it once
                    work.append((gone, elid, gone, e))
            adj[gone] = {}

    def is_folded(self) -> bool:
        """Structural check: every entry has its reverse, with the inverse expr."""
        return all(self._adj[w].get(lid ^ 1) == (v, _sw_invert(expr))
                   for v, row in enumerate(self._adj) for lid, (w, expr) in row.items())

    # -- folded automaton queries -------------------------------------------

    def membership_with_rewrite(self, key) -> Optional[SubgroupWord]:
        if key in self._rewrite_cache:
            return self._rewrite_cache[key]
        v = 0
        parts: list[tuple[int, int]] = []
        result: Optional[SubgroupWord] = None
        for lid in key:
            hit = self._adj[v].get(lid)
            if hit is None:
                break
            v, expr = hit
            parts.extend(expr)
        else:
            if v == 0:
                result = _sw_reduce(parts)
        if len(self._rewrite_cache) >= _REWRITE_CACHE_SIZE:
            self._rewrite_cache.clear()
        self._rewrite_cache[key] = result
        return result

    # -- coset representatives ----------------------------------------------

    def _core_reps(self):
        """Shortlex-minimal spanning-tree word from the base vertex to each vertex."""
        n_letters = self.base.alphabet.n_letters
        reps = {0: ()}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for lid in range(n_letters):
                hit = self._adj[v].get(lid)
                if hit is not None and hit[0] not in reps:
                    reps[hit[0]] = reps[v] + (lid,)
                    queue.append(hit[0])
        self._reps = reps

    def coset_rep(self, key):
        v = 0
        for i, lid in enumerate(key):
            hit = self._adj[v].get(lid)
            if hit is None:
                # the key is freely reduced, so nothing after it cancels
                return self._reps[v] + key[i:]
            v = hit[0]
        return self._reps[v]


def cyclic_subgroup(oracle: AbelianOracle, generator_word: Word) -> CyclicSubgroup:
    return CyclicSubgroup(oracle, generator_word)


def stallings_subgroup(oracle: FreeOracle, generator_words: Sequence[Word]) -> StallingsSubgroup:
    return StallingsSubgroup(oracle, generator_words)
