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
Finitely generated subgroups of free groups are handled by a folded
edge-labeled automaton; every fold keeps, per edge, an expression over the
original generators so rewrites come out of a single trace of the element.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .base_groups import AbelianOracle, BaseGroupOracle, FreeOracle
from .words import Word, free_reduce

SubgroupWord = tuple  # of (generator index, sign) pairs

# Membership answers a Stallings oracle keeps before it drops them all and
# starts over.  Ball builds and word folds ask about the same segments again
# and again (90 % hits on the g2 radius-8 ball and its checks, 98 % on long
# g2 words); the bound keeps long runs from growing the cache without limit.
_REWRITE_CACHE_SIZE = 1 << 16


class SchreierDepthError(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"Schreier exploration exceeded depth cap {cap}")
        self.cap = cap


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

    Edges carry expressions over the subgroup generators, maintained through
    every fold, so that membership rewrites fall out of the accepting trace.
    """

    def __init__(self, base: FreeOracle, generator_words: Sequence[Word],
                 depth_cap: int = 10_000):
        if not isinstance(base, FreeOracle):
            raise TypeError("stallings_subgroup requires a free base oracle")
        super().__init__(base, generator_words)
        self.depth_cap = depth_cap
        self._build()
        self._fold()
        alive = [e for e in self.edges if e[4]]
        # rank of the subgroup: E - V + 1 of the folded (connected) graph
        self.rank = len(alive) - len({e[0] for e in alive} | {e[2] for e in alive}) + 1
        self._index()
        self._core_reps()
        self._rewrite_cache: dict = {}

    # -- construction ------------------------------------------------------

    def _build(self):
        # edges[i] = [tail, gen, head, expr, alive]
        self.edges: list[list] = []
        self._incident: list[set[int]] = [set()]  # vertex -> edge ids
        base_v = 0
        for j, gw in enumerate(self.generator_words):
            cur = base_v
            n = len(gw.ids)
            for p, lid in enumerate(gw.ids):
                tgt = base_v if p == n - 1 else self._new_vertex()
                g, sign = lid >> 1, (1 if lid % 2 == 0 else -1)
                last = p == n - 1
                if sign > 0:
                    expr = ((j, 1),) if last else ()
                    self._add_edge(cur, g, tgt, expr)
                else:
                    expr = ((j, -1),) if last else ()
                    self._add_edge(tgt, g, cur, expr)
                cur = tgt

    def _new_vertex(self) -> int:
        self._incident.append(set())
        return len(self._incident) - 1

    def _add_edge(self, tail: int, gen: int, head: int, expr: SubgroupWord) -> int:
        eid = len(self.edges)
        self.edges.append([tail, gen, head, expr, True])
        self._incident[tail].add(eid)
        self._incident[head].add(eid)
        return eid

    # -- folding -----------------------------------------------------------

    def _find_conflict(self, v: int):
        seen_out: dict[int, int] = {}
        seen_in: dict[int, int] = {}
        for eid in self._incident[v]:
            tail, gen, head, _expr, alive = self.edges[eid]
            if not alive:
                continue
            if tail == v:
                if gen in seen_out and seen_out[gen] != eid:
                    return seen_out[gen], eid, "out"
                seen_out[gen] = eid
            if head == v:
                if gen in seen_in and seen_in[gen] != eid:
                    return seen_in[gen], eid, "in"
                seen_in[gen] = eid
        return None

    def _fold(self):
        work = deque(range(len(self._incident)))
        while work:
            v = work.popleft()
            while True:
                found = self._find_conflict(v)
                if found is None:
                    break
                e, f, direction = found
                ee, ff = self.edges[e], self.edges[f]
                # delta expresses c(kept endpoint) * c(merged endpoint)^-1
                delta = _sw_reduce(_sw_invert(ee[3]) + ff[3])
                if direction == "out":
                    keep, merge = ee[2], ff[2]
                else:
                    # c_{tail_e} * c_{tail_f}^-1 = g_e * g_f^-1
                    delta = _sw_reduce(ee[3] + _sw_invert(ff[3]))
                    keep, merge = ee[0], ff[0]
                if merge == 0:  # the base vertex stays: merge the other way
                    keep, merge, delta = merge, keep, _sw_invert(delta)
                if keep != merge:
                    work.extend(self._merge_vertex(keep, merge, delta))
                    work.append(v)
                # after endpoint merging, f duplicates e
                ff = self.edges[f]
                if ff[4] and ff[0] == ee[0] and ff[1] == ee[1] and ff[2] == ee[2]:
                    ff[4] = False
                    self._incident[ff[0]].discard(f)
                    self._incident[ff[2]].discard(f)

    def _merge_vertex(self, keep: int, merge: int, delta: SubgroupWord):
        """Redirect every edge at ``merge`` to ``keep``; returns vertices to recheck."""
        touched = [keep]
        inv_delta = _sw_invert(delta)
        for eid in list(self._incident[merge]):
            rec = self.edges[eid]
            if not rec[4]:
                continue
            tail, _gen, head, expr, _ = rec
            if tail == merge:
                rec[0] = keep
                rec[3] = _sw_reduce(delta + rec[3])
            if head == merge:
                rec[2] = keep
                rec[3] = _sw_reduce(rec[3] + inv_delta)
            self._incident[keep].add(eid)
            touched.append(rec[0] if rec[0] != keep else rec[2])
        self._incident[merge] = set()
        return touched

    # -- folded automaton queries -------------------------------------------

    def _index(self):
        self.out: dict[int, dict[int, tuple[int, int]]] = {}
        self.inc: dict[int, dict[int, tuple[int, int]]] = {}
        for eid, (tail, gen, head, _expr, alive) in enumerate(self.edges):
            if not alive:
                continue
            if self.out.setdefault(tail, {}).setdefault(gen, (head, eid)) != (head, eid):
                raise AssertionError("automaton not folded: duplicate out-label")
            if self.inc.setdefault(head, {}).setdefault(gen, (tail, eid)) != (tail, eid):
                raise AssertionError("automaton not folded: duplicate in-label")

    def is_folded(self) -> bool:
        """Structural determinism check: no repeated label in either direction."""
        for v in range(len(self._incident)):
            if self._find_conflict(v) is not None:
                return False
        return True

    def _step(self, v: int, lid: int):
        g = lid >> 1
        table = self.out if lid % 2 == 0 else self.inc
        hit = table.get(v, {}).get(g)
        return hit  # (next vertex, edge id) or None

    def membership_with_rewrite(self, key) -> Optional[SubgroupWord]:
        if key in self._rewrite_cache:
            return self._rewrite_cache[key]
        v = 0
        parts: list[tuple[int, int]] = []
        result: Optional[SubgroupWord] = None
        ok = True
        for lid in key:
            hit = self._step(v, lid)
            if hit is None:
                ok = False
                break
            nxt, eid = hit
            expr = self.edges[eid][3]
            if lid % 2 == 0:
                parts.extend(expr)
            else:
                parts.extend(_sw_invert(expr))
            v = nxt
        if ok and v == 0:
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
                hit = self._step(v, lid)
                if hit is not None and hit[0] not in reps:
                    reps[hit[0]] = reps[v] + (lid,)
                    queue.append(hit[0])
        self._reps = reps

    def coset_rep(self, key):
        if len(key) > self.depth_cap:
            raise SchreierDepthError(self.depth_cap)
        v = 0
        for i, lid in enumerate(key):
            hit = self._step(v, lid)
            if hit is None:
                # the key is freely reduced, so nothing after it cancels
                return self._reps[v] + key[i:]
            v = hit[0]
        return self._reps[v]


def cyclic_subgroup(oracle: AbelianOracle, generator_word: Word) -> CyclicSubgroup:
    return CyclicSubgroup(oracle, generator_word)


def stallings_subgroup(oracle: FreeOracle, generator_words: Sequence[Word],
                       depth_cap: int = 10_000) -> StallingsSubgroup:
    return StallingsSubgroup(oracle, generator_words, depth_cap=depth_cap)
