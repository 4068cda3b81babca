"""Experiment engines: almost-convexity profiling and FFTP search.

Both engines run over a BallIndex and report exact, reproducible results.

The almost-convexity profiler enumerates every pair of same-sphere elements
at distance at most 2 (via one- and two-letter products, never all pairs)
and measures the shortest connecting path that stays inside the ball.  It
visits each g on S(N) once, with one map from the h > g paired with it to
their path: an edge or two letters through a midpoint in B(N) for near
pairs, a two-sided search inside B(N) for far pairs, whose midpoints all
lie on S(N+1) and are read off predecessor links.  Every path is walked
again, and the map is dropped once g is done, so nothing is kept per pair.
Ball ids are assigned in BFS order, so with hi the end of S(N)'s id range,
x is in B(N) iff x < hi and h > g is on S(N) iff g < h < hi: the profiler
reads no distance and allocates nothing per element.

The FFTP searcher works in relative coordinates: while scanning a word w and
a candidate companion v in lockstep, the only thing that matters is the
element w(t)^-1 v(t), which lives in a small ball around the identity.
States are therefore ids in a "relative" ball, transitions are one table
lookup for the companion letter and one for the inverse of w's letter, and
the synchronous fellow-traveling distance is the running maximum of the
state's distance.  Both tables come from the ball alone: the right
transitions are its rows, and the left translates are walked along its
predecessor links, with no oracle call.  A layer maps states to costs:
the moving layer M holds companions still advancing, the resting layer R
those that ended earlier and wait at their endpoint, and one step
(extend_dp) advances either.  The pair (M, R) depends on the word's prefix
alone, so it is the state of a finite automaton: layers are interned as
small ints, the step is memoized, and words are counted per (state, last
letter) one length at a time, not visited.  A word's minimum is R_n(0).
Caps are tried in increasing order, and the first that leaves no word
unresolved gives exact tallies, since a cap only drops costs above itself;
if k_cap leaves words unresolved, that subtree is walked word by word at
k_cap, so they can be listed.
Neumann and Shapiro show that FFTP makes the geodesics a regular language
with states in a bounded ball; a closed automaton (a length that adds no
new state) is evidence of that at the lengths run, not a proof of FFTP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import sub

from .cayley import BallIndex, OutOfBallError, build_ball
from .hnn import MAX_WITNESSES, HnnSpec
from .words import Word, format_word

INF = float("inf")


def fellow_distance(ball: BallIndex, w1: Word, w2: Word) -> int:
    """max over t of d(w1(t), w2(t)), paths resting at their endpoints."""
    oracle = ball.oracle
    if w1.alphabet != oracle.alphabet or w2.alphabet != oracle.alphabet:
        raise ValueError("words must be over the ball oracle's alphabet")
    r = oracle.identity_key()
    best = 0
    for t in range(1, max(len(w1), len(w2)) + 1):
        if t <= len(w1.ids):
            r = oracle.apply_letter_left(w1.ids[t - 1] ^ 1, r)
        if t <= len(w2.ids):
            r = oracle.apply_letter(r, w2.ids[t - 1])
        if r not in ball:
            raise OutOfBallError(len(w1) + len(w2), ball.radius)
        d = ball.distance_of_key(r)
        if d > best:
            best = d
    return best


# -- almost convexity -----------------------------------------------------------


@dataclass
class AcRadiusRecord:
    radius: int
    c: int
    pairs_d1: int
    pairs_d2: int
    witness_g: str = ""
    witness_h: str = ""
    witness_gamma: str = ""
    witness_path: str = ""

    def to_dict(self) -> dict:
        return {
            "N": self.radius,
            "C": self.c,
            "pairs_d1": self.pairs_d1,
            "pairs_d2": self.pairs_d2,
            "witness_g": self.witness_g,
            "witness_h": self.witness_h,
            "witness_gamma": self.witness_gamma,
            "witness_path": self.witness_path,
        }


@dataclass
class AcReport:
    n_max: int
    records: list[AcRadiusRecord] = field(default_factory=list)

    @property
    def max_c(self) -> int:
        return max((r.c for r in self.records), default=0)

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "max_c": self.max_c,
            "records": [r.to_dict() for r in self.records],
        }

    def table_lines(self) -> list[str]:
        out = [f"{'N':>3} {'C(N)':>5} {'pairs(d=1)':>11} {'pairs(d=2)':>11}  witness"]
        for r in self.records:
            wit = f"{r.witness_g} ~ {r.witness_h} via {r.witness_path}" if r.witness_g else ""
            out.append(f"{r.radius:>3} {r.c:>5} {r.pairs_d1:>11} {r.pairs_d2:>11}  {wit}")
        out.append(f"max C over N <= {self.n_max}: {self.max_c}")
        return out


def _inside_bfs(ball: BallIndex, n: int, start: int, goal: int) -> list[int]:
    """Shortest path from start to goal through elements of B(n); letter ids.

    A two-sided search: side 0 grows from start and side 1 from goal, and
    each side maps the elements it reached to (previous element, letter).
    The side with the smaller frontier expands, side 0 on a tie.  The first
    element reached from both sides is the meet, and each half of the path
    is read back from its own side's map.
    """
    if start == goal:
        return []
    hi = ball.sphere(n).stop  # BFS ids: x is in B(n) iff x < hi
    trans = ball.trans
    prev = ({start: (-1, -1)}, {goal: (-1, -1)})
    frontier = [[start], [goal]]
    while True:
        side = len(frontier[0]) > len(frontier[1])  # a bool indexes the sides
        mine, other = prev[side], prev[not side]
        nxt = []
        for v in frontier[side]:
            for lid, t in enumerate(trans[v]):
                if t < hi and t not in mine:
                    mine[t] = (v, lid)
                    if t in other:
                        return _half_path(prev[0], t, 0)[::-1] + _half_path(prev[1], t, 1)
                    nxt.append(t)
        if not nxt:
            raise AssertionError("same-sphere pair not connected inside the ball")
        frontier[side] = nxt


def _half_path(prev: dict[int, tuple[int, int]], v: int, side: int) -> list[int]:
    """Letters read back from v along one side's map of _inside_bfs.

    Side 0's come out in reverse path order; side 1's are inverted (^ 1).
    """
    letters = []
    while prev[v][0] >= 0:
        v, lid = prev[v]
        letters.append(lid ^ side)
    return letters


def ac_profile(ball: BallIndex, n_max: int) -> AcReport:
    """Almost-convexity constants C(N) for N <= n_max, with witness pairs."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if ball.radius < n_max + 1:
        raise OutOfBallError(n_max + 1, ball.radius)
    trans = ball.trans
    start, src = ball.link_start, ball.link_src
    report = AcReport(n_max)
    for n in range(1, n_max + 1):
        d1 = d2 = c = 0
        best = None  # (g, h, path) of the smallest pair with the longest path
        # BFS ids: x is in B(n) iff x < hi, and h > g is on S(n) iff g < h < hi
        sphere = ball.sphere(n)
        hi = sphere.stop
        for g in sphere:
            # h > g on S(n) -> path inside B(n): an edge, two letters through
            # a midpoint in B(n), else (all midpoints on S(n+1)) a BFS path
            paths: dict[int, tuple[int, ...]] = {}
            row = trans[g]
            for lid, m in enumerate(row):
                if g < m < hi:
                    paths.setdefault(m, (lid,))
            edges = len(paths)
            for l1, m in enumerate(row):
                if m < hi:
                    for l2, h in enumerate(trans[m]):
                        if g < h < hi:
                            paths.setdefault(h, (l1, l2))
            # far pairs come off the predecessor links of g's upper
            # neighbours; a neighbour with one link (g's) gives none
            for m in row:
                if m >= hi and start[m + 1] - start[m] > 1:
                    for k in range(start[m], start[m + 1]):
                        h = src[k]
                        if h > g and h not in paths:
                            paths[h] = tuple(_inside_bfs(ball, n, g, h))
            d1 += edges
            d2 += len(paths) - edges
            for h, path in paths.items():
                # re-check the witness path really stays inside B(n)
                v = g
                for lid in path:
                    v = trans[v][lid]
                    if v >= hi:
                        raise AssertionError("witness path leaves the ball")
                if v != h:
                    raise AssertionError("witness path misses its endpoint")
                if len(path) > c or len(path) == c and (g, h) < best[:2]:
                    c, best = len(path), (g, h, path)
        rec = AcRadiusRecord(n, c, d1, d2)
        if best is not None:
            g, h, path = best
            gamma = path  # a near pair's path is a shortest word between g and h
            if len(path) > 2:  # a far pair: two letters through the least common midpoint
                m = min(m for m in trans[g] if m >= hi and m in trans[h])
                gamma = (trans[g].index(m), trans[h].index(m) ^ 1)
            rec.witness_g, rec.witness_h = ball.label(g), ball.label(h)
            rec.witness_gamma = format_word(Word(ball.oracle.alphabet, gamma))
            rec.witness_path = format_word(Word(ball.oracle.alphabet, path))
        report.records.append(rec)
    return report


def ac_bound(group, k: int) -> tuple[str, int]:
    """The bound on C(N) that holds when the base has the k-fellow-traveler property.

    Returns (label, value): 3k for a base group, and the paper's theorem,
    max(6k+2, 4*max|u|), for an isometric HNN extension, where max|u| is the
    longest generator word of an associated subgroup U.
    """
    if k < 0:
        raise ValueError(f"the fellow-traveler constant k must be >= 0, got {k}")
    if not isinstance(group, HnnSpec):
        return "3k (fellow-traveler bound for the base metric)", 3 * k
    max_u = max(len(gw) for pair in group.pairs for gw in pair.u.generator_words)
    return f"max(6k+2, 4*max|u|) with k={k}, max|u|={max_u}", max(6 * k + 2, 4 * max_u)


# -- falsification by fellow traveler -------------------------------------------


@dataclass
class FftpReport:
    k_min: int
    max_len: int
    k_cap: int
    total_words: int
    geodesic_words: int
    histogram: dict  # per-word minimum -> count of non-geodesic words
    witnesses: list  # dicts: word, companion, fellow_distance (one per histogram bucket)
    falsifiers: dict  # k' -> word with per-word minimum > k'
    unresolved: list  # words with no companion within k_cap
    include_unreduced: bool = False

    @property
    def non_geodesic_words(self) -> int:
        return self.total_words - self.geodesic_words

    @property
    def verified(self) -> bool:
        return not self.unresolved

    def to_dict(self) -> dict:
        return {
            "k_min": self.k_min,
            "max_len": self.max_len,
            "k_cap": self.k_cap,
            # the search is exhaustive only; both keys stay so reports keep their bytes
            "mode": "exhaustive",
            "seed": None,
            "include_unreduced": self.include_unreduced,
            "total_words": self.total_words,
            "geodesic_words": self.geodesic_words,
            "non_geodesic_words": self.non_geodesic_words,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "witnesses": self.witnesses,
            "falsifiers": {str(k): v for k, v in sorted(self.falsifiers.items())},
            "unresolved": self.unresolved,
        }

    def table_lines(self) -> list[str]:
        out = [
            f"words of length <= {self.max_len}"
            + ("" if self.include_unreduced else " (freely reduced)")
            + f": {self.total_words}, geodesic {self.geodesic_words}, "
            f"non-geodesic {self.non_geodesic_words}",
            "mode exhaustive",  # kept so table reports keep their bytes
            f"kMin = {self.k_min} (cap {self.k_cap}; "
            + ("verified" if self.verified else f"{len(self.unresolved)} UNRESOLVED")
            + ")",
        ]
        for w in self.witnesses:
            out.append(
                f"  min {w['fellow_distance']}: {w['word']!r} "
                f"~ shorter {w['companion']!r}"
            )
        for k, word in sorted(self.falsifiers.items()):
            out.append(f"  falsifies k={k}: {word!r}")
        for word in self.unresolved:
            out.append(f"  unresolved: {word!r}")
        return out


def fftp_radius(max_len: int, k_cap: int) -> int:
    """Radius of the one ball fftp_search reads.

    Words need radius max_len and the relative DP needs k_cap + 2; BFS ids
    are prefix-stable, so the larger ball serves both.
    """
    return max(max_len, k_cap + 2)


def check_fftp_arguments(max_len: int, k_cap: int) -> None:
    """Raise ValueError for arguments fftp_search rejects, before any ball is built."""
    for name, value in (("max_len", max_len), ("k_cap", k_cap)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


class _FftpContext:
    """Tables of the fftp layer automaton, shared by every first letter.

    Layers are interned as small ints, an automaton state is a pair of layer
    ids (moving M, resting R), and step() computes each transition once.
    """

    def __init__(self, ball: BallIndex, max_len: int, k_cap: int, reduced_only: bool):
        self.max_len = max_len
        self.k_cap = k_cap
        self.reduced_only = reduced_only
        self.n_letters = ball.oracle.alphabet.n_letters
        radius = fftp_radius(max_len, k_cap)
        if ball.radius < radius:
            ball = build_ball(ball.oracle, radius, mem_cap=ball.mem_cap)
        self.rel = ball
        self.rel_trans = trans = ball.trans
        self.rel_dist = ball.dist.tolist()  # a list indexes faster in extend_dp's loop
        # left translates l*g, read only for |g| <= k_cap + 1 (a state plus a
        # letter).  For a predecessor link (p, y) of g, l*g = (l*p)*y with
        # |l*p| <= |g| < radius, so the row exists and l*g is in the ball.
        n_read = ball.sphere(k_cap + 1).stop
        firsts = ball.link_start[1:n_read]
        src, letter = ball.link_src, ball.link_letter
        self.lefts = []
        for lid in range(self.n_letters):
            col = [trans[0][lid]]
            for k in firsts:
                col.append(trans[col[src[k]]][letter[k]])
            self.lefts.append(col)
        self.layer_dp: list[dict] = []  # layer id -> layer
        self._layer_ids: dict[tuple, int] = {}  # (states, costs) -> layer id
        self._steps: dict[tuple, tuple[int, int]] = {}  # (state, letter, cap) -> state
        self.start = (self._intern({0: 0}), self._intern({}))

    def _intern(self, dp: dict) -> int:
        lid = self._layer_ids.setdefault((tuple(dp), tuple(dp.values())), len(self.layer_dp))
        if lid == len(self.layer_dp):
            self.layer_dp.append(dp)
        return lid

    def extend_dp(self, items, x: int, cap: int, moving: bool) -> dict:
        """One layer: the scanned word advances by letter x.

        items are (state, cost) pairs; their companions move by any letter
        if moving, else rest in place.  The result is in ascending state
        order, so equal layers are equal item for item.
        """
        out: dict[int, int] = {}
        left_xinv = self.lefts[x ^ 1]
        rel_dist = self.rel_dist
        for r, c in items:
            for t in (self.rel_trans[r] if moving else (r,)):
                r2 = left_xinv[t]
                d = rel_dist[r2]
                c2 = c if c >= d else d
                if c2 <= cap:
                    prev = out.get(r2)
                    if prev is None or prev > c2:
                        out[r2] = c2
        return dict(sorted(out.items()))

    def step(self, state: tuple[int, int], x: int, cap: int) -> tuple[int, int]:
        """(M, R) after letter x: M' = extend_dp(M, x), R' = x^-1 (R u M), once per key."""
        nxt = self._steps.get((state, x, cap))
        if nxt is None:
            m, r = state
            moving = self.layer_dp[m].items()
            # M' depends on M alone, so it is keyed by M's id
            moved = self._steps.get((m, x, cap))
            if moved is None:
                moved = self._steps[m, x, cap] = self._intern(self.extend_dp(moving, x, cap, True))
            rested = self.extend_dp([*self.layer_dp[r].items(), *moving], x, cap, False)
            nxt = self._steps[state, x, cap] = (moved, self._intern(rested))
        return nxt

    def word_min(self, state: tuple[int, int], x: int):
        """R_n(0) of a word, prefix at state, ending in x: the least cost of x in M or R."""
        e = self.rel_trans[0][x]
        return min(self.layer_dp[i].get(e, INF) for i in state)

    def states(self, ids: tuple[int, ...], cap: int) -> list[tuple[int, int]]:
        """The states of levels 0 .. len(ids) - 1 at the given cap."""
        out = [self.start]
        for x in ids[:-1]:
            out.append(self.step(out[-1], x, cap))
        return out

    def companion(self, ids: tuple[int, ...], cap: int):
        """(min fellow distance, companion letter ids) for a non-geodesic word."""
        states = self.states(ids, cap)
        best = self.word_min(states[-1], ids[-1])
        if best > cap:
            return INF, ()
        # walk R back while an earlier end attains the same cost, so the
        # companion ends at the first level that can
        end, r = len(ids) - 1, self.lefts[ids[-1]][0]
        while self.layer_dp[states[end][1]].get(r, INF) <= best:
            end, r = end - 1, self.lefts[ids[end - 1]][r]
        # walk M back: at each level take the first (state, letter) of the
        # previous layer, in scan order, that reaches the current state at
        # its stored cost, which is the choice extend_dp's scan keeps
        v: list[int] = []
        for level in range(end, 0, -1):
            c, d = self.layer_dp[states[level][0]][r], self.rel_dist[r]
            left_xinv = self.lefts[ids[level - 1] ^ 1]
            r, y = next((p, y) for p, cp in self.layer_dp[states[level - 1][0]].items()
                        for y, t in enumerate(self.rel_trans[p])
                        if left_xinv[t] == r and (cp if cp >= d else d) == c)
            v.append(y)
        v.reverse()
        return best, tuple(v)


def _new_partial() -> dict:
    return {"total": 0, "geodesic": 0, "hist": {}, "witness": {}, "unresolved": []}


def _tally(partial: dict, m: int, count: int, ids: tuple[int, ...]) -> None:
    """Add count words of minimum m, ids the shortlex least of them."""
    partial["hist"][m] = partial["hist"].get(m, 0) + count
    cur = partial["witness"].get(m)
    if cur is None or (len(ids), ids) < (len(cur), cur):
        partial["witness"][m] = ids


def _geodesic_counts(ball: BallIndex, first: int, max_len: int) -> list[int]:
    """Geodesic words beginning with letter first, per length 0 .. max_len."""
    counts = [0] * ball.sphere(max_len).stop
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    for g in range(1, len(counts)):  # BFS order: predecessors come first
        counts[g] = sum(counts[src[k]] if src[k] else letter[k] == first
                        for k in range(start[g], start[g + 1]))
    return [sum(counts[g] for g in ball.sphere(n)) for n in range(max_len + 1)]


def _count_subtree(ctx: _FftpContext, first: int, cap: int, geodesic: list[int]):
    """(tallies, missing) of the words beginning with letter first, at one cap.

    A bucket holds the count and the least word of one (state, last letter).
    missing counts the non-geodesic words with no companion within cap;
    the count stops at the first length that has any, since the caller
    then drops these tallies.
    """
    partial = dict(_new_partial(), geodesic=sum(geodesic))
    buckets = {(ctx.start, first): (1, (first,))}
    missing = 0
    for n in range(1, ctx.max_len + 1):
        if n > 1:
            nxt: dict = {}
            for (state, last), (count, ids) in buckets.items():
                after = ctx.step(state, last, cap)
                for y in range(ctx.n_letters):
                    if ctx.reduced_only and y == last ^ 1:
                        continue
                    # buckets stay in the order of their least words, so the
                    # first word to reach a bucket is its least
                    had = nxt.get((after, y))
                    nxt[after, y] = (had[0] + count, had[1]) if had else (count, ids + (y,))
            buckets = nxt
        missing -= geodesic[n]  # geodesic words have no companion at any cap
        for (state, last), (count, ids) in buckets.items():
            partial["total"] += count
            m = ctx.word_min(state, last)
            if m == INF:
                missing += count
            else:
                _tally(partial, m, count, ids)
        if missing:
            break
    return partial, missing


def _first_letter_tallies(ctx: _FftpContext, first: int) -> dict:
    """The tallies of one first letter at the least cap that resolves every word.

    If k_cap leaves words unresolved, the subtree is walked once at k_cap,
    each word's state carried down from its prefix, so they can be listed.
    """
    geodesic = _geodesic_counts(ctx.rel, first, ctx.max_len)
    for cap in range(ctx.k_cap + 1):
        partial, missing = _count_subtree(ctx, first, cap, geodesic)
        if not missing:
            return partial
    partial = _new_partial()
    stack = [((first,), ctx.start, ctx.rel_trans[0][first])]
    while stack:
        ids, state, end = stack.pop()
        _score_word(ctx, partial, ids, state, end)
        if len(ids) < ctx.max_len:
            last = ids[-1]
            after = ctx.step(state, last, ctx.k_cap)
            for y in range(ctx.n_letters):
                if not (ctx.reduced_only and y == last ^ 1):
                    stack.append((ids + (y,), after, ctx.rel_trans[end][y]))
    return partial


def _score_word(ctx: _FftpContext, partial: dict, ids: tuple[int, ...], state, end: int) -> None:
    """Tally one word, given its endpoint and the state of its prefix at k_cap
    or at any cap that resolves it: a cap only drops costs above itself, so
    every such cap gives the same minimum.
    """
    partial["total"] += 1
    if ctx.rel_dist[end] == len(ids):
        partial["geodesic"] += 1
        return
    m = ctx.word_min(state, ids[-1])
    if m == INF:
        partial["unresolved"].append(ids)
    else:
        _tally(partial, m, 1, ids)


def _merge_partials(parts: list[dict]) -> dict:
    total = _new_partial()
    for p in parts:
        total["total"] += p["total"]
        total["geodesic"] += p["geodesic"]
        for m, c in p["hist"].items():
            _tally(total, m, c, p["witness"][m])
        total["unresolved"].extend(p["unresolved"])
    total["unresolved"].sort(key=lambda ids: (len(ids), ids))
    return total


def fftp_search(ball: BallIndex, max_len: int, k_cap: int, include_unreduced: bool = False,
                jobs: int = 1) -> FftpReport:
    """Find the smallest k that fellow-travel-falsifies every tested word.

    For each non-geodesic word w of length <= max_len, compute the minimum
    over shorter words v with the same endpoint of the synchronous
    fellow-traveling distance between w and v.  kMin is the maximum of
    these minima; words with no companion within k_cap are reported as
    unresolved, never dropped.

    Runs in the calling process.  ``jobs`` is unused; the benchmark still
    passes it, so it goes with the next change to the benchmark.
    """
    check_fftp_arguments(max_len, k_cap)
    ctx = _FftpContext(ball, max_len, k_cap, not include_unreduced)
    firsts = range(ctx.n_letters) if max_len > 0 else ()
    merged = _merge_partials([_first_letter_tallies(ctx, first) for first in firsts])

    alphabet = ball.oracle.alphabet
    k_min = max(merged["hist"], default=0)
    witnesses = []
    for m in sorted(merged["witness"]):
        w_ids = merged["witness"][m]
        got, v_ids = ctx.companion(w_ids, k_cap)
        if got != m:
            raise AssertionError(f"witness re-derivation mismatch: {got} != {m}")
        w_word, v_word = Word(alphabet, w_ids), Word(alphabet, v_ids)
        # independent re-verification of the recorded pair
        if not (len(v_word) < len(w_word)
                and ball.oracle.evaluate(v_word) == ball.oracle.evaluate(w_word)
                and fellow_distance(ctx.rel, w_word, v_word) == m):
            raise AssertionError(
                f"witness {format_word(w_word)!r} ~ {format_word(v_word)!r} "
                f"fails re-verification at fellow distance {m}")
        witnesses.append({"word": format_word(w_word), "companion": format_word(v_word),
                          "fellow_distance": m})
    falsifiers = {}
    for k in range(1, k_min):
        best = min((w for m, w in merged["witness"].items() if m > k), key=lambda w: (len(w), w))
        falsifiers[k] = format_word(Word(alphabet, best))
    unresolved = [format_word(Word(alphabet, ids)) for ids in merged["unresolved"]]
    return FftpReport(
        k_min=k_min, max_len=max_len, k_cap=k_cap, total_words=merged["total"],
        geodesic_words=merged["geodesic"], histogram=merged["hist"], witnesses=witnesses,
        falsifiers=falsifiers, unresolved=unresolved, include_unreduced=include_unreduced,
    )


# -- parallel stable-letter structure --------------------------------------------


@dataclass
class SignatureReport:
    radius: int
    elements: int
    violations: list = field(default_factory=list)  # the first MAX_WITNESSES, with witnesses
    violation_count: int = 0

    @property
    def passed(self) -> bool:
        return not self.violation_count

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "elements": self.elements,
            "violation_count": self.violation_count,
            "violations": self.violations,
        }

    def table_lines(self) -> list[str]:
        out = [
            f"elements checked: {self.elements} (radius {self.radius})",
            "parallel stable-letter structure: "
            + ("PASS" if self.passed else f"FAIL ({self.violation_count} violations)"),
        ]
        for v in self.violations:
            out.append(f"  {v['element']}: {v['word1']!r} vs {v['word2']!r}")
        hidden = self.violation_count - len(self.violations)
        if hidden > 0:
            out.append(f"  ... and {hidden} more violations")
        return out


def verify_parallel_signatures(ball: BallIndex, spec) -> SignatureReport:
    """All geodesics of each element must share one stable-letter sequence.

    Dynamic program over the ball in distance order: the signature of an
    element extends the signature of any predecessor, so it is unique iff
    all predecessors agree; a disagreement is reported with two geodesic
    witness words: the element's shortlex least geodesic, which ends in its
    first link, and a geodesic through its first disagreeing link.

    Signatures are interned in a prefix trie: id 0 is the empty signature,
    and extend[s * n_letters + l] is the id of signature s followed by
    stable letter l.  Ids are equal iff the sequences are, so each element
    of B(r - 1) stores one int, and a link whose extension was never
    interned disagrees with the first link's signature, which was.  No
    signature of the outer sphere S(r) is ever read, so none is stored, and
    only its elements with two or more links are visited: a single link has
    nothing to disagree with.  They are picked from link_start by iterators,
    not slices, so the pass allocates nothing per outer element.
    """
    nb = spec.n_base_letters
    n_letters = ball.oracle.alphabet.n_letters
    report = SignatureReport(ball.radius, len(ball))
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    extend: dict[int, int] = {}
    outer = ball.sphere(ball.radius)
    n_inner = outer.start  # B(r - 1) is the ids below it
    sigs = [0] * n_inner
    n_links = map(sub, islice(start, n_inner + 1, None), islice(start, n_inner, None))
    several = compress(outer, map((1).__lt__, n_links))
    for eid in chain(range(1, n_inner), several):
        first = start[eid]
        p0, l0 = src[first], letter[first]
        sig0 = sigs[p0]
        if l0 >= nb:
            sig0 = extend.setdefault(sig0 * n_letters + l0, len(extend) + 1)
        if eid < n_inner:
            sigs[eid] = sig0
        for k in range(first + 1, start[eid + 1]):
            pid, lid = src[k], letter[k]
            if (sigs[pid] if lid < nb else extend.get(sigs[pid] * n_letters + lid)) != sig0:
                report.violation_count += 1
                if len(report.violations) < MAX_WITNESSES:
                    w2 = ball.shortlex_geodesic(pid).ids + (lid,)
                    report.violations.append(
                        {
                            "element": ball.oracle.key_str(ball.key(eid)),
                            "word1": format_word(ball.shortlex_geodesic(eid)),
                            "word2": format_word(Word(ball.oracle.alphabet, w2)),
                        }
                    )
                break
    return report
