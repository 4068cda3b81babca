"""Breadth-first Cayley balls over any element oracle.

A BallIndex holds, for every element within the requested radius: its
code, its transition row (element * letter for every signed letter, as
ids; only for elements strictly inside the radius, which are the ones the
BFS expanded), and every predecessor link (p, letter) with p * letter =
element and |p| = |element| - 1.  Storing all predecessor links makes
geodesic enumeration a walk, not a search.

Codes come from a key table the ball gets from its oracle and owns
(oracle.key_table()).  A base oracle's table (base_groups.OracleKeys) is
trivial: codes are its keys.  An HnnSpec's table (hnn.HnnKeyTable) interns
base segments, (coset representative, stable letter) pairs and key
prefixes, so a code is one int of three fields (last segment, the pair
before it, the prefix before that) and a BFS step is a memo lookup instead
of a fold.  The table interns a prefix only for an element the BFS
expands, so the outer sphere adds none, and ball_edges reads the outer
sphere's rows without interning.  Canonical keys go in and out
through the table: id_of and `in` encode a key, and BallIndex.key(eid)
decodes one; a key with a part the table never interned is not in the
ball.

The layout is flat, so an element costs no Python object of its own.
Codes are one container from the key table (an array("q") of HnnKeyTable
codes, a list of base keys), rows one array("i") of n_letters ids per
expanded element (BallIndex.row), and the links compressed sparse rows,
those of eid being (link_src[k], link_letter[k]) for k in
range(link_start[eid], link_start[eid + 1]), in (source, letter) order.
No distance is stored: it is the sphere whose id range holds the element
(BallIndex.distance_of).  The BFS loop only assigns ids and appends codes
and rows, so a sphere cut short leaves codes and rows to truncate.  Once a
sphere is complete its links are built from the rows of the sphere before:
each new element has one link for the row entry that found it and one for
every repeat, an entry that found it again, so its link count is 1 plus its
repeats, and one pass over the rows in (element, letter) order places the
links, with the new tail of link_start as cursors.  The build makes no
temporary the size of a sphere beyond the repeats, the counts and the zero
bytes each link array grows by (bytes(n), read by frombytes).

The BFS deduplicates per sphere, not against the whole ball.  A letter
moves an element by distance 1, so |g| - 1 <= |g * x| <= |g| + 1 and every
neighbour of S(d) lies in S(d - 1), S(d) or S(d + 1).  While S(d) is
expanded, two dicts therefore decide every code exactly: one from the codes
of S(d - 1) and S(d) to their ids, and one from the codes of S(d + 1) found
so far to the first new id of the element that found them; a code in
neither is new.  The second dict so holds one id object per expanded
element, not one per element found.  An element's new codes get
consecutive ids, so a repeat's id is found by scanning at most n_letters
codes from that first id.  The second dict is dropped once its sphere is
found, and each sphere moves the first dict on by one (S(d - 1) out,
S(d + 1) in with its ids); on the last sphere it is dropped too, before
the links are built.  So the ball keeps no code -> id map while it grows.
Lookups by key (id_of, `in`, and the boundary rows of ball_edges)
read one index over all codes, built on the first lookup (one int object
per code, as well as the dict) and kept current by every later extension;
a ball never queried by key never holds one.

Element ids are assigned in BFS discovery order with letters tried in their
fixed order, so two builds of the same ball are identical, as are all
exports derived from one.  The ids of each sphere are therefore one
contiguous range, which BallIndex.sphere(n) returns.  convexity.ac_profile
relies on that layout: it tests membership in B(n) and S(n) by comparing
ids with the end of S(n)'s range instead of reading distances.

The same order fixes least geodesics: each sphere's ids are in shortlex
order of the elements' shortlex least geodesics, and an element's first
link (p, x) is the last step of its least geodesic, which is p's followed
by x.  By induction on the sphere: the first link has the least source
id, so the source with the least geodesic, and the least letter from it;
and the elements of the next sphere get ids in the order of their first
links.  shortlex_geodesic, export_ball and verify_parallel_signatures read
least geodesics off first links.

A ball is resumable: extend_ball grows it sphere by sphere from the last
one, and ids are prefix-stable, so extending a radius-r0 ball to radius r
gives exactly the radius-r build.  This module is the only place balls are
grown and the only place the element cap is resolved (an explicit mem_cap,
else the HNNKIT_MEM_CAP environment variable, else DEFAULT_MEM_CAP); the
ball keeps its cap, so every later extension obeys it.
"""

from __future__ import annotations

import csv
import io
import json
import os
from array import array
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Iterator, Optional

from .words import Word, format_word


MEM_CAP_ENV = "HNNKIT_MEM_CAP"
DEFAULT_MEM_CAP = 20_000_000  # elements held by a ball index or cache


def default_mem_cap() -> int:
    raw = os.environ.get(MEM_CAP_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{MEM_CAP_ENV} must be an integer, got {raw!r}") from None
    return DEFAULT_MEM_CAP


class BallCapError(RuntimeError):
    def __init__(self, cap_elements: int, radius_reached: int):
        super().__init__(
            f"memory cap of {cap_elements} elements exceeded while expanding "
            f"radius {radius_reached + 1} (completed radius {radius_reached})"
        )
        self.cap_elements = cap_elements
        self.radius_reached = radius_reached


class OutOfBallError(RuntimeError):
    def __init__(self, required_radius: int, have_radius: int):
        super().__init__(
            f"element outside the ball: need radius >= {required_radius}, have {have_radius}"
        )
        self.required_radius = required_radius
        self.have_radius = have_radius


class BallIndex:
    """The radius-0 ball: just the identity.  Grow it with extend_ball.

    codes[eid] is the element's code.  The inverse map, code -> id, is built
    by the first lookup by key, not by the BFS.  rows holds the rows of the
    expanded elements and row(eid) reads one; distance_of(eid) is read off
    the sphere ranges (there is no trans and no dist).  The predecessor
    links of eid are (link_src[k], link_letter[k]) for k in
    range(link_start[eid], link_start[eid + 1]), in (source, letter) order;
    the first is the last step of the element's shortlex least geodesic.
    """

    def __init__(self, oracle, mem_cap: Optional[int] = None):
        self.oracle = oracle
        self.table = oracle.key_table()
        self.radius = 0
        self.mem_cap = default_mem_cap() if mem_cap is None else mem_cap
        if self.mem_cap < 1:
            raise ValueError("mem_cap must be >= 1")
        self.codes = self.table.new_codes()
        self._index: Optional[dict] = None  # code -> id, once a lookup needs it
        self.n_letters = oracle.alphabet.n_letters
        self.rows = array("i")
        self.link_start = array("i", [0, 0])
        self.link_src = array("i")
        self.link_letter = array("i")
        self.sphere_sizes: list[int] = [1]
        self._starts = [0]  # the first id of each sphere
        self._counts: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self.codes)

    def _ids(self) -> dict:
        """The code -> id index over the whole ball, built on first use."""
        if self._index is None:
            self._index = dict(zip(self.codes, range(len(self.codes))))
        return self._index

    def _find(self, key) -> Optional[int]:
        code = self.table.encode(key)
        return None if code is None else self._ids().get(code)

    def __contains__(self, key) -> bool:
        return self._find(key) is not None

    def id_of(self, key) -> int:
        eid = self._find(key)
        if eid is None:
            raise OutOfBallError(self.radius + 1, self.radius)
        return eid

    def key(self, eid: int):
        """The canonical key of an element."""
        return self.table.key(self.codes[eid])

    def row(self, eid: int) -> array:
        """The ids of eid * letter for every letter; empty on the outer sphere."""
        n = self.n_letters
        return self.rows[eid * n:eid * n + n]

    def distance_of(self, eid: int) -> int:
        """The element's distance from the identity: the sphere whose id range holds it."""
        if not 0 <= eid < len(self.codes):
            raise IndexError(f"element id {eid} is not in the ball")
        return bisect_right(self._starts, eid) - 1

    def distance_of_key(self, key) -> int:
        return self.distance_of(self.id_of(key))

    def sphere(self, n: int) -> range:
        """Ids of the elements at distance n, for 0 <= n <= radius."""
        if not 0 <= n <= self.radius:
            raise OutOfBallError(n, self.radius)
        return range(self._starts[n], self._starts[n] + self.sphere_sizes[n])

    # -- geodesic machinery -------------------------------------------------

    def shortlex_geodesic(self, eid: int) -> Word:
        """The shortlex least geodesic: the element's first links, walked back."""
        start, src, letter = self.link_start, self.link_src, self.link_letter
        ids = []
        while eid:
            k = start[eid]
            ids.append(letter[k])
            eid = src[k]
        return Word(self.oracle.alphabet, tuple(reversed(ids)))

    def geodesic_count(self, eid: int) -> int:
        """The number of geodesic words of the element (a table over the whole ball)."""
        if self._counts is None:
            start, src = self.link_start, self.link_src
            counts = [1]
            for e in range(1, len(self)):
                counts.append(sum(counts[src[k]] for k in range(start[e], start[e + 1])))
            self._counts = counts
        return self._counts[eid]

    def label(self, eid: int) -> str:
        """Shortlex geodesic as a string; the human name of the element."""
        return format_word(self.shortlex_geodesic(eid))


def build_ball(oracle, radius: int, mem_cap: Optional[int] = None,
               progress=None) -> BallIndex:
    """Frontier-by-frontier BFS from the identity, deduplicated by canonical key."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ball = BallIndex(oracle, mem_cap)
    extend_ball(ball, radius, progress)
    return ball


def extend_ball(ball: BallIndex, radius: int, progress=None) -> None:
    """Grow the ball to the given radius, resuming the BFS from its last sphere.

    On BallCapError or any other error in a sphere, the partial sphere is
    dropped, so the ball stays the complete ball of the radius it reached.
    """
    if radius <= ball.radius:
        return
    ball._counts = None
    row_of = ball.table.row
    mem_cap = ball.mem_cap
    codes = ball.codes
    add_code, index = codes.append, codes.index
    add_row = ball.rows.fromlist  # a list's append is faster than an array's
    # S(d - 1) and S(d), then S(d + 1) as it is found: see the module docstring
    lo = len(codes) - sum(ball.sphere_sizes[-2:])
    prev = dict(zip(codes[lo:], range(lo, len(codes))))
    for d in range(ball.radius, radius):
        frontier = ball.sphere(d)
        n_before = len(codes)  # sphere d + 1 is the ids from here on
        prev_get = prev.get
        nxt: dict = {}  # code -> the first new id of the element that found it
        nxt_get = nxt.get
        repeats = array("i")  # the ids in S(d + 1) found again, once per repeat
        add_repeat = repeats.append
        n_codes = n_before
        try:
            for eid in frontier:
                row = []
                first = n_codes
                for code in row_of(codes[eid]):
                    tid = prev_get(code)
                    if tid is None:
                        tid = nxt_get(code)
                        if tid is None:
                            if n_codes >= mem_cap:
                                raise BallCapError(mem_cap, d)
                            nxt[code] = first
                            add_code(code)
                            tid = n_codes
                            n_codes += 1
                        else:
                            # an element's new codes have consecutive ids
                            tid = index(code, tid)
                            add_repeat(tid)
                    row.append(tid)
                add_row(row)
        except BaseException:  # the cap's error or any other: drop the partial sphere
            del codes[n_before:]
            del ball.rows[frontier.start * ball.n_letters:]
            raise
        nxt = nxt_get = None
        if d + 1 < radius:
            # on to S(d) and S(d + 1)
            for code in codes[lo:frontier.start]:
                del prev[code]
            prev.update(zip(codes[n_before:], range(n_before, n_codes)))
            lo = frontier.start
        else:
            # free S(d - 1) and S(d) before the link build
            prev = prev_get = None
        if ball._index is not None:
            ball._index.update(zip(codes[n_before:], range(n_before, n_codes)))
        n_new = n_codes - n_before
        _append_links(ball, frontier, n_before, repeats)
        ball._starts.append(n_before)
        ball.sphere_sizes.append(n_new)
        ball.radius = d + 1
        if progress is not None:
            progress(d + 1, len(codes))
        if not n_new:
            break
    while len(ball.sphere_sizes) < radius + 1:
        ball._starts.append(len(codes))
        ball.sphere_sizes.append(0)
    ball.radius = radius


def _append_links(ball: BallIndex, frontier: range, base: int, repeats: array) -> None:
    """Add the links of the new sphere, ids base on, from the frontier's rows.

    An element of the new sphere has one link for the row entry that found
    it and one for each of its repeats, the entries that found it again.  The
    links are placed by one pass over the rows in (element, letter) order,
    so each element's links keep that order.  The new tail of link_start
    holds the cursors: start[t + 1] begins at t's first slot and, once t's
    links are placed, ends one past its last, which is where t + 1's begin.
    """
    n_new = len(ball.codes) - base
    if not n_new:
        return
    counts = array("i", [1]) * n_new
    for t in repeats:
        counts[t - base] += 1
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    start.extend(islice(accumulate(counts, initial=start[-1]), n_new))
    counts = None  # before the link arrays grow: the build's last peak
    n_links = n_new + len(repeats)
    src.frombytes(bytes(src.itemsize * n_links))
    letter.frombytes(bytes(letter.itemsize * n_links))
    n = ball.n_letters
    with memoryview(ball.rows)[frontier.start * n:frontier.stop * n] as rows:
        for eid, row in zip(frontier, zip(*[iter(rows)] * n)):  # n entries at a time
            for lid, t in enumerate(row):
                if t >= base:
                    t += 1
                    k = start[t]
                    start[t] = k + 1
                    src[k] = eid
                    letter[k] = lid


def distance(ball: BallIndex, x_key, y_key) -> int:
    """Word-metric distance between two elements given by canonical keys."""
    oracle = ball.oracle
    k = oracle.mult_key(oracle.inv_key(x_key), y_key)
    return ball.distance_of_key(k)


def is_geodesic(ball: BallIndex, w: Word) -> bool:
    key = ball.oracle.evaluate(w)
    return ball.distance_of_key(key) == len(w)


def geodesics_of(ball: BallIndex, key) -> list[Word]:
    """Every geodesic word for the element, in shortlex order."""
    return _geodesics(ball, ball.id_of(key))


def _geodesics(ball: BallIndex, eid: int) -> list[Word]:
    """Every geodesic word of the element with this id, in shortlex order."""
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    ancestors = {eid}
    stack = [eid]
    while stack:
        e = stack.pop()
        for k in range(start[e], start[e + 1]):
            p = src[k]
            if p not in ancestors:
                ancestors.add(p)
                stack.append(p)
    # by increasing id, which is BFS order, so predecessors come first; 0 is the identity
    words: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for e in sorted(ancestors)[1:]:
        words[e] = sorted(w + (letter[k],) for k in range(start[e], start[e + 1])
                          for w in words[src[k]])
    return [Word(ball.oracle.alphabet, ids) for ids in words[eid]]


def export_ball(ball: BallIndex, fmt: str) -> bytes:
    """Serialize the ball; 'dot', 'json' (JSON lines) or 'csv'. Byte-stable."""
    if fmt not in ("dot", "json", "csv"):
        raise ValueError(f"unknown export format {fmt!r} (want dot, json or csv)")
    # every element's shortlex least geodesic: its first link's source's, then that letter
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    slex: list[tuple[int, ...]] = [()]
    for eid in range(1, len(ball)):
        slex.append(slex[src[start[eid]]] + (letter[start[eid]],))
    alphabet = ball.oracle.alphabet
    labels = [format_word(Word(alphabet, ids)) for ids in slex]
    if fmt == "dot":
        out = ["digraph ball {"]
        for eid, label in enumerate(labels):
            out.append(f'  n{eid} [label="{label}"];')
        letter_str = alphabet.letter_str
        for eid, lid, tid in ball_edges(ball):
            out.append(f'  n{eid} -> n{tid} [label="{letter_str(lid)}"];')
        out.append("}")
        return ("\n".join(out) + "\n").encode()
    key_str = ball.oracle.key_str
    fields = ("key", "distance", "geodesic", "count")
    records = [(key_str(ball.key(eid)), ball.distance_of(eid), labels[eid],
                ball.geodesic_count(eid)) for eid in range(len(ball))]
    if fmt == "json":
        lines = [json.dumps(dict(zip(fields, rec)), sort_keys=True) for rec in records]
        return ("\n".join(lines) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(records)
    return buf.getvalue().encode()


def ball_edges(ball: BallIndex) -> Iterator[tuple[int, int, int]]:
    """Every directed edge of the subgraph induced on the ball.

    Rows of expanded elements are stored; boundary elements get their rows
    from the key table, which interns nothing for them, filtered to in-ball
    targets.
    """
    boundary_row = ball.table.row
    for eid in range(len(ball)):
        row = ball.row(eid) or map(ball._ids().get, boundary_row(ball.codes[eid], intern=False))
        for lid, tid in enumerate(row):
            if tid is not None:
                yield eid, lid, tid
