"""Breadth-first Cayley balls over any element oracle.

A BallIndex holds, for every element within the requested radius: its
canonical key, its distance from the identity, the full transition row
(element * letter for every signed letter; only for elements strictly inside
the radius, which are the ones the BFS expanded), and every predecessor link
(p, letter) with p * letter = element and |p| = |element| - 1.  Storing all
predecessor links makes geodesic enumeration a walk, not a search.

Element ids are assigned in BFS discovery order with letters tried in their
fixed order, so two builds of the same ball are identical, as are all
exports derived from one.  The ids of each sphere are therefore one
contiguous range, which BallIndex.sphere(n) returns; no other module
relies on that layout.

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
from typing import Iterator, Optional

from .limits import default_mem_cap
from .words import Word


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
    """The radius-0 ball: just the identity.  Grow it with extend_ball."""

    def __init__(self, oracle, mem_cap: Optional[int] = None):
        self.oracle = oracle
        self.radius = 0
        self.mem_cap = default_mem_cap() if mem_cap is None else mem_cap
        ident = oracle.identity_key()
        self.keys: list = [ident]
        self.ids: dict = {ident: 0}
        self.dist: list[int] = [0]
        self.trans: list[Optional[list[int]]] = [None]
        self.preds: list[list[tuple[int, int]]] = [[]]
        self.sphere_sizes: list[int] = [1]
        self._slex: Optional[list[tuple[int, ...]]] = None
        self._counts: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key) -> bool:
        return key in self.ids

    def id_of(self, key) -> int:
        try:
            return self.ids[key]
        except KeyError:
            raise OutOfBallError(self.radius + 1, self.radius) from None

    def distance_of_key(self, key) -> int:
        return self.dist[self.id_of(key)]

    def sphere(self, n: int) -> range:
        """Ids of the elements at distance n, for 0 <= n <= radius."""
        if not 0 <= n <= self.radius:
            raise OutOfBallError(n, self.radius)
        start = sum(self.sphere_sizes[:n])
        return range(start, start + self.sphere_sizes[n])

    def neighbors(self, eid: int) -> list[int]:
        row = self.trans[eid]
        if row is None:
            raise OutOfBallError(self.dist[eid] + 1, self.radius)
        return row

    # -- geodesic machinery -------------------------------------------------

    def _fill_geodesic_tables(self):
        if self._slex is not None:
            return
        slex: list[tuple[int, ...]] = [()] * len(self.keys)
        counts = [0] * len(self.keys)
        counts[0] = 1
        for eid in range(1, len(self.keys)):
            best = None
            total = 0
            for pid, lid in self.preds[eid]:
                cand = slex[pid] + (lid,)
                total += counts[pid]
                if best is None or cand < best:
                    best = cand
            slex[eid] = best if best is not None else ()
            counts[eid] = total
        self._slex = slex
        self._counts = counts

    def shortlex_geodesic(self, eid: int) -> Word:
        self._fill_geodesic_tables()
        return Word(self.oracle.alphabet, self._slex[eid])

    def geodesic_count(self, eid: int) -> int:
        self._fill_geodesic_tables()
        return self._counts[eid]

    def label(self, eid: int) -> str:
        """Shortlex geodesic as a string; the human name of the element."""
        from .words import format_word

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

    On BallCapError the partial sphere is dropped, so the ball stays the
    complete ball of the radius it had reached.
    """
    if radius <= ball.radius:
        return
    ball._slex = ball._counts = None
    n_letters = ball.oracle.alphabet.n_letters
    apply_letter = ball.oracle.apply_letter
    mem_cap = ball.mem_cap
    ids = ball.ids
    keys = ball.keys
    dist = ball.dist
    preds = ball.preds
    for d in range(ball.radius, radius):
        frontier = ball.sphere(d)
        n_before = len(keys)
        try:
            for eid in frontier:
                key = keys[eid]
                row = [0] * n_letters
                for lid in range(n_letters):
                    k2 = apply_letter(key, lid)
                    tid = ids.get(k2)
                    if tid is None:
                        if len(keys) >= mem_cap:
                            raise BallCapError(mem_cap, d)
                        tid = len(keys)
                        ids[k2] = tid
                        keys.append(k2)
                        dist.append(d + 1)
                        ball.trans.append(None)
                        preds.append([(eid, lid)])
                    elif dist[tid] == d + 1:
                        preds[tid].append((eid, lid))
                    row[lid] = tid
                ball.trans[eid] = row
        except BallCapError:
            for key in keys[n_before:]:
                del ids[key]
            for lst in (keys, dist, ball.trans, preds):
                del lst[n_before:]
            for eid in frontier:
                ball.trans[eid] = None
            raise
        ball.sphere_sizes.append(len(keys) - n_before)
        ball.radius = d + 1
        if progress is not None:
            progress(d + 1, len(keys))
        if len(keys) == n_before:
            break
    while len(ball.sphere_sizes) < radius + 1:
        ball.sphere_sizes.append(0)
    ball.radius = radius


def locate(ball: BallIndex, key) -> int:
    """Id of the key, extending the ball one sphere at a time until it is in."""
    ids = ball.ids
    while key not in ids:
        if ball.sphere_sizes[-1] == 0:
            raise ValueError(f"key {key!r} is not an element of this group")
        extend_ball(ball, ball.radius + 1)
    return ids[key]


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
    eid = ball.id_of(key)
    memo: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def rec(e: int) -> list[tuple[int, ...]]:
        got = memo.get(e)
        if got is not None:
            return got
        acc = []
        for pid, lid in ball.preds[e]:
            acc.extend(w + (lid,) for w in rec(pid))
        acc.sort()
        memo[e] = acc
        return acc

    return [Word(ball.oracle.alphabet, ids) for ids in rec(eid)]


def export_ball(ball: BallIndex, fmt: str) -> bytes:
    """Serialize the ball; 'dot', 'json' (JSON lines) or 'csv'. Byte-stable."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "distance", "geodesic", "count"])
        for eid in range(len(ball.keys)):
            writer.writerow(
                [
                    ball.oracle.key_str(ball.keys[eid]),
                    ball.dist[eid],
                    ball.label(eid),
                    ball.geodesic_count(eid),
                ]
            )
        return buf.getvalue().encode()
    if fmt == "json":
        lines = []
        for eid in range(len(ball.keys)):
            lines.append(
                json.dumps(
                    {
                        "key": ball.oracle.key_str(ball.keys[eid]),
                        "distance": ball.dist[eid],
                        "geodesic": ball.label(eid),
                        "count": ball.geodesic_count(eid),
                    },
                    sort_keys=True,
                )
            )
        return ("\n".join(lines) + "\n").encode()
    if fmt == "dot":
        out = ["digraph ball {"]
        for eid in range(len(ball.keys)):
            out.append(f'  n{eid} [label="{ball.label(eid)}"];')
        letter_str = ball.oracle.alphabet.letter_str
        for eid, lid, tid in ball_edges(ball):
            out.append(f'  n{eid} -> n{tid} [label="{letter_str(lid)}"];')
        out.append("}")
        return ("\n".join(out) + "\n").encode()
    raise ValueError(f"unknown export format {fmt!r} (want dot, json or csv)")


def ball_edges(ball: BallIndex) -> Iterator[tuple[int, int, int]]:
    """Every directed edge of the subgraph induced on the ball.

    Rows of expanded elements are stored; boundary elements get their edges
    recomputed through the oracle and filtered to in-ball targets.
    """
    oracle = ball.oracle
    n_letters = oracle.alphabet.n_letters
    for eid in range(len(ball.keys)):
        row = ball.trans[eid]
        if row is not None:
            for lid, tid in enumerate(row):
                yield eid, lid, tid
        else:
            key = ball.keys[eid]
            for lid in range(n_letters):
                tid = ball.ids.get(oracle.apply_letter(key, lid))
                if tid is not None:
                    yield eid, lid, tid
