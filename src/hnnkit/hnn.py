"""Multiple HNN extensions: pinches, Britton reduction and canonical forms.

The extension is described by a base-group oracle, stable letters s_i and
pairs of associated subgroups (U_i, V_i) with matched generator lists; the
defining relations are s_i^-1 u_ij s_i = v_ij.  The isomorphism between U_i
and V_i acts generator-wise, which is exactly what the subgroup oracles'
image method provides.

Canonical forms are built by a single left-to-right fold over letters.  The
working state is an alternating list [g0, s, g1, ..., gl] of base segments
and stable letters.  Appending a stable letter either removes a pinch
(s_i^-1 u s_i with u in U_i, or s_i v s_i^-1 with v in V_i) or splits the
last segment g = r * u along a left coset of the crossed subgroup, pushing
the image of u across the stable letter.  The result is the unique normal
form: two words represent the same group element iff they fold to equal
keys.

The word functions fold over one bounded segment table per spec.  It interns
base segments as ints, fills each segment's move for a letter the first time
the letter meets it (the next segment for a base letter, the split (r, image)
for a stable letter), and memoizes products and inverses of segments; a fold
state holds segment ids and stable letter ids, and keys go in and come out as
tuples.  The pinch is read off the split: the segment lies in the crossed
subgroup exactly when r is the identity, and then the image is what the pinch
carries across.  Cayley balls do not use this table: a ball's HnnKeyTable
interns segments and key prefixes itself and splits each base segment once
per stable letter.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .base_groups import BaseGroupOracle, base_geodesic_length
from .subgroups import SubgroupOracle, SubgroupWord
from .words import Alphabet, Word, free_reduce, format_word

# Segments the word fold's table holds before the next call clears it.  On
# 2,000 random words of length 200 each on wise and g2 (the words_nf
# benchmark, which peaks at 43.7 MB without the table), one process each
# peaked at 41.4, 44.1, 47.5 and 51.1 MB with bounds 1 << 11, 12, 13 and 14,
# against a 5 % budget of 2.2 MB.  At 1 << 12 the table is cleared once on
# wise and 19 times on g2.
_SEGMENT_TABLE_SIZE = 1 << 12


class AssociatedPair:
    """One stable letter's subgroup pair with the generator-wise isomorphism."""

    def __init__(self, u: SubgroupOracle, v: SubgroupOracle):
        if len(u.generator_words) != len(v.generator_words):
            raise ValueError(
                "associated subgroups must have the same number of generators "
                f"({len(u.generator_words)} vs {len(v.generator_words)})"
            )
        self.u = u
        self.v = v


class HnnSpec(BaseGroupOracle):
    """A multiple HNN extension, usable as an element oracle for ball builds."""

    def __init__(self, base: BaseGroupOracle, stable_names: Sequence[str],
                 pairs: Sequence[AssociatedPair], name: str = ""):
        if len(stable_names) != len(pairs):
            raise ValueError("one associated pair per stable letter required")
        self.base = base
        self.name = name
        self.pairs = tuple(pairs)
        base_names = [g.name for g in base.alphabet.generators]
        self.alphabet = Alphabet.make(base_names, list(stable_names))
        self.n_base_letters = 2 * len(base_names)
        # base letter ids agree between the base alphabet and the full one
        for g, h in zip(base.alphabet.generators, self.alphabet.generators):
            if (g.name, g.index) != (h.name, h.index):
                raise AssertionError(f"base generator {g.name!r} changes its letter ids")
        # the fold reads a pinch off the split: r is the identity exactly on
        # the crossed subgroup, which needs the identity to represent it
        self._base_identity = ident = base.identity_key()
        for i, pair in enumerate(self.pairs):
            for side, sub in (("U", pair.u), ("V", pair.v)):
                if sub.coset_rep_left(ident) != ident:
                    raise ValueError(f"pair {i} {side}: the coset representative of "
                                     "the subgroup itself is not the identity")
        nb, n_letters = self.n_base_letters, self.alphabet.n_letters
        self._stable_markers = [None] * nb + [self.stable_of_letter(lid)
                                              for lid in range(nb, n_letters)]
        self._lock = threading.Lock()
        self._clear_segments()
        self.relators = tuple(self._make_relators())

    def _make_relators(self) -> list[Word]:
        rels = [Word(self.alphabet, r.ids) for r in self.base.relators]
        for i, pair in enumerate(self.pairs):
            s_pos = self.n_base_letters + 2 * i
            for uw, vw in zip(pair.u.generator_words, pair.v.generator_words):
                ids = (
                    (s_pos ^ 1,)
                    + uw.ids
                    + (s_pos,)
                    + tuple(lid ^ 1 for lid in reversed(vw.ids))
                )
                rels.append(Word(self.alphabet, ids))
        return rels

    def stable_of_letter(self, lid: int) -> tuple[int, int]:
        """(pair index, sign) of a stable letter id."""
        rel = lid - self.n_base_letters
        return rel >> 1, (1 if rel % 2 == 0 else -1)

    def stable_letter_id(self, i: int, sign: int) -> int:
        return self.n_base_letters + 2 * i + (0 if sign > 0 else 1)

    # -- the fold ------------------------------------------------------------

    def _clear_segments(self):
        self._segments: list = []      # segment id -> base key
        self._segment_ids: dict = {}   # base key -> segment id
        # segment id -> per letter: the next segment id (base letters), the
        # split (r id, image id) (stable letters), or None until first used
        self._moves: list = []
        self._products: dict = {}      # (segment id, segment id) -> segment id
        self._inverses: dict = {}      # segment id -> segment id
        self._segment(self._base_identity)  # segment 0: a split with r == 0 may pinch

    def _segment(self, key) -> int:
        sid = self._segment_ids.get(key)
        if sid is None:
            sid = self._segment_ids[key] = len(self._segments)
            self._segments.append(key)
            self._moves.append([None] * self.alphabet.n_letters)
        return sid

    def _base_move(self, sid: int, lid: int) -> int:
        nxt = self._segment(self.base.apply_letter(self._segments[sid], lid))
        self._moves[sid][lid] = nxt
        self._moves[nxt][lid ^ 1] = sid
        return nxt

    def _stable_move(self, sid: int, lid: int) -> tuple:
        r, img = self._split(self._segments[sid], *self._stable_markers[lid])
        move = self._moves[sid][lid] = (self._segment(r), self._segment(img))
        return move

    def _product(self, a: int, b: int) -> int:
        if not b:
            return a
        if not a:
            return b
        p = self._products.get((a, b))
        if p is None:
            segs = self._segments
            p = self._products[a, b] = self._segment(self.base.mult_key(segs[a], segs[b]))
        return p

    def _inverse(self, sid: int) -> int:
        inv = self._inverses.get(sid)
        if inv is None:
            inv = self._inverses[sid] = self._segment(self.base.inv_key(self._segments[sid]))
            self._inverses[inv] = sid
        return inv

    def _split(self, tail, i: int, eps: int):
        """(r, img): tail = r * u with r its left coset representative, img the image
        of u across s_i^eps.  tail is in the crossed subgroup iff r is the identity."""
        pair = self.pairs[i]
        sub, target = (pair.u, pair.v) if eps > 0 else (pair.v, pair.u)
        r = sub.coset_rep_left(tail)
        img = sub.image(self.base.mult_key(self.base.inv_key(r), tail), target)
        if img is None:
            raise AssertionError("coset split produced a non-member factor")
        return r, img

    def _append_stable(self, segs: list, i: int, eps: int):
        lid = self.n_base_letters + 2 * i + (eps < 0)
        sid = segs[-1]
        r, img = self._moves[sid][lid] or self._stable_move(sid, lid)
        if not r and len(segs) >= 3 and segs[-2] == lid ^ 1:
            del segs[-2:]
            segs[-1] = self._product(segs[-1], img)
        else:
            segs[-1] = r
            segs += (lid, img)

    def _fold_letters(self, segs: list, ids) -> list:
        nb = self.n_base_letters
        moves, markers, append_stable = self._moves, self._stable_markers, self._append_stable
        sid = segs[-1]
        for lid in ids:
            if lid < nb:
                nxt = moves[sid][lid]
                sid = self._base_move(sid, lid) if nxt is None else nxt
            else:
                segs[-1] = sid
                append_stable(segs, *markers[lid])
                sid = segs[-1]
        segs[-1] = sid
        return segs

    def _fold_key_onto(self, segs: list, key) -> list:
        """Multiply the element of a key onto the end of segs."""
        segment, product, append_stable = self._segment, self._product, self._append_stable
        segs[-1] = product(segs[-1], segment(key[0]))
        for pos in range(1, len(key), 2):
            append_stable(segs, *key[pos])
            segs[-1] = product(segs[-1], segment(key[pos + 1]))
        return segs

    def _state(self, key) -> list:
        """The fold state of a key: its segments and markers as ids."""
        segs = list(key)
        segs[::2] = map(self._segment, key[::2])
        segs[1::2] = [self.stable_letter_id(i, eps) for i, eps in key[1::2]]
        return segs

    def _key(self, segs: list) -> tuple:
        parts = list(segs)
        parts[::2] = map(self._segments.__getitem__, segs[::2])
        parts[1::2] = map(self._stable_markers.__getitem__, segs[1::2])
        return tuple(parts)

    def _begin(self):
        """Start a call of the word fold: the table is cleared only here, so the
        ids a call holds stay valid until it returns."""
        if len(self._segments) > _SEGMENT_TABLE_SIZE:
            self._clear_segments()

    # -- oracle interface ------------------------------------------------------

    def identity_key(self):
        return (self.base.identity_key(),)

    def apply_letter(self, key, lid: int):
        with self._lock:
            self._begin()
            return self._key(self._fold_letters(self._state(key), (lid,)))

    def apply_letter_left(self, lid: int, key):
        with self._lock:
            self._begin()
            return self._key(self._fold_key_onto(self._fold_letters([0], (lid,)), key))

    def mult_key(self, k1, k2):
        with self._lock:
            self._begin()
            return self._key(self._fold_key_onto(self._state(k1), k2))

    def inv_key(self, key):
        with self._lock:
            self._begin()
            segment, inverse, product = self._segment, self._inverse, self._product
            append_stable = self._append_stable
            segs = [inverse(segment(key[-1]))]
            for pos in range(len(key) - 2, 0, -2):
                i, eps = key[pos]
                append_stable(segs, i, -eps)
                segs[-1] = product(segs[-1], inverse(segment(key[pos - 1])))
            return self._key(segs)

    def evaluate(self, word: Word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        with self._lock:
            self._begin()
            return self._key(self._fold_letters([0], word.ids))

    def key_str(self, key) -> str:
        parts = []
        for pos, part in enumerate(key):
            if pos % 2 == 0:
                parts.append(self.base.key_str(part))
            else:
                i, eps = part
                name = self.alphabet.stable_generators[i].name
                parts.append(name if eps > 0 else name + "'")
        return "|".join(parts)

    def word_of_key(self, key) -> Word:
        """Some word spelling the element: base segments expanded in place."""
        ids: list[int] = []
        for pos, part in enumerate(key):
            if pos % 2 == 0:
                ids.extend(self.base.word_of_key(part).ids)
            else:
                i, eps = part
                ids.append(self.stable_letter_id(i, eps))
        return Word(self.alphabet, tuple(ids))

    def key_table(self) -> "HnnKeyTable":
        """A fresh table of compact keys, for one ball."""
        return HnnKeyTable(self)


_PREFIX_BITS = 31  # prefix ids are stored in array("i")s
_PREFIX_MASK = (1 << _PREFIX_BITS) - 1


class HnnKeyTable:
    """Compact keys of the elements of one ball over an HnnSpec.

    Base segments are interned as segment ids, and key prefixes (a key
    without its last segment) as prefix ids: prefix 0 is empty, and every
    other one is a triple (parent prefix, segment id, stable letter id)
    whose segment is the coset representative a split left behind.  An
    element's code is segment id << 31 | prefix id; the prefix id takes the
    low bits, which spread the codes over a dict's slots.

    A segment's moves are computed once, all letters at a time: per base
    letter the next segment, per stable letter the split (r, image) and the
    pinch image (the image if r is the identity, else -1).  A BFS step
    is then a memo lookup plus at most one prefix lookup.  The table belongs
    to the ball that made it, so the word functions never grow it.
    """

    def __init__(self, spec: HnnSpec):
        self.spec = spec
        self.n_base_letters = nb = spec.n_base_letters
        n_letters = spec.alphabet.n_letters
        self._markers = {lid: spec.stable_of_letter(lid) for lid in range(nb, n_letters)}
        self._marker_letters = {m: lid for lid, m in self._markers.items()}
        # per stable letter: the subgroup it splits along, and that subgroup's first generator
        self._crossed = {}
        for lid, (i, eps) in self._markers.items():
            sub = spec.pairs[i].u if eps > 0 else spec.pairs[i].v
            self._crossed[lid] = sub, sub.evaluate_subgroup_word(((0, 1),))
        self.identity = 0
        self.segments: list = []
        self._segment_ids: dict = {}
        self._moves: list = []  # segment id -> (base moves, stable moves), or None
        self._segment(spec.base.identity_key())
        # prefix id -> parent prefix, segment id and stable letter id
        self.prefix_parent, self.prefix_segment, self.prefix_letter = (
            array("i", [0]), array("i", [0]), array("i", [-1]))
        self._pushes: dict = {}  # (segment id, stable letter id) -> {parent: prefix id}
        self._products: dict = {}  # (segment id, segment id) -> segment id of the product

    def _segment(self, key) -> int:
        sid = self._segment_ids.get(key)
        if sid is None:
            sid = self._segment_ids[key] = len(self.segments)
            self.segments.append(key)
            self._moves.append(None)
        return sid

    def _fill_moves(self, sid: int) -> tuple:
        """The moves of a segment: base ones as shifted segment ids, stable ones as
        (letter, r, pushes, shifted image, pinch), pushes mapping a parent prefix to
        the prefix (parent, r, letter)."""
        spec = self.spec
        g = self.segments[sid]
        apply_letter = spec.base.apply_letter
        base_moves = tuple(self._segment(apply_letter(g, lid)) << _PREFIX_BITS
                           for lid in range(self.n_base_letters))
        stable_moves = []
        for lid, (i, eps) in self._markers.items():
            r, img = spec._split(g, i, eps)
            # prefixes are interned by segment id, so a representative must be
            # canonical: its own representative, and that of r times a generator
            sub, gen = self._crossed[lid]
            if sub.coset_rep_left(r) != r or sub.coset_rep_left(spec.base.mult_key(r, gen)) != r:
                raise AssertionError("coset representative is not canonical")
            pinch = r == spec._base_identity
            r, img = self._segment(r), self._segment(img)
            stable_moves.append((lid, r, self._pushes.setdefault((r, lid), {}),
                                 img << _PREFIX_BITS, img if pinch else -1))
        moves = self._moves[sid] = (base_moves, tuple(stable_moves))
        return moves

    def row(self, code: int) -> list[int]:
        """The codes of code * letter, for every letter in order."""
        pid = code & _PREFIX_MASK
        sid = code >> _PREFIX_BITS
        base_moves, stable_moves = self._moves[sid] or self._fill_moves(sid)
        out = [s | pid for s in base_moves]
        parent, g, last = self.prefix_parent[pid], self.prefix_segment[pid], self.prefix_letter[pid]
        for lid, r, pushes, img, pinch in stable_moves:
            if pinch >= 0 and last == lid ^ 1:
                out.append(self._product(g, pinch) << _PREFIX_BITS | parent)
                continue
            q = pushes.get(pid)
            if q is None:
                q = pushes[pid] = len(self.prefix_parent)
                if q > _PREFIX_MASK:
                    raise OverflowError("more key prefixes than a code can address")
                self.prefix_parent.append(pid)
                self.prefix_segment.append(r)
                self.prefix_letter.append(lid)
            out.append(img | q)
        return out

    def _product(self, a: int, b: int) -> int:
        sid = self._products.get((a, b))
        if sid is None:
            key = self.spec.base.mult_key(self.segments[a], self.segments[b])
            sid = self._products[a, b] = self._segment(key)
        return sid

    def key(self, code: int) -> tuple:
        """The normal-form key of a code."""
        parts = [self.segments[code >> _PREFIX_BITS]]
        pid = code & _PREFIX_MASK
        while pid:
            parts.append(self._markers[self.prefix_letter[pid]])
            parts.append(self.segments[self.prefix_segment[pid]])
            pid = self.prefix_parent[pid]
        parts.reverse()
        return tuple(parts)

    def encode(self, key) -> Optional[int]:
        """The code of a normal-form key, or None if a part was never interned."""
        if not isinstance(key, tuple) or len(key) % 2 == 0:
            return None
        pid = 0
        for pos in range(1, len(key), 2):
            g = self._segment_ids.get(key[pos - 1])
            pid = self._pushes.get((g, self._marker_letters.get(key[pos])), {}).get(pid)
            if pid is None:
                return None
        sid = self._segment_ids.get(key[-1])
        return None if sid is None else sid << _PREFIX_BITS | pid


@dataclass(frozen=True)
class NormalForm:
    """Canonical Britton-reduced, coset-normalized representative."""

    spec: HnnSpec = field(compare=False, repr=False)
    key: tuple = field(compare=True)

    def __hash__(self):
        return hash(self.key)

    @property
    def stable_markers(self) -> tuple:
        return self.key[1::2]

    def is_identity(self) -> bool:
        return len(self.key) == 1 and self.spec.base.is_identity(self.key[0])

    def __str__(self):
        return self.spec.key_str(self.key)


@dataclass(frozen=True)
class Pinch:
    start: int           # index of the opening stable letter in the word
    end: int             # index of the closing stable letter
    pair_index: int
    direction: str       # "s'us" (segment in U_i) or "svs'" (segment in V_i)
    rewrite: SubgroupWord


def find_pinch(spec: HnnSpec, w: Word, start: int = 0) -> Optional[Pinch]:
    """Leftmost innermost pinch of a freely reduced word, or None.

    Only stable letters at position ``start`` or later open a candidate.
    """
    if w.alphabet != spec.alphabet:
        raise ValueError("word is over a different alphabet")
    nb = spec.n_base_letters
    positions = [(pos, lid) for pos, lid in enumerate(w.ids[start:], start) if lid >= nb]
    for (q, lq), (p, lp) in zip(positions, positions[1:]):
        i, sq = spec.stable_of_letter(lq)
        i2, sp = spec.stable_of_letter(lp)
        if i != i2 or sq != -sp:
            continue
        seg = Word(spec.base.alphabet, w.ids[q + 1 : p])
        key = spec.base.evaluate(seg)
        sub = spec.pairs[i].u if sq < 0 else spec.pairs[i].v
        sw = sub.membership_with_rewrite(key)
        if sw is not None:
            direction = "s'us" if sq < 0 else "svs'"
            return Pinch(q, p, i, direction, sw)
    return None


def britton_reduce(spec: HnnSpec, w: Word) -> Word:
    """Repeatedly remove pinches until the word is stable letter reduced."""
    if w.alphabet != spec.alphabet:
        raise ValueError("word is over a different alphabet")
    w = free_reduce(w)
    nb = spec.n_base_letters
    start = 0
    while True:
        pinch = find_pinch(spec, w, start)
        if pinch is None:
            return w
        pair = spec.pairs[pinch.pair_index]
        target = pair.v if pinch.direction == "s'us" else pair.u
        image = target.expand(pinch.rewrite)
        # free reduction onto the (freely reduced) prefix as a stack; the
        # prefix's first `kept` letters are left as they were
        ids = list(w.ids[: pinch.start])
        kept = len(ids)
        for lid in image.ids + w.ids[pinch.end + 1 :]:
            if ids and ids[-1] == lid ^ 1:
                ids.pop()
                kept = min(kept, len(ids))
            else:
                ids.append(lid)
        w = Word(spec.alphabet, tuple(ids))
        # stable pairs closing before `kept` were scanned, unchanged, before this pinch
        start = next((pos for pos in range(kept - 1, -1, -1) if ids[pos] >= nb), 0)


def normal_form(spec: HnnSpec, w: Word) -> NormalForm:
    return NormalForm(spec, spec.evaluate(w))


def _check_group(spec: HnnSpec, *elements: NormalForm):
    if any(x.spec is not spec for x in elements):
        raise ValueError("element is a normal form of a different group")


def multiply(spec: HnnSpec, x: NormalForm, y: NormalForm) -> NormalForm:
    _check_group(spec, x, y)
    return NormalForm(spec, spec.mult_key(x.key, y.key))


def invert_el(spec: HnnSpec, x: NormalForm) -> NormalForm:
    _check_group(spec, x)
    return NormalForm(spec, spec.inv_key(x.key))


def stable_letter_signature(nf: NormalForm) -> tuple[tuple[str, int], ...]:
    """Projection onto the sequence of signed stable letters."""
    names = [g.name for g in nf.spec.alphabet.stable_generators]
    return tuple((names[i], eps) for (i, eps) in nf.stable_markers)


# -- isometric verification ----------------------------------------------------

MAX_WITNESSES = 8  # witnesses kept per condition; witness_count counts them all


@dataclass
class ConditionReport:
    passed: bool
    witnesses: list = field(default_factory=list)
    witness_count: int = 0

    def fail(self, witness: str):
        self.passed = False
        self.witness_count += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)


@dataclass
class IsometricReport:
    strip_equidistant: ConditionReport
    geodesic: ConditionReport
    totally_geodesic: ConditionReport
    max_len: int
    incomplete: bool = False

    @property
    def passed(self) -> bool:
        return (
            not self.incomplete
            and self.strip_equidistant.passed
            and self.geodesic.passed
            and self.totally_geodesic.passed
        )

    def lines(self) -> list[str]:
        out = []
        for label, cond in (
            ("strip-equidistant", self.strip_equidistant),
            ("geodesic", self.geodesic),
            ("totally-geodesic", self.totally_geodesic),
        ):
            status = "PASS" if cond.passed else "FAIL"
            out.append(f"{label:18s} {status}")
            for wit in cond.witnesses:
                out.append(f"  witness: {wit}")
            hidden = cond.witness_count - len(cond.witnesses)
            if hidden > 0:
                out.append(f"  ... and {hidden} more witnesses")
        if self.incomplete:
            out.append("report INCOMPLETE: ball cap exceeded")
        return out


def _parses_in_language(ids: tuple[int, ...], blocks: list[tuple[int, ...]]) -> bool:
    """Can ids be split into a literal concatenation of the given blocks?"""
    n = len(ids)
    reachable = [False] * (n + 1)
    reachable[0] = True
    for p in range(n):
        if not reachable[p]:
            continue
        for b in blocks:
            q = p + len(b)
            if q <= n and ids[p:q] == b:
                reachable[q] = True
    return reachable[n]


def _reduced_subgroup_words(m: int, cap: int, weights: list[int]):
    """Index-reduced subgroup words whose literal expansion length is <= cap."""
    stack: list[tuple[SubgroupWord, int]] = [((), 0)]
    while stack:
        sw, length = stack.pop()
        yield sw
        for j in range(m):
            for s in (1, -1):
                if sw and sw[-1] == (j, -s):
                    continue
                l2 = length + weights[j]
                if l2 <= cap:
                    stack.append((sw + ((j, s),), l2))


def verify_isometric(spec: HnnSpec, max_len: int,
                     mem_cap: Optional[int] = None) -> IsometricReport:
    """Check strip equidistance plus the geodesic and totally geodesic conditions.

    The first two conditions are exact.  The totally-geodesic condition is
    verified over every subgroup element within the base ball of radius
    max_len, with every geodesic representative enumerated from the ball's
    predecessor links.  One base ball serves all three conditions; it grows
    as the lengths need it, then to max_len.  A cap hit anywhere marks the
    report incomplete.
    """
    from .cayley import BallCapError, build_ball, extend_ball, geodesics_of

    base = spec.base
    ball = build_ball(base, 0, mem_cap=mem_cap)
    strip, geo, total = ConditionReport(True), ConditionReport(True), ConditionReport(True)
    incomplete = False
    try:
        gen_lens = [
            [base_geodesic_length(base, gw, ball) for gw in sub.generator_words]
            for pair in spec.pairs
            for sub in (pair.u, pair.v)
        ]
        if max_len < max(max(ls) for ls in gen_lens):
            raise ValueError("max_len must be at least the longest generator word")

        for i, pair in enumerate(spec.pairs):
            for j, (uw, vw) in enumerate(zip(pair.u.generator_words, pair.v.generator_words)):
                lu, lv = gen_lens[2 * i][j], gen_lens[2 * i + 1][j]
                if lu != lv:
                    strip.fail(f"pair {i} generator {j}: |{format_word(uw)}|={lu} "
                               f"!= |{format_word(vw)}|={lv}")

        for i, pair in enumerate(spec.pairs):
            for side, sub in (("U", pair.u), ("V", pair.v)):
                weights = [len(gw) for gw in sub.generator_words]
                for sw in _reduced_subgroup_words(len(weights), max_len, weights):
                    if not sw:
                        continue
                    expansion = sub.expand(sw)
                    want = len(expansion)
                    got = base_geodesic_length(base, expansion, ball)
                    if got != want:
                        geo.fail(
                            f"pair {i} {side}: expansion {format_word(expansion)} "
                            f"has length {got} < {want}"
                        )

        extend_ball(ball, max_len)
        blocks_per_sub = {}
        for i, pair in enumerate(spec.pairs):
            for side, sub in (("U", pair.u), ("V", pair.v)):
                blocks = [gw.ids for gw in sub.generator_words]
                blocks += [tuple(l ^ 1 for l in reversed(b)) for b in blocks]
                blocks_per_sub[(i, side)] = blocks
        for eid in range(len(ball)):
            key = ball.key(eid)
            for i, pair in enumerate(spec.pairs):
                for side, sub in (("U", pair.u), ("V", pair.v)):
                    if not sub.contains(key):
                        continue
                    for geod in geodesics_of(ball, key):
                        if not _parses_in_language(geod.ids, blocks_per_sub[(i, side)]):
                            total.fail(
                                f"pair {i} {side}: geodesic {format_word(geod)} of "
                                f"{base.key_str(key)} is outside the generator language"
                            )
    except BallCapError:
        # the ball stops at a complete radius; every check left is unknown
        incomplete = True

    return IsometricReport(strip, geo, total, max_len, incomplete)
