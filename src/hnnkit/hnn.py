"""Multiple HNN extensions: pinches, Britton reduction and canonical forms.

The extension is described by a base-group oracle, stable letters s_i and
pairs of associated subgroups (U_i, V_i) with matched generator lists; the
defining relations are s_i^-1 u_ij s_i = v_ij.  The isomorphism between U_i
and V_i acts generator-wise, which is exactly what the subgroup oracles'
image method provides.  One sign rule says which subgroups a stable letter
joins: s_i^eps crosses U_i onto V_i if eps > 0, else V_i onto U_i.  HnnSpec
applies it once, in a table per stable letter id that the fold, the key
tables and the pinch test read.  Britton reduction is one left-to-right pass
over an output stack, which cuts each pinch back to its opening stable letter.

Canonical forms are built by a single left-to-right fold over letters.  The
working state is an alternating list [g0, s, g1, ..., gl] of base segments
and stable letters.  Appending a stable letter either removes a pinch
(s_i^-1 u s_i with u in U_i, or s_i v s_i^-1 with v in V_i) or splits the
last segment g = r * u along a left coset of the crossed subgroup, pushing
the image of u across the stable letter.  The result is the unique normal
form: two words represent the same group element iff they fold to equal
keys.

One class, SegmentTable, interns base segments as ints, fills a segment's
move for a letter the first time the letter meets it (the next segment for a
base letter, the split (r, image) for a stable letter) and memoizes products
and inverses.  The pinch is read off the split: the segment lies in the
crossed subgroup exactly when r is segment 0, the identity, and then the
image is what the pinch carries across.  The word fold owns one bounded
table per spec, whose segment ids its states hold, and replaces it with a
fresh one between calls once it is full.  Each Cayley ball's HnnKeyTable
owns a table that is never replaced, and keeps all-letter rows on top of it.
It codes an element as one int of three fields: its last segment id, a pair
id for the coset representative and stable letter just before that segment,
and the id of the key prefix before that pair.  A prefix is interned only
when the ball expands an element, so the outer sphere of a ball, never
expanded, interns none.
"""

from __future__ import annotations

import threading
from array import array
from typing import NamedTuple, Optional, Sequence

from .base_groups import BaseGroupOracle, base_geodesic_length
from .subgroups import SubgroupOracle, SubgroupWord
from .words import Alphabet, Word, free_reduce, format_word

# Segments the word fold's table holds before the next call replaces it.  On
# 2,000 random words of length 200 each on wise and g2 (the words_nf
# benchmark, which peaks at 43.7 MB without the table), one process each
# peaked at 41.4, 44.1, 47.5 and 51.1 MB with bounds 1 << 11, 12, 13 and 14,
# against a 5 % budget of 2.2 MB.  At 1 << 12 the table is replaced once on
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
        for side, sub in (("u", u), ("v", v)):
            if sub.rank != len(sub.generator_words):
                raise ValueError(f"the {side} words are not a free basis "
                                 f"(they generate a subgroup of rank {sub.rank})")
        self.u = u
        self.v = v


class SegmentTable:
    """The base segments of an HnnSpec's keys, interned as ints, with their
    moves, products and inverses; segment 0 is the identity."""

    def __init__(self, spec: "HnnSpec"):
        self.spec = spec
        self.keys: list = []  # segment id -> base key
        self.ids: dict = {}   # base key -> segment id
        # segment id -> per letter: the next segment id (base letters), the split
        # (r id, image id) (stable letters), or None; one shared row until filled
        self._unfilled = (None,) * spec.alphabet.n_letters
        self.moves: list = []
        self._products: dict = {}  # (segment id, segment id) -> segment id
        self._inverses: dict = {}  # segment id -> segment id
        self.segment(spec.base.identity_key())

    def segment(self, key) -> int:
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.moves.append(self._unfilled)
        return sid

    def _row(self, sid: int) -> list:
        row = self.moves[sid]
        if row is self._unfilled:
            row = self.moves[sid] = list(row)
        return row

    def base_move(self, sid: int, lid: int) -> int:
        nxt = self.segment(self.spec.base.apply_letter(self.keys[sid], lid))
        self._row(sid)[lid] = nxt
        self._row(nxt)[lid ^ 1] = sid
        return nxt

    def stable_move(self, sid: int, lid: int) -> tuple:
        r, img = self.spec._split(self.keys[sid], lid)
        move = self._row(sid)[lid] = (self.segment(r), self.segment(img))
        return move

    def product(self, a: int, b: int) -> int:
        if not b:
            return a
        if not a:
            return b
        p = self._products.get((a, b))
        if p is None:
            keys = self.keys
            p = self._products[a, b] = self.segment(self.spec.base.mult_key(keys[a], keys[b]))
        return p

    def inverse(self, sid: int) -> int:
        inv = self._inverses.get(sid)
        if inv is None:
            inv = self._inverses[sid] = self.segment(self.spec.base.inv_key(self.keys[sid]))
            self._inverses[inv] = sid
        return inv


class HnnSpec(BaseGroupOracle):
    """A multiple HNN extension, usable as an element oracle for ball builds.

    Its table per stable letter id (s_i^eps, after the base letters) holds the
    marker (i, eps) that keys carry and the sides (crossed, target): (U_i, V_i)
    if eps > 0, else (V_i, U_i)."""

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
        ident = base.identity_key()
        for i, pair in enumerate(self.pairs):
            for side, sub in (("U", pair.u), ("V", pair.v)):
                if sub.coset_rep_left(ident) != ident:
                    raise ValueError(f"pair {i} {side}: the coset representative of "
                                     "the subgroup itself is not the identity")
        # the stable letter table, indexed by letter id (None for base letters)
        self._stable_markers = [None] * self.n_base_letters
        self._sides = [None] * self.n_base_letters
        for i, pair in enumerate(self.pairs):
            self._stable_markers += [(i, 1), (i, -1)]
            self._sides += [(pair.u, pair.v), (pair.v, pair.u)]
        self._stable_letters = {m: lid for lid, m in enumerate(self._stable_markers) if m}
        self._lock = threading.Lock()
        self._segments = SegmentTable(self)  # the word fold's, replaced in _begin
        self.relators = tuple(self._make_relators())

    def _make_relators(self) -> list[Word]:
        rels = [Word(self.alphabet, r.ids) for r in self.base.relators]
        for i, pair in enumerate(self.pairs):
            s_pos = self._stable_letters[i, 1]
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
        return self._stable_markers[lid]

    def stable_letter_id(self, i: int, sign: int) -> int:
        return self._stable_letters[i, 1 if sign > 0 else -1]

    # -- the fold ------------------------------------------------------------

    def _split(self, tail, lid: int):
        """(r, img): tail = r * u with r its left coset representative, img the image
        of u across letter lid.  tail is in the crossed subgroup iff r is the identity."""
        sub, target = self._sides[lid]
        r = sub.coset_rep_left(tail)
        img = sub.image(self.base.mult_key(self.base.inv_key(r), tail), target)
        if img is None:
            raise AssertionError("coset split produced a non-member factor")
        return r, img

    def _append_stable(self, segs: list, i: int, eps: int):
        table = self._segments
        lid = self._stable_letters[i, eps]
        sid = segs[-1]
        r, img = table.moves[sid][lid] or table.stable_move(sid, lid)
        if not r and len(segs) >= 3 and segs[-2] == lid ^ 1:
            del segs[-2:]
            segs[-1] = table.product(segs[-1], img)
        else:
            segs[-1] = r
            segs += (lid, img)

    def _fold_letters(self, segs: list, ids) -> list:
        nb, table = self.n_base_letters, self._segments
        moves, base_move = table.moves, table.base_move
        markers, append_stable = self._stable_markers, self._append_stable
        sid = segs[-1]
        for lid in ids:
            if lid < nb:
                nxt = moves[sid][lid]
                sid = base_move(sid, lid) if nxt is None else nxt
            else:
                segs[-1] = sid
                append_stable(segs, *markers[lid])
                sid = segs[-1]
        segs[-1] = sid
        return segs

    def _fold_key_onto(self, segs: list, key) -> list:
        """Multiply the element of a key onto the end of segs."""
        table, append_stable = self._segments, self._append_stable
        segs[-1] = table.product(segs[-1], table.segment(key[0]))
        for pos in range(1, len(key), 2):
            append_stable(segs, *key[pos])
            segs[-1] = table.product(segs[-1], table.segment(key[pos + 1]))
        return segs

    def _state(self, key) -> list:
        """The fold state of a key: its segments and markers as ids."""
        segs = list(key)
        segs[::2] = map(self._segments.segment, key[::2])
        segs[1::2] = map(self._stable_letters.__getitem__, key[1::2])
        return segs

    def _key(self, segs: list) -> tuple:
        parts = list(segs)
        parts[::2] = map(self._segments.keys.__getitem__, segs[::2])
        parts[1::2] = map(self._stable_markers.__getitem__, segs[1::2])
        return tuple(parts)

    def _begin(self):
        """Start a call of the word fold: the table is replaced only here, so the
        ids a call holds stay valid until it returns."""
        if len(self._segments.keys) > _SEGMENT_TABLE_SIZE:
            self._segments = SegmentTable(self)

    # -- oracle interface ------------------------------------------------------

    def identity_key(self):
        return (self.base.identity_key(),)

    def apply_letter(self, key, lid: int):
        with self._lock:
            self._begin()
            return self._key(self._fold_letters(self._state(key), (lid,)))

    def mult_key(self, k1, k2):
        with self._lock:
            self._begin()
            return self._key(self._fold_key_onto(self._state(k1), k2))

    def inv_key(self, key):
        with self._lock:
            self._begin()
            table, append_stable = self._segments, self._append_stable
            segs = [table.inverse(table.segment(key[-1]))]
            for pos in range(len(key) - 2, 0, -2):
                i, eps = key[pos]
                append_stable(segs, i, -eps)
                segs[-1] = table.product(segs[-1], table.inverse(table.segment(key[pos - 1])))
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
                parts.append(self.alphabet.letter_str(self._stable_letters[part]))
        return "|".join(parts)

    def word_of_key(self, key) -> Word:
        """Some word spelling the element: base segments expanded in place."""
        ids: list[int] = []
        for pos, part in enumerate(key):
            if pos % 2 == 0:
                ids.extend(self.base.word_of_key(part).ids)
            else:
                ids.append(self._stable_letters[part])
        return Word(self.alphabet, tuple(ids))

    def key_table(self) -> "HnnKeyTable":
        """A fresh table of compact keys, for one ball."""
        return HnnKeyTable(self)


# An element's code packs three fields into one int below 2 ** 63, so that the
# codes fit an array("q"): segment id << 41 | pair id << 23 | prefix id
_PREFIX_BITS, _PAIR_BITS, _SEGMENT_BITS = 23, 18, 22
_PAIR_SHIFT = _PREFIX_BITS
_SEGMENT_SHIFT = _PREFIX_BITS + _PAIR_BITS
_PREFIX_MASK = (1 << _PREFIX_BITS) - 1
_PAIR_MASK = (1 << _PAIR_BITS) - 1
_SEGMENT_MASK = (1 << _SEGMENT_BITS) - 1
_LOW_MASK = (1 << _SEGMENT_SHIFT) - 1  # the pair and prefix fields


class HnnKeyTable:
    """Compact keys of the elements of one ball over an HnnSpec.

    The table belongs to the ball that made it, and so does its SegmentTable,
    which is never replaced: the word functions never grow either.  A key
    g0, m1, g1, ..., mk, gk is coded in three fields: its last segment gk, the
    pair (g(k-1), mk) just before it, and the prefix of everything before that
    pair.  A pair is a coset representative that a split left behind and the
    stable letter that crossed it, interned as a pair id; pair 0 is none, for
    keys with no stable letter.  A prefix is a run of pairs, interned as a
    prefix id: prefix 0 is empty, and every other one is (parent prefix, pair
    id).  The code is segment id << 41 | pair id << 23 | prefix id; the prefix
    id takes the low bits, which spread the codes over a dict's slots.

    A prefix is interned only when row() expands an element, once per
    element: the element's prefix followed by its pair becomes the prefix of
    every element a stable letter pushes it to.  A pinch drops the element's
    pair and reads the pair and prefix before it off prefix_pair and
    prefix_parent.  So a ball interns one prefix per distinct key prefix of
    its expanded elements, and its outer sphere adds none: its rows, which
    only cayley.ball_edges reads, come from row(code, intern=False).

    The fields hold 2 ** 22 segments, 2 ** 18 pairs and 2 ** 23 prefixes.
    Per element, wise r7 and g2 r9 (1.5 M and 2.0 M elements) intern at most
    0.049 prefixes, 0.0194 segments and 0.0065 pairs, and the share falls or
    holds as the radius grows.  A ball at cayley.DEFAULT_MEM_CAP (2e7
    elements) would so need about 1.0 M prefix ids, 0.39 M segment ids and
    0.13 M pair ids: an eighth, a tenth and a half of the fields.  row()
    raises an OverflowError before any field would overflow.

    A segment's moves are computed once, all letters at a time: per base
    letter the next segment, per stable letter the pushed code (image and
    pair) and the pinch image (the image if r is segment 0, else -1).  A BFS
    step is then a memo lookup plus at most one prefix lookup.
    """

    def __init__(self, spec: HnnSpec):
        self.spec = spec
        # per stable letter: the subgroup it splits along, and that subgroup's first generator
        self._crossed = {lid: (sides[0], sides[0].evaluate_subgroup_word(((0, 1),)))
                         for lid, sides in enumerate(spec._sides) if sides}
        self.identity = 0
        self._segments = SegmentTable(spec)
        self._moves: list = []  # segment id -> (base moves, stable moves), or None
        # pair id -> coset representative's segment id and stable letter id
        self.pair_segment, self.pair_letter = array("i", [0]), array("i", [-1])
        self._pairs: dict = {}  # (segment id, stable letter id) -> pair id
        # prefix id -> parent prefix and last pair id
        self.prefix_parent, self.prefix_pair = array("i", [0]), array("i", [0])
        self._children: list = [None]  # pair id -> {parent prefix: prefix id}

    def _pair(self, r: int, lid: int) -> int:
        pair = self._pairs.get((r, lid))
        if pair is None:
            pair = self._pairs[r, lid] = len(self.pair_segment)
            if pair > _PAIR_MASK:
                raise OverflowError("more key pairs than a code can address")
            self.pair_segment.append(r)
            self.pair_letter.append(lid)
            self._children.append({})
        return pair

    def _fill_moves(self, sid: int) -> tuple:
        """The moves of a segment: base ones as shifted segment ids, stable ones as
        (letter, shifted image and pair, pinch)."""
        spec, segment = self.spec, self._segments.segment
        g = self._segments.keys[sid]
        apply_letter = spec.base.apply_letter
        base_moves = tuple(segment(apply_letter(g, lid)) << _SEGMENT_SHIFT
                           for lid in range(spec.n_base_letters))
        stable_moves = []
        for lid, (sub, gen) in self._crossed.items():
            r, img = spec._split(g, lid)
            # pairs are interned by segment id, so a representative must be
            # canonical: its own representative, and that of r times a generator
            if sub.coset_rep_left(r) != r or sub.coset_rep_left(spec.base.mult_key(r, gen)) != r:
                raise AssertionError("coset representative is not canonical")
            r, img = segment(r), segment(img)
            stable_moves.append((lid, img << _SEGMENT_SHIFT | self._pair(r, lid) << _PAIR_SHIFT,
                                 -1 if r else img))
        if len(self._segments.keys) - 1 > _SEGMENT_MASK:
            raise OverflowError("more key segments than a code can address")
        if sid >= len(self._moves):
            self._moves += [None] * (sid + 1 - len(self._moves))
        moves = self._moves[sid] = (base_moves, tuple(stable_moves))
        return moves

    def row(self, code: int, intern: bool = True) -> list:
        """The codes of code * letter, for every letter in order.

        With intern False the table interns nothing, for an element that is
        not expanded: a push whose prefix was never interned leaves the
        ball, and its entry is None.
        """
        sid = code >> _SEGMENT_SHIFT
        moves = self._moves
        base_moves, stable_moves = (sid < len(moves) and moves[sid]) or self._fill_moves(sid)
        low = code & _LOW_MASK
        out = [s | low for s in base_moves]
        pair, pid = code >> _PAIR_SHIFT & _PAIR_MASK, code & _PREFIX_MASK
        q, last = 0, -1  # with no pair, pushes keep the empty prefix and nothing pinches
        if pair:
            # the prefix of every pushed element: this element's prefix, then its pair
            children = self._children[pair]
            q = children.get(pid)
            if q is None and intern:
                q = children[pid] = len(self.prefix_parent)
                if q > _PREFIX_MASK:
                    raise OverflowError("more key prefixes than a code can address")
                self.prefix_parent.append(pid)
                self.prefix_pair.append(pair)
            last = self.pair_letter[pair]
        for lid, push, pinch in stable_moves:
            if pinch >= 0 and last == lid ^ 1:
                s = self._segments.product(self.pair_segment[pair], pinch)
                if s > _SEGMENT_MASK:
                    raise OverflowError("more key segments than a code can address")
                out.append(s << _SEGMENT_SHIFT | self.prefix_pair[pid] << _PAIR_SHIFT
                           | self.prefix_parent[pid])
            else:
                out.append(None if q is None else push | q)
        return out

    def key(self, code: int) -> tuple:
        """The normal-form key of a code."""
        segments, markers = self._segments.keys, self.spec._stable_markers
        parts = [segments[code >> _SEGMENT_SHIFT]]
        pair, pid = code >> _PAIR_SHIFT & _PAIR_MASK, code & _PREFIX_MASK
        while pair:
            parts.append(markers[self.pair_letter[pair]])
            parts.append(segments[self.pair_segment[pair]])
            pair, pid = self.prefix_pair[pid], self.prefix_parent[pid]
        parts.reverse()
        return tuple(parts)

    def encode(self, key) -> Optional[int]:
        """The code of a normal-form key, or None if a part was never interned."""
        if not isinstance(key, tuple) or len(key) % 2 == 0:
            return None
        segment_ids, letters = self._segments.ids, self.spec._stable_letters
        pair = pid = 0
        for pos in range(1, len(key), 2):
            if pair:
                pid = self._children[pair].get(pid)
                if pid is None:
                    return None
            pair = self._pairs.get((segment_ids.get(key[pos - 1]), letters.get(key[pos])))
            if pair is None:
                return None
        sid = segment_ids.get(key[-1])
        return None if sid is None else sid << _SEGMENT_SHIFT | pair << _PAIR_SHIFT | pid

    def new_codes(self) -> array:
        """A ball's code container, holding the identity: codes as 64-bit ints."""
        return array("q", [self.identity])


class NormalForm:
    """Canonical Britton-reduced, coset-normalized representative; compared and
    hashed by its key only."""

    __slots__ = ("spec", "key")

    def __init__(self, spec: HnnSpec, key: tuple):
        self.spec = spec
        self.key = key

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"NormalForm(key={self.key!r})"

    @property
    def stable_markers(self) -> tuple:
        return self.key[1::2]

    def is_identity(self) -> bool:
        return len(self.key) == 1 and self.spec.base.is_identity(self.key[0])

    def __str__(self):
        return self.spec.key_str(self.key)


class Pinch(NamedTuple):
    start: int           # index of the opening stable letter in the word
    end: int             # index of the closing stable letter
    pair_index: int
    direction: str       # "s'us" (segment in U_i) or "svs'" (segment in V_i)
    rewrite: SubgroupWord


def _pinch_rewrite(spec: HnnSpec, opening: int, segment: tuple) -> Optional[tuple]:
    """(rewrite, target subgroup) if opening, segment, opening^-1 is a pinch, else None:
    the segment must lie in the subgroup that the closing letter crosses."""
    sub, target = spec._sides[opening ^ 1]
    rewrite = sub.membership_with_rewrite(spec.base.evaluate(Word(spec.base.alphabet, segment)))
    return None if rewrite is None else (rewrite, target)


def find_pinch(spec: HnnSpec, w: Word) -> Optional[Pinch]:
    """Leftmost innermost pinch of a freely reduced word, or None."""
    if w.alphabet != spec.alphabet:
        raise ValueError("word is over a different alphabet")
    ids, nb = w.ids, spec.n_base_letters
    positions = [pos for pos, lid in enumerate(ids) if lid >= nb]
    for q, p in zip(positions, positions[1:]):
        if ids[p] == ids[q] ^ 1 and (found := _pinch_rewrite(spec, ids[q], ids[q + 1 : p])):
            i, sign = spec.stable_of_letter(ids[q])
            return Pinch(q, p, i, "s'us" if sign < 0 else "svs'", found[0])
    return None


def britton_reduce(spec: HnnSpec, w: Word) -> Word:
    """Remove pinches in one pass.  The word is freely reduced first, since
    letters must cancel before a pinch is taken (on wise, sds's is sd, not as).
    Each letter then cancels the last output letter, closes a pinch with the
    last stable letter of the output (cut back there; the image is read next)
    or is appended."""
    if w.alphabet != spec.alphabet:
        raise ValueError("word is over a different alphabet")
    nb = spec.n_base_letters
    todo = list(reversed(free_reduce(w).ids))
    out, opens = [], []  # the output and the positions of its stable letters
    while todo:
        lid = todo.pop()
        if out and out[-1] == lid ^ 1:
            if out.pop() >= nb:
                opens.pop()
            continue
        if lid >= nb:
            if opens and out[q := opens[-1]] == lid ^ 1 and (
                    found := _pinch_rewrite(spec, lid ^ 1, tuple(out[q + 1 :]))):
                rewrite, target = found
                todo += reversed(target.expand(rewrite).ids)
                del out[q:]
                opens.pop()
                continue
            opens.append(len(out))
        out.append(lid)
    return Word(spec.alphabet, tuple(out))


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


class ConditionReport:
    """One condition's outcome: passed is True or False, or None if it was not checked."""

    def __init__(self, passed: Optional[bool], witnesses: Optional[list] = None,
                 witness_count: int = 0):
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses
        self.witness_count = witness_count

    def fail(self, witness: str):
        self.passed = False
        self.witness_count += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "witnesses": self.witnesses,
                "witness_count": self.witness_count}


class IsometricReport:
    def __init__(self, strip_equidistant: ConditionReport, geodesic: ConditionReport,
                 totally_geodesic: ConditionReport, max_len: int, incomplete: bool = False):
        self.strip_equidistant = strip_equidistant
        self.geodesic = geodesic
        self.totally_geodesic = totally_geodesic
        self.max_len = max_len
        self.incomplete = incomplete

    @property
    def passed(self) -> bool:
        return (
            not self.incomplete
            and self.strip_equidistant.passed
            and self.geodesic.passed
            and self.totally_geodesic.passed
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "incomplete": self.incomplete,
            "strip_equidistant": self.strip_equidistant.to_dict(),
            "geodesic": self.geodesic.to_dict(),
            "totally_geodesic": self.totally_geodesic.to_dict(),
        }

    def lines(self) -> list[str]:
        out = []
        for label, cond in (
            ("strip-equidistant", self.strip_equidistant),
            ("geodesic", self.geodesic),
            ("totally-geodesic", self.totally_geodesic),
        ):
            status = "UNKNOWN" if cond.passed is None else "PASS" if cond.passed else "FAIL"
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


def verify_isometric(spec: HnnSpec, max_len: int,
                     mem_cap: Optional[int] = None) -> IsometricReport:
    """Check strip equidistance and, up to max_len, the (totally) geodesic conditions.

    Strip equidistance compares the exact base lengths of paired generator
    words, and needs no ball.  The other two are read off one base ball
    B(max_len), built once: one pass over the ball rewrites each element
    over each subgroup's generator words.  The words are a free basis, so a
    member has one reduced rewrite: if its literal expansion is at most
    max_len long it must be a geodesic (the geodesic condition), and every
    geodesic word of the member, enumerated from the ball's predecessor
    links, must split into generator words and their inverses (the totally
    geodesic condition).  A cap hit while building the ball leaves those two
    conditions unknown (passed is None) and marks the report incomplete.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    from .cayley import BallCapError, _geodesics, build_ball

    base = spec.base
    strip = ConditionReport(True)
    subs = []
    for i, pair in enumerate(spec.pairs):
        for j, (uw, vw) in enumerate(zip(pair.u.generator_words, pair.v.generator_words)):
            lu, lv = base_geodesic_length(base, uw), base_geodesic_length(base, vw)
            if lu != lv:
                strip.fail(f"pair {i} generator {j}: |{format_word(uw)}|={lu} "
                           f"!= |{format_word(vw)}|={lv}")
        for side, sub in (("U", pair.u), ("V", pair.v)):
            blocks = [gw.ids for gw in sub.generator_words]
            blocks += [tuple(l ^ 1 for l in reversed(b)) for b in blocks]
            subs.append((f"pair {i} {side}", sub, blocks))
    try:
        ball = build_ball(base, max_len, mem_cap=mem_cap)
    except BallCapError:
        return IsometricReport(strip, ConditionReport(None), ConditionReport(None), max_len,
                               incomplete=True)

    geo, total = ConditionReport(True), ConditionReport(True)
    for d in range(ball.radius + 1):
        for eid in ball.sphere(d):
            key = ball.key(eid)
            for where, sub, blocks in subs:
                sw = sub.membership_with_rewrite(key)
                if sw is None:
                    continue
                expansion = sub.expand(sw)
                if d < len(expansion) <= max_len:
                    geo.fail(f"{where}: expansion {format_word(expansion)} "
                             f"has length {d} < {len(expansion)}")
                for geod in _geodesics(ball, eid):
                    if not _parses_in_language(geod.ids, blocks):
                        total.fail(f"{where}: geodesic {format_word(geod)} of "
                                   f"{base.key_str(key)} is outside the generator language")
    return IsometricReport(strip, geo, total, max_len)
