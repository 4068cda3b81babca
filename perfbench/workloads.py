"""The benchmark's four workloads, their pinned answers and the traced API.

Every workload calls the same public entry points as the ``hnnkit`` command
and checks its answers against the values pinned by the acceptance suite.
Why these four:

* ``wise_ac``: the paper's headline group (abelian base, cyclic associated
  subgroups).  The radius-7 ball stresses the stable-letter fold, the ball
  layout and ``ac_profile`` memory.  No Stallings code and no fftp.
* ``g2_ac``: free base with Stallings subgroups, so the fold goes through
  membership rewriting and coset representatives instead of integer
  arithmetic.
* ``z2abcd_fftp``: the exhaustive fellow-traveler search.  Its balls are
  tiny, so nearly all time is the dynamic program and a ball or fold change
  should not move it.
* ``words_nf``: long seeded words with deep stable-letter nesting and no
  ball at all, so a change that helps short-key ball builds but costs long
  words shows here.  The only workload that consumes the seed.
"""

from __future__ import annotations

import functools
import hashlib
import random
import resource
from time import perf_counter

import hnnkit.cayley
import hnnkit.convexity
from hnnkit import (
    HnnSpec,
    Word,
    ac_profile,
    britton_reduce,
    build_ball,
    fftp_search,
    invert,
    invert_el,
    multiply,
    normal_form,
    preset,
    verify_isometric,
    verify_parallel_signatures,
)

# pinned answers (tests/test_acceptance.py, plus the radius-7 C(7) of g2 and
# the size of its radius-8 ball, both measured on the seed commit)
WISE_SPHERES = [1, 12, 86, 600, 4082, 27844, 189462, 1289676]
WISE_C = {1: 2, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4}
G2_ELEMENTS_R8 = 430_289
G2_C = {1: 2, 2: 4, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6}
FFTP_KMIN = 2
FFTP_TOTAL_WORDS = 1_098_056
FFTP_NON_GEODESIC = 1_090_590

WORDS_PER_GROUP = 2_000
WORD_LEN = 200

GROUPS = {
    "wise_ac": ("wise",),
    "g2_ac": ("g2",),
    "z2abcd_fftp": ("z2_abcd",),
    "words_nf": ("wise", "g2"),
}


# seconds the workload spent paused for setup probes (see run.py)
PAUSED_S = [0.0]


def clock() -> float:
    """perf_counter less the time spent paused, for solve and latency timers.

    A pause may start between any two bytecodes, so the paused total is read
    again after the clock and the read retried if a pause came in between.
    """
    while True:
        paused = PAUSED_S[0]
        now = perf_counter()
        if PAUSED_S[0] == paused:
            return now - paused


class CheckFailed(Exception):
    pass


def check(what: str, got, want):
    """Raise CheckFailed on a mismatch; survives python -O unlike assert."""
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


class Checker:
    """Counts ops; every failed check is one failed op and is kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, what: str, got, want):
        self.attempted += 1
        try:
            check(what, got, want)
        except CheckFailed as exc:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(str(exc))


class Api:
    """The hnnkit entry points the workloads call, untraced."""

    preset = staticmethod(preset)
    build_ball = staticmethod(build_ball)
    ac_profile = staticmethod(ac_profile)
    verify_parallel_signatures = staticmethod(verify_parallel_signatures)
    verify_isometric = staticmethod(verify_isometric)
    fftp_search = staticmethod(fftp_search)
    normal_form = staticmethod(normal_form)
    britton_reduce = staticmethod(britton_reduce)
    multiply = staticmethod(multiply)
    invert_el = staticmethod(invert_el)


# -- workloads: each returns its solve time (hnnkit calls only) and extras ------


def wise_ac(api, groups, checker, seed):
    wise = groups["wise"]
    t0 = clock()
    ball = api.build_ball(wise, 7)
    t1 = clock()
    report = api.ac_profile(ball, 6)
    t2 = clock()
    sigs = api.verify_parallel_signatures(ball, wise)
    t3 = clock()
    checker.expect("wise sphere sizes", ball.sphere_sizes, WISE_SPHERES)
    checker.expect("wise C(N)", {r.radius: r.c for r in report.records}, WISE_C)
    checker.expect("wise signatures", (sigs.passed, sigs.elements), (True, len(ball)))
    return t3 - t0, {"ball_s": t1 - t0, "ac_s": t2 - t1, "signatures_s": t3 - t2}


def g2_ac(api, groups, checker, seed):
    g2 = groups["g2"]
    t0 = clock()
    ball = api.build_ball(g2, 8)
    t1 = clock()
    report = api.ac_profile(ball, 7)
    t2 = clock()
    iso = api.verify_isometric(g2, 8)
    t3 = clock()
    checker.expect("g2 elements", len(ball), G2_ELEMENTS_R8)
    checker.expect("g2 C(N)", {r.radius: r.c for r in report.records}, G2_C)
    checker.expect("g2 isometric", iso.passed, True)
    return t3 - t0, {"ball_s": t1 - t0, "ac_s": t2 - t1, "isometric_s": t3 - t2}


def z2abcd_fftp(api, groups, checker, seed):
    z2 = groups["z2_abcd"]
    t0 = clock()
    ball = api.build_ball(z2, 7)
    report = api.fftp_search(ball, max_len=7, k_cap=6, jobs=1)
    t1 = clock()
    checker.expect("fftp kMin", report.k_min, FFTP_KMIN)
    checker.expect("fftp total words", report.total_words, FFTP_TOTAL_WORDS)
    checker.expect("fftp non-geodesic words", report.non_geodesic_words, FFTP_NON_GEODESIC)
    checker.expect("fftp unresolved", report.unresolved, [])
    return t1 - t0, {}


def make_words(spec: HnnSpec, rng: random.Random, count: int, length: int):
    """(word, word with a relator inserted) pairs; words are freely reduced."""
    n = spec.alphabet.n_letters
    relators = [r.ids for r in spec.relators] + [invert(r).ids for r in spec.relators]
    out = []
    for _ in range(count):
        ids = [rng.randrange(n)]
        while len(ids) < length:
            lid = rng.randrange(n)
            if lid != ids[-1] ^ 1:
                ids.append(lid)
        rel = rng.choice(relators)
        pos = rng.randint(0, length)
        w = Word(spec.alphabet, tuple(ids))
        w2 = Word(spec.alphabet, w.ids[:pos] + rel + w.ids[pos:])
        out.append((w, w2))
    return out


def words_digest(pairs) -> str:
    h = hashlib.sha256()
    for w, w2 in pairs:
        h.update(bytes(w.ids))
        h.update(b"|")
        h.update(bytes(w2.ids))
        h.update(b"\n")
    return h.hexdigest()[:16]


def _stable_sequence(spec: HnnSpec, w: Word):
    nb = spec.n_base_letters
    return tuple(spec.stable_of_letter(lid) for lid in w.ids if lid >= nb)


def words_nf(api, groups, checker, seed):
    rng = random.Random(seed)
    inputs = [
        (groups[name], make_words(groups[name], rng, WORDS_PER_GROUP, WORD_LEN))
        for name in GROUPS["words_nf"]
    ]
    digest = words_digest([pair for _, pairs in inputs for pair in pairs])
    solve = 0.0
    latencies: list[float] = []
    for spec, pairs in inputs:
        for w, w2 in pairs:
            t0 = clock()
            x = api.normal_form(spec, w)
            t1 = clock()
            x2 = api.normal_form(spec, w2)
            t2 = clock()
            reduced = api.britton_reduce(spec, w)
            unit = api.multiply(spec, x, api.invert_el(spec, x))
            t3 = clock()
            solve += t3 - t0
            latencies.append(t1 - t0)
            latencies.append(t2 - t1)
            checker.expect("relator insertion", x2, x)
            # Britton: every reduced word of an element crosses the same
            # sequence of stable letters as its normal form
            checker.expect("britton signature", _stable_sequence(spec, reduced),
                           x.stable_markers)
            checker.expect("x * x^-1", unit.is_identity(), True)
    latencies.sort()
    n = len(latencies)
    return solve, {
        "inputs_digest": digest,
        "nf_samples": n,
        "nf_p50_us": latencies[n // 2] * 1e6,
        "nf_p99_us": latencies[min(n - 1, (99 * n) // 100)] * 1e6,
    }


WORKLOADS = {
    "wise_ac": wise_ac,
    "g2_ac": g2_ac,
    "z2abcd_fftp": z2abcd_fftp,
    "words_nf": words_nf,
}


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- the traced API -----------------------------------------------------------

BASE_METHODS = ("identity_key", "apply_letter", "apply_letter_left", "mult_key",
                "inv_key", "evaluate", "key_str", "word_of_key",
                "geodesic_length_exact", "is_identity")
SUBGROUP_METHODS = ("membership_with_rewrite", "contains", "coset_rep",
                    "coset_rep_left", "expand", "evaluate_subgroup_word")
HNN_METHODS = ("apply_letter", "apply_letter_left", "mult_key", "inv_key",
               "evaluate", "key_str", "word_of_key")
BALL_METHODS = ("id_of", "distance_of_key", "neighbors", "shortlex_geodesic",
                "geodesic_count", "label")

COUNTS = ("hnn.apply_letter_calls", "hnn.pinches", "hnn.splits",
          "cayley.balls_built", "cayley.elements_built", "cayley.elements",
          "cayley.letter_applications", "cayley.rss_growth_bytes",
          "convexity.ac_pairs", "convexity.ac_rss_growth_bytes",
          "convexity.fftp_words", "convexity.fftp_oracle_calls")
ORACLE_LAYERS = ("base_groups", "subgroups", "hnn")


class TracedApi:
    """Api whose calls are spans and whose created objects are instrumented.

    Entering the context also routes the ball builds inside ``fftp_search``
    and ``verify_isometric`` through the traced ``build_ball``, so every BFS
    is counted.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = dict.fromkeys(COUNTS, 0)
        span = tracer.wrap_span
        self.verify_parallel_signatures = span(
            "convexity.verify_parallel_signatures", "convexity", verify_parallel_signatures)
        self.verify_isometric = span("hnn.verify_isometric", "hnn", verify_isometric)
        self.normal_form = span("hnn.normal_form", "hnn", normal_form)
        self.britton_reduce = span("hnn.britton_reduce", "hnn", britton_reduce)
        self.multiply = span("hnn.multiply", "hnn", multiply)
        self.invert_el = span("hnn.invert_el", "hnn", invert_el)
        self._inner_build = functools.partial(self._build, False)

    def __enter__(self):
        self._saved = (hnnkit.cayley.build_ball, hnnkit.convexity.build_ball)
        hnnkit.cayley.build_ball = self._inner_build
        hnnkit.convexity.build_ball = self._inner_build
        return self

    def __exit__(self, *exc):
        hnnkit.cayley.build_ball, hnnkit.convexity.build_ball = self._saved

    def preset(self, name):
        group = self.tracer.span("specfile.preset", "specfile", preset, name)
        t = self.tracer
        if isinstance(group, HnnSpec):
            t.instrument(group, "hnn", HNN_METHODS,
                         {"apply_letter": self._count_apply_letter})
            self._count_stable_letters(group)
            t.instrument(group.base, "base_groups", BASE_METHODS)
            for pair in group.pairs:
                t.instrument(pair.u, "subgroups", SUBGROUP_METHODS)
                t.instrument(pair.v, "subgroups", SUBGROUP_METHODS)
        else:
            t.instrument(group, "base_groups", BASE_METHODS)
        return group

    def _count_apply_letter(self, args, result):
        self.counts["hnn.apply_letter_calls"] += 1

    def _count_stable_letters(self, spec):
        """Count every stable letter folded onto a key, whoever folds it.

        ``_append_stable`` is the one place a stable letter meets a key: the
        ball builds reach it through ``apply_letter``, the word functions
        through ``evaluate``, ``mult_key`` and ``inv_key``.  It works on the
        key's segment list in place; a pinch removes a marker and a base
        segment, a split adds them.
        """
        counts = self.counts
        fold = spec._append_stable

        def counted(segs, i, eps):
            n = len(segs)
            fold(segs, i, eps)
            if len(segs) < n:
                counts["hnn.pinches"] += 1
            elif len(segs) > n:
                counts["hnn.splits"] += 1

        counted.__wrapped__ = fold
        spec._append_stable = counted

    def _build(self, own, oracle, radius, *args, **kwargs):
        # count the letter applications this BFS makes on its oracle
        inner = oracle.apply_letter
        applied = [0]

        def apply_letter(key, lid):
            applied[0] += 1
            return inner(key, lid)

        rss0 = maxrss_bytes()
        oracle.apply_letter = apply_letter
        try:
            ball = self.tracer.span("cayley.build_ball", "cayley", build_ball,
                                    oracle, radius, *args, **kwargs)
        finally:
            oracle.apply_letter = inner
        c = self.counts
        c["cayley.balls_built"] += 1
        c["cayley.elements_built"] += len(ball)
        c["cayley.letter_applications"] += applied[0]
        if own:
            c["cayley.elements"] += len(ball)
            c["cayley.rss_growth_bytes"] += maxrss_bytes() - rss0
        self.tracer.instrument(ball, "cayley", BALL_METHODS)
        return ball

    def build_ball(self, oracle, radius, *args, **kwargs):
        return self._build(True, oracle, radius, *args, **kwargs)

    def ac_profile(self, ball, n_max):
        rss0 = maxrss_bytes()
        report = self.tracer.span("convexity.ac_profile", "convexity", ac_profile, ball, n_max)
        self.counts["convexity.ac_rss_growth_bytes"] += maxrss_bytes() - rss0
        self.counts["convexity.ac_pairs"] += sum(r.pairs_d1 + r.pairs_d2 for r in report.records)
        return report

    def fftp_search(self, ball, *args, **kwargs):
        calls = self.tracer.calls
        before = sum(calls.get(layer, 0) for layer in ORACLE_LAYERS)
        report = self.tracer.span("convexity.fftp_search", "convexity", fftp_search,
                                  ball, *args, **kwargs)
        after = sum(calls.get(layer, 0) for layer in ORACLE_LAYERS)
        self.counts["convexity.fftp_oracle_calls"] += after - before
        self.counts["convexity.fftp_words"] += report.total_words
        return report


def _per_s(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(api: TracedApi, traced_solve_s: float, untraced_solve_s: float) -> dict:
    """Per-layer metrics of one traced repetition, name -> (value, unit)."""
    t = api.tracer
    c = api.counts
    calls = lambda layer: t.calls.get(layer, 0)
    own = lambda layer: t.self_s.get(layer, 0.0)
    incl = lambda name: t.inclusive_s.get(name, 0.0)
    build_s = incl("cayley.build_ball")
    ac_s = incl("convexity.ac_profile")
    fftp_s = incl("convexity.fftp_search")
    elements = c["cayley.elements"]
    return {
        "specfile.load_s": (incl("specfile.preset"), "s"),
        "base_groups.calls": (calls("base_groups"), "count"),
        "base_groups.self_s": (own("base_groups"), "s"),
        "base_groups.calls_per_s": (_per_s(calls("base_groups"), own("base_groups")), "1/s"),
        "subgroups.calls": (calls("subgroups"), "count"),
        "subgroups.self_s": (own("subgroups"), "s"),
        "hnn.apply_letter_calls": (c["hnn.apply_letter_calls"], "count"),
        "hnn.pinches": (c["hnn.pinches"], "count"),
        "hnn.splits": (c["hnn.splits"], "count"),
        "hnn.self_s": (own("hnn"), "s"),
        "hnn.normal_form_s": (incl("hnn.normal_form"), "s"),
        "hnn.britton_reduce_s": (incl("hnn.britton_reduce"), "s"),
        "hnn.verify_isometric_s": (incl("hnn.verify_isometric"), "s"),
        "cayley.build_s": (build_s, "s"),
        "cayley.self_s": (own("cayley"), "s"),
        "cayley.elements": (elements, "count"),
        "cayley.elements_per_s": (_per_s(c["cayley.elements_built"], build_s), "1/s"),
        "cayley.new_ratio": (
            c["cayley.elements_built"] / c["cayley.letter_applications"]
            if c["cayley.letter_applications"] else 0.0, "ratio"),
        "cayley.bytes_per_element": (
            c["cayley.rss_growth_bytes"] / elements if elements else 0.0, "B"),
        "cayley.balls_built": (c["cayley.balls_built"], "count"),
        "cayley.elements_built": (c["cayley.elements_built"], "count"),
        "convexity.self_s": (own("convexity"), "s"),
        "convexity.ac_s": (ac_s, "s"),
        "convexity.ac_pairs": (c["convexity.ac_pairs"], "count"),
        "convexity.ac_pairs_per_s": (_per_s(c["convexity.ac_pairs"], ac_s), "1/s"),
        "convexity.ac_rss_growth_mb": (c["convexity.ac_rss_growth_bytes"] / 2**20, "MB"),
        "convexity.signatures_s": (incl("convexity.verify_parallel_signatures"), "s"),
        "convexity.fftp_s": (fftp_s, "s"),
        "convexity.fftp_words": (c["convexity.fftp_words"], "count"),
        "convexity.fftp_words_per_s": (_per_s(c["convexity.fftp_words"], fftp_s), "1/s"),
        "convexity.fftp_oracle_calls": (c["convexity.fftp_oracle_calls"], "count"),
        "trace.overhead": (_per_s(traced_solve_s, untraced_solve_s), "ratio"),
    }


# count metrics that must repeat exactly between runs of the same code and inputs
EXACT_COUNTS = ("cayley.elements", "cayley.balls_built", "cayley.elements_built",
                "hnn.apply_letter_calls", "hnn.pinches", "hnn.splits",
                "subgroups.calls", "base_groups.calls", "convexity.ac_pairs",
                "convexity.fftp_words", "convexity.fftp_oracle_calls")
