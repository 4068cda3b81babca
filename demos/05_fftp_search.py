"""
Falsification by fellow travelers
=================================

A generating set has the falsification by fellow traveler property when
every non-geodesic word is k-fellow traveled, synchronously, by some
shorter word with the same endpoint.  The searcher finds the least such k
over all words up to a length bound, exhaustively, and connects it to the
almost-convexity constants: C is at most 3k, and for an isometric HNN
extension over such a base, C is at most max(6k + 2, 4 max|u|).
"""

from hnnkit import (ac_bound, ac_profile, build_ball, fellow_distance, fftp_search, parse_word,
                    preset)

z2 = preset("z2_abcd")
ball = build_ball(z2, 7)
w = lambda text: parse_word(z2.alphabet, text)

# Two spellings of one element, compared at equal times.
print("fellow_distance(ab, ba) =", fellow_distance(ball, w("ab"), w("ba")))
print("fellow_distance(cc, d)  =", fellow_distance(ball, w("cc"), w("d")))

# Exhaustive search to length 7: about a million words, counted per
# automaton state rather than one by one.
report = fftp_search(ball, max_len=7, k_cap=6)
print("\n(Z^2, {a,b,c,d}):")
for line in report.table_lines():
    print("  ", line)

# The almost-convexity bound C <= 3k, checked against the measured profile.
ac = ac_profile(build_ball(z2, 9), 8)
label, bound = ac_bound(z2, report.k_min)
print(f"\nmax C = {ac.max_c} <= {label} = {bound}:", ac.max_c <= bound)

# Free groups: freely reduced words are all geodesic, so the searcher only
# bites once words with cancellations are allowed in.
f2 = preset("f2")
fball = build_ball(f2, 7)
vacuous = fftp_search(fball, max_len=6, k_cap=6)
real = fftp_search(fball, max_len=6, k_cap=6, include_unreduced=True)
print(f"\nF2, reduced words only: kMin = {vacuous.k_min} "
      f"({vacuous.non_geodesic_words} non-geodesic words)")
print(f"F2, all words:          kMin = {real.k_min}")
for item in real.witnesses:
    print("  ", item)
