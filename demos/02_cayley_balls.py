"""
Cayley-graph balls: distances, geodesics, exports
=================================================

Breadth-first exploration of a group through any element oracle, with
exact word-metric distances and full geodesic enumeration.
"""

from hnnkit import (
    build_ball,
    distance,
    export_ball,
    format_word,
    geodesics_of,
    is_geodesic,
    parse_word,
    preset,
)

# The base of Wise's group: Z^2 with the four generators a, b, c=ab, d=c^2.
z2 = preset("z2_abcd")
ball = build_ball(z2, 6)
print("sphere sizes of (Z^2, {a,b,c,d}):", ball.sphere_sizes)

w = lambda text: parse_word(z2.alphabet, text)
# c^2 and d are the same element; only one of the spellings is geodesic.
print("|cc| as a word: 2, but is_geodesic:", is_geodesic(ball, w("cc")))
print("geodesics of the element of cc:",
      [format_word(g) for g in geodesics_of(ball, z2.evaluate(w("cc")))])
# Powers of a single generator are unique geodesics here.
print("geodesics of aaaa:",
      [format_word(g) for g in geodesics_of(ball, z2.evaluate(w("aaaa")))])

# Distances between arbitrary elements are one lookup.
print("d(a, d) =", distance(ball, z2.evaluate(w("a")), z2.evaluate(w("d"))))

# The same machinery drives the HNN extension itself.
wise = preset("wise")
wball = build_ball(wise, 3)
print("\nwise sphere sizes to radius 3:", wball.sphere_sizes)
s_key = wise.evaluate(parse_word(wise.alphabet, "s"))
t_key = wise.evaluate(parse_word(wise.alphabet, "t"))
print("d(s, t) in the extension:", distance(wball, s_key, t_key))
# The ball keeps each element as one int code from a key table of its own;
# normal-form keys go in (id_of) and come out (key) through that table.
eid = wball.id_of(s_key)
print(f"s is element {eid}, code {wball.codes[eid]}, key {wise.key_str(wball.key(eid))}")

# Exports are byte-stable: same ball, same bytes, every run.
csv_head = export_ball(build_ball(z2, 1), "csv").decode().splitlines()
print("\nradius-1 ball as CSV:")
for line in csv_head:
    print("  ", line)
