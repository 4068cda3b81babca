"""Acceptance suite: one test per criterion, one printed PASS line each.

Derived reference values asserted below (kMin values, C(N) tables, sphere
sizes) were produced by this toolkit's engines and cross-checked against the
independent brute-force oracles in the sibling test modules; they are frozen
here as regression pins.
"""

import hashlib
import random

import pytest

from hnnkit.base_groups import base_geodesic_length
from hnnkit.cayley import geodesics_of
from hnnkit.cli import main as cli_main
from hnnkit.convexity import ac_bound, ac_profile, fftp_search, verify_parallel_signatures
from hnnkit.hnn import normal_form, verify_isometric
from hnnkit.subgroups import stallings_subgroup
from hnnkit.words import Word, enumerate_words, format_word, invert, parse_word

WISE_RELATORS = ["c'ab", "c'ba", "d'cc", "s'asd'", "t'btd'"]
G2_RELATORS = ["s'aasb'b'", "s'bbbsa'b'a'"]

# frozen engine outputs (derived; see module docstring)
KMIN_Z2_AB = 2
KMIN_Z2_ABCD = 2
KMIN_F2_UNREDUCED = 2
WISE_C = {1: 2, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4}
G2_C = {1: 2, 2: 4, 3: 6, 4: 6, 5: 6, 6: 6}


@pytest.fixture(scope="module")
def fftp_z2_abcd(z2_abcd_ball9):
    return fftp_search(z2_abcd_ball9, max_len=7, k_cap=6)


def test_ac01_relator_soundness(wise, g2):
    for spec, relators in ((wise, WISE_RELATORS), (g2, G2_RELATORS)):
        for text in relators:
            nf = normal_form(spec, parse_word(spec.alphabet, text))
            assert nf.is_identity(), f"{spec.name}: relator {text} not trivial"
    print("AC-1 PASS: all defining relators normalize to the identity")


def test_ac02_relator_insertion_invariance(wise, g2):
    rng = random.Random(20040111)
    for spec in (wise, g2):
        relators = list(spec.relators) + [invert(r) for r in spec.relators]
        violations = 0
        for _ in range(10_000):
            n = rng.randint(0, 10)
            w = Word(spec.alphabet, tuple(rng.randrange(spec.alphabet.n_letters) for _ in range(n)))
            rel = rng.choice(relators)
            pos = rng.randint(0, len(w))
            w2 = Word(spec.alphabet, w.ids[:pos] + rel.ids + w.ids[pos:])
            if normal_form(spec, w) != normal_form(spec, w2):
                violations += 1
        assert violations == 0, f"{spec.name}: {violations} violations"
    print("AC-2 PASS: 10^4 relator insertions per preset, zero violations")


def test_ac03_ac_constant_at_most_3k(z2_ab_ball9, z2_abcd_ball9, fftp_z2_abcd):
    fftp_ab = fftp_search(z2_ab_ball9, max_len=7, k_cap=6)
    assert fftp_ab.verified and fftp_ab.k_min == KMIN_Z2_AB
    assert fftp_z2_abcd.verified and fftp_z2_abcd.k_min == KMIN_Z2_ABCD
    results = []
    for ball, k_min in ((z2_ab_ball9, fftp_ab.k_min), (z2_abcd_ball9, fftp_z2_abcd.k_min)):
        report = ac_profile(ball, 8)
        label, bound = ac_bound(ball.oracle, k_min)
        assert label.startswith("3k") and report.max_c <= bound, (report.max_c, k_min)
        assert report.max_c == 2  # derived regression value
        results.append((report.max_c, bound))
    print(
        "AC-3 PASS: maxC <= 3k for (Z2,ab) and (Z2,abcd): "
        + ", ".join(f"maxC={c} vs 3k={b}" for c, b in results)
    )


def test_ac04_abelian_fftp_terminates(fftp_z2_abcd):
    report = fftp_z2_abcd
    assert report.k_min == KMIN_Z2_ABCD
    assert report.k_min > 0
    assert report.unresolved == []
    assert report.non_geodesic_words > 10**6  # exhaustive run really covered length 7
    print(
        f"AC-4 PASS: (Z2,abcd) exhaustive to length 7: kMin={report.k_min}, "
        f"0 unverified of {report.non_geodesic_words} non-geodesic words at kCap=6"
    )


def test_ac05_hnn_convexity_bound(wise, g2, wise_ball7, g2_ball7, f2_ball7, fftp_z2_abcd):
    # Wise's group: base fellow-traveler constant from the abelian search
    k_wise = fftp_z2_abcd.k_min
    label_wise, bound_wise = ac_bound(wise, k_wise)
    rep_w = ac_profile(wise_ball7, 6)
    assert {r.radius: r.c for r in rep_w.records} == WISE_C
    assert rep_w.max_c <= bound_wise, (rep_w.max_c, bound_wise)

    # G2: base constant for the free group; freely reduced words are all
    # geodesic there, so the meaningful constant comes from including
    # unreduced words as well.  Assert against the smaller of both bounds.
    fftp_f2 = fftp_search(f2_ball7, max_len=7, k_cap=6, include_unreduced=True)
    assert fftp_f2.verified and fftp_f2.k_min == KMIN_F2_UNREDUCED
    fftp_f2_reduced = fftp_search(f2_ball7, max_len=7, k_cap=6)
    assert fftp_f2_reduced.k_min == 0
    label_g2, bound_g2 = min((ac_bound(g2, fftp_f2.k_min), ac_bound(g2, fftp_f2_reduced.k_min)),
                             key=lambda bound: bound[1])
    rep_g = ac_profile(g2_ball7, 6)
    assert {r.radius: r.c for r in rep_g.records} == G2_C
    assert rep_g.max_c <= bound_g2, (rep_g.max_c, bound_g2)
    print(
        f"AC-5 PASS: wise maxC={rep_w.max_c} <= {label_wise}: {bound_wise}; "
        f"g2 maxC={rep_g.max_c} <= {label_g2}: {bound_g2}"
    )


def test_ac06_isometric_verification(wise, g2, z2_abcd, z2_abcd_ball9):
    assert verify_isometric(wise, 6).passed
    assert verify_isometric(g2, 6).passed
    base = g2.base
    q = lambda s: parse_word(base.alphabet, s)
    assert base_geodesic_length(base, q("aa")) == 2
    assert base_geodesic_length(base, q("bb")) == 2
    assert base_geodesic_length(base, q("bbb")) == 3
    assert base_geodesic_length(base, q("aba")) == 3
    p = lambda s: parse_word(z2_abcd.alphabet, s)
    for n in range(1, 6):
        for gen in ("a", "b", "d"):
            geos = geodesics_of(z2_abcd_ball9, z2_abcd.evaluate(p(gen * n)))
            assert [format_word(g) for g in geos] == [gen * n]
    print(
        "AC-6 PASS: wise and g2 strip-equidistant + (totally) geodesic at maxLen 6; "
        "|aa|=|bb|=2, |bbb|=|aba|=3; a^n, b^n, d^n unique geodesics to n=5"
    )


def test_ac07_parallel_signatures(wise, wise_ball7):
    report = verify_parallel_signatures(wise_ball7, wise)
    assert report.passed
    assert report.violations == []
    print(
        f"AC-7 PASS: parallel stable-letter structure holds for all "
        f"{report.elements} elements to radius {report.radius} (criterion: N <= 5)"
    )


def test_ac08_stallings_vs_brute_force(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    ball8 = {f2.evaluate(w) for w in enumerate_words(f2.alphabet, 8)}
    for gens in (["aa", "bbb"], ["bb", "aba"]):
        sub = stallings_subgroup(f2, [p(t) for t in gens])
        brute = {f2.identity_key()}
        frontier = {(): f2.identity_key()}
        for _ in range(4):
            nxt = {}
            for sw, key in frontier.items():
                for j in range(2):
                    for s in (1, -1):
                        if sw and sw[-1] == (j, -s):
                            continue
                        k2 = f2.mult_key(key, f2.evaluate(sub.expand(((j, s),))))
                        nxt[sw + ((j, s),)] = k2
                        brute.add(k2)
            frontier = nxt
        oracle_members = {k for k in ball8 if sub.contains(k)}
        assert (brute & ball8) == oracle_members
    print("AC-8 PASS: Stallings membership agrees with brute-force expansion on B(8)")


CLI_RUNS = [
    ("ball-wise-csv", ["ball", "--preset", "wise", "-N", "3", "--format", "csv"]),
    ("ball-wise-dot", ["ball", "--preset", "wise", "-N", "3", "--format", "dot"]),
    ("ball-wise-json", ["ball", "--preset", "wise", "-N", "3", "--format", "json"]),
    ("ac-z2ab", ["ac", "--preset", "z2_ab", "-N", "8", "--format", "json"]),
    ("ac-z2abcd", ["ac", "--preset", "z2_abcd", "-N", "8", "--format", "json"]),
    ("ac-wise", ["ac", "--preset", "wise", "-N", "6", "--format", "json"]),
    ("ac-g2", ["ac", "--preset", "g2", "-N", "6", "--format", "json"]),
    ("fftp-z2abcd", ["fftp", "--preset", "z2_abcd", "--max-len", "7", "--k-cap", "6",
                     "--format", "json"]),
    ("fftp-z2ab", ["fftp", "--preset", "z2_ab", "--max-len", "7", "--k-cap", "6",
                   "--format", "json"]),
    ("fftp-f2", ["fftp", "--preset", "f2", "--max-len", "7", "--k-cap", "6",
                 "--include-unreduced", "--format", "json"]),
    ("vi-wise", ["verify-isometric", "--preset", "wise", "--max-len", "6",
                 "--format", "json"]),
    ("vi-g2", ["verify-isometric", "--preset", "g2", "--max-len", "6",
               "--format", "json"]),
    ("sig-wise", ["signatures", "--preset", "wise", "-N", "5", "--format", "json"]),
]


# SHA-256 of each CLI_RUNS report.  A change that alters a report's bytes
# on purpose updates its digest here; any other change must leave them be.
REPORT_SHA256 = {
    "ball-wise-csv": "68e664fd7e97a269306c5dd286089025eb6a312d848c3c58e793c3a341751e2e",
    "ball-wise-dot": "eb7f7d56fe0cd43ebf526f6335153ee22ee4f84d109cb2aa2534da381e1a380a",
    "ball-wise-json": "b74afea3cc2c26e654b843efa5574034e79b9d95fa2ba8035c084519a609a1f0",
    "ac-z2ab": "692eaa6f7b441feaf6ef17db03bcb5eab966e56d5db4fbdac1af87a58c545e3a",
    "ac-z2abcd": "8addd2e832e1581ad09610b161185bf8432ca1d73892e5ea7bda4d4cbacfde54",
    "ac-wise": "f95e162f8491c61c867e2c9e1d4de1c40cab4bfdcd4630d9e7d3173567ce56f5",
    "ac-g2": "27b3324782233f3ee7c23f962ce59b0b064fefabda65293a7d25ed135040af4f",
    "fftp-z2abcd": "08d24ea71a7e7ce2443b4740710d394d997c8d5ef00a27258679a11ca81dd00b",
    "fftp-z2ab": "5ef040d7854888c21d175f32f47ed3d343ccfafefbe0abd7b2fac67aba54e47e",
    "fftp-f2": "905d5eb47b514536b3d2f623779d0f011ce2b45d0129ccf3d79205fed4f8640a",
    "vi-wise": "ceba27f9ed2b9bb516d17e6b9641893e18bf929a20fef6871767630efffbb822",
    "vi-g2": "30d769f42914f6f1f78500b41ed831e2f84b637741fbac99e7a62f6b50e3c820",
    "sig-wise": "b6cbe2a2409c97ea4a4986d2104653a1216cf37f2e5c40c9409399097cc687d4",
}


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """The bytes of each CLI_RUNS report, from one run each."""
    out = tmp_path_factory.mktemp("reports")
    reports = {}
    for name, argv in CLI_RUNS:
        rc = cli_main(argv + ["--out", str(out / name)])
        assert rc == 0, (name, rc)
        reports[name] = (out / name).read_bytes()
    return reports


def test_ac09_determinism_across_runs(cli_reports, tmp_path, capsys):
    for name, argv in CLI_RUNS:
        path = tmp_path / name
        rc = cli_main(argv + ["--out", str(path)])
        assert rc == 0, (name, rc)
        assert path.read_bytes() == cli_reports[name], f"{name}: bytes differ between two runs"
    capsys.readouterr()
    print(f"AC-9 PASS: {len(CLI_RUNS)} reports byte-identical between two runs")


def test_reports_match_pinned_digests(cli_reports):
    changed = [name for name, data in cli_reports.items()
               if hashlib.sha256(data).hexdigest() != REPORT_SHA256[name]]
    assert not changed, f"report bytes differ from the pinned digests: {changed}"
    print(f"PASS: {len(CLI_RUNS)} reports match their pinned SHA-256 digests")
