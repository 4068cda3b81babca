import json

import pytest

from hnnkit.cli import main
from hnnkit.hnn import normal_form
from hnnkit.specfile import load_spec_text
from hnnkit.words import parse_word

BROKEN = """
base {
  kind = abelian
  generators = a b c d
  relator c = ab
  relator c = ba
  relator d = cc
}
stable s {
  u = [a]
  v = [c]
}
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_normalize_wise(capsys):
    rc, out, _ = run(capsys, "normalize", "--preset", "wise", "s'as")
    assert rc == 0
    assert out.splitlines()[0] == "d"


def test_normalize_identity(capsys):
    rc, out, _ = run(capsys, "normalize", "--preset", "wise", "")
    assert rc == 0
    assert out.splitlines()[0] == ""


def test_normalize_g2(capsys):
    rc, out, _ = run(capsys, "normalize", "--preset", "g2", "s'bbbs")
    assert rc == 0
    assert out.splitlines()[0] == "aba"


MULTI_CHARACTER = """
base {
  kind = abelian
  generators = x1 y
}
stable t1 {
  u = [[x1][x1]]
  v = [yy]
}
"""


def test_normalize_prints_a_word_that_parses_back(capsys, tmp_path):
    """Multi-character stable names are printed in brackets, as words spell them."""
    spec_path = tmp_path / "multi.hnn"
    spec_path.write_text(MULTI_CHARACTER)
    spec = load_spec_text(MULTI_CHARACTER)
    printed = []
    for text in ("[t1]'[x1][x1][t1]y[t1]", "[t1]'[x1]'y[t1]yy", "y[t1]'[x1]"):
        rc, out, _ = run(capsys, "normalize", "--spec", str(spec_path), text)
        assert rc == 0
        printed.append(out.splitlines()[0])
        assert (normal_form(spec, parse_word(spec.alphabet, printed[-1]))
                == normal_form(spec, parse_word(spec.alphabet, text)))
    assert printed[0] == "yyy[t1]"


def test_normalize_brackets_stable_names_on_every_line(capsys, tmp_path):
    spec_path = tmp_path / "multi.hnn"
    spec_path.write_text(MULTI_CHARACTER.replace("[[x1][x1]]", "[[x1]]").replace("[yy]", "[y]"))
    rc, out, _ = run(capsys, "normalize", "--spec", str(spec_path), "[t1]'[x1][t1][t1]'y[t1]")
    assert rc == 0
    assert out.splitlines()[1:] == ["signature: [t1]' [t1]", "key: 0,0|[t1]'|0,1|[t1]|0,1"]


def test_normalize_parse_error(capsys):
    rc, _, err = run(capsys, "normalize", "--preset", "wise", "zzz")
    assert rc == 2
    assert "position" in err


def test_ball_csv(capsys):
    rc, out, _ = run(capsys, "ball", "--preset", "wise", "-N", "1", "--format", "csv")
    assert rc == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "key,distance,geodesic,count"
    assert len(rows) == 1 + 1 + 12


def test_ball_mem_cap_exit_code(capsys):
    rc, _, err = run(capsys, "ball", "--preset", "wise", "-N", "5", "--mem-cap", "100")
    assert rc == 2
    assert "resource error" in err


def test_mem_cap_below_one_is_a_usage_error(capsys, monkeypatch):
    for cap in ("-5", "0"):
        rc, out, err = run(capsys, "ball", "--preset", "wise", "-N", "2", "--mem-cap", cap)
        assert rc == 2 and out == ""
        assert "error: mem_cap must be >= 1" in err and "resource error" not in err
    monkeypatch.setenv("HNNKIT_MEM_CAP", "0")
    rc, _, err = run(capsys, "ac", "--preset", "z2_ab", "-N", "2")
    assert rc == 2
    assert "error: mem_cap must be >= 1" in err
    monkeypatch.delenv("HNNKIT_MEM_CAP")
    rc, out, _ = run(capsys, "ball", "--preset", "wise", "-N", "0", "--mem-cap", "1")
    assert rc == 0 and out


def test_ac_json(capsys):
    rc, out, _ = run(capsys, "ac", "--preset", "z2_ab", "-N", "4", "--format", "json",
                     "--fftp-k", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["max_c"] == 2
    assert all(b["satisfied"] for b in doc["report"]["bounds"].values())


def test_ac_holds_an_extension_to_the_theorems_bound_only(capsys):
    # k = 0 is f2's constant over freely reduced words (AC-5); the base's
    # bound 3k = 0 does not apply to the extension, whose theorem gives 12
    rc, out, _ = run(capsys, "ac", "--preset", "g2", "-N", "6", "--fftp-k", "0")
    assert rc == 0
    bounds = [line for line in out.splitlines() if line.startswith("bound ")]
    assert bounds == ["bound max(6k+2, 4*max|u|) with k=0, max|u|=3: 12 -> satisfied"]


def test_fftp_exit_codes(capsys):
    rc, out, _ = run(capsys, "fftp", "--preset", "z2_ab", "--max-len", "4",
                     "--k-cap", "6", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["k_min"] == 2
    # an unverifiable cap turns into exit code 1
    rc, _, _ = run(capsys, "fftp", "--preset", "z2_ab", "--max-len", "3",
                   "--k-cap", "0", "--format", "json")
    assert rc == 1


def test_fftp_rejects_bad_arguments(capsys):
    for args, message in (
        (("--max-len", "3", "--k-cap", "-1"), "k_cap must be >= 0"),
        (("--max-len", "-2"), "max_len must be >= 0"),
        # checked before the ball is built, so the cap is never reached
        (("--max-len", "-2", "--k-cap", "40", "--mem-cap", "1000"), "max_len must be >= 0"),
    ):
        rc, out, err = run(capsys, "fftp", "--preset", "z2_ab", *args)
        assert rc == 2
        assert out == ""
        assert f"error: {message}" in err


def test_ac_rejects_negative_radius(capsys):
    rc, out, err = run(capsys, "ac", "--preset", "z2_ab", "-N", "-1")
    assert rc == 2
    assert out == ""
    assert "error: n_max must be >= 0" in err


def test_ac_rejects_negative_fftp_k(capsys):
    # a usage error, not a violated bound (exit 1), and found before the
    # ball is built, so the memory cap is never reached
    rc, out, err = run(capsys, "ac", "--preset", "z2_ab", "-N", "2", "--fftp-k", "-3",
                       "--mem-cap", "1")
    assert rc == 2
    assert out == ""
    assert "error: --fftp-k must be >= 0, got -3" in err


@pytest.mark.parametrize("argv", [
    ["ball", "--preset", "z2_ab", "-N", "2"],
    ["ac", "--preset", "z2_ab", "-N", "2"],
    ["verify-isometric", "--preset", "g2", "--max-len", "2"],
    ["signatures", "--preset", "wise", "-N", "2"],
    ["normalize", "--preset", "z2_ab", "ab"],
    ["fftp", "--preset", "z2_ab", "--max-len", "2"],
    ["fftp", "--preset", "z2_ab", "--max-len", "3", "--mode", "sampled:100:7"],
])
def test_no_command_takes_jobs(argv, capsys):
    # every command runs in one process, and fftp searches every word: it has no --mode
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    unknown = argv[argv.index("--mode"):] if "--mode" in argv else []
    assert ("unrecognized arguments: " + " ".join(unknown + ["--jobs", "2"])
            in capsys.readouterr().err)


def test_verify_isometric_pass_and_fail(capsys, tmp_path):
    rc, out, _ = run(capsys, "verify-isometric", "--preset", "g2", "--max-len", "6")
    assert rc == 0
    assert "PASS" in out
    spec_path = tmp_path / "broken.hnn"
    spec_path.write_text(BROKEN)
    rc, out, _ = run(capsys, "verify-isometric", "--spec", str(spec_path),
                     "--max-len", "6")
    assert rc == 1
    assert "FAIL" in out


def test_verify_isometric_json_counts_every_witness(capsys, tmp_path):
    spec_path = tmp_path / "broken.hnn"
    spec_path.write_text(BROKEN)
    rc, table, _ = run(capsys, "verify-isometric", "--spec", str(spec_path),
                       "--max-len", "8")
    assert rc == 1
    rc, out, _ = run(capsys, "verify-isometric", "--spec", str(spec_path),
                     "--max-len", "8", "--format", "json")
    report = json.loads(out)["report"]
    counts = {name: report[name]["witness_count"]
              for name in ("strip_equidistant", "geodesic", "totally_geodesic")}
    assert counts == {"strip_equidistant": 0, "geodesic": 14, "totally_geodesic": 86}
    assert len(report["totally_geodesic"]["witnesses"]) == 8
    assert "  ... and 78 more witnesses" in table.splitlines()


def test_verify_isometric_obeys_mem_cap(capsys):
    # caps of 5 and 10 both stop the base ball B(6) short
    for cap in ("5", "10"):
        for name in ("wise", "g2"):
            rc, out, _ = run(capsys, "verify-isometric", "--preset", name, "--max-len", "6",
                             "--mem-cap", cap)
            assert rc == 1
            assert "report INCOMPLETE" in out


def test_fftp_obeys_mem_cap(capsys):
    # max-len 4 needs only 93 elements, but the k-cap 6 DP needs radius 8
    rc, _, err = run(capsys, "fftp", "--preset", "z2_abcd", "--max-len", "4",
                     "--k-cap", "6", "--mem-cap", "100")
    assert rc == 2
    assert "resource error" in err


def test_signatures(capsys):
    rc, out, _ = run(capsys, "signatures", "--preset", "wise", "-N", "3")
    assert rc == 0
    assert "PASS" in out


def test_unknown_preset(capsys):
    rc, _, err = run(capsys, "normalize", "--preset", "bogus", "a")
    assert rc == 2
    assert "valid presets" in err


def test_mem_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HNNKIT_MEM_CAP", "100")
    rc, _, err = run(capsys, "ball", "--preset", "wise", "-N", "5")
    assert rc == 2
    assert "resource error" in err


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "ball.csv"
    rc, out, _ = run(capsys, "ball", "--preset", "z2_ab", "-N", "2",
                     "--format", "csv", "--out", str(out_path))
    assert rc == 0
    assert out == ""
    assert out_path.read_bytes().startswith(b"# hnnkit")
