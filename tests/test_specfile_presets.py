import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnnkit
from hnnkit.base_groups import AbelianOracle, FreeOracle
from hnnkit.hnn import HnnSpec, verify_isometric
from hnnkit.presets import PRESET_NAMES, UnknownPresetError, preset, preset_text
from hnnkit.specfile import SpecFileError, build_from_ast, load_spec_text, parse_spec_text


def test_package_exports_resolve_to_their_submodules():
    assert sum(map(len, hnnkit._EXPORTS.values())) == len(hnnkit.__all__)  # each name once
    for name in hnnkit.__all__:
        module = importlib.import_module(f"hnnkit.{hnnkit._MODULE_OF[name]}")
        obj = getattr(module, name)
        # the lookup hook itself, and the attribute it caches
        assert hnnkit.__getattr__(name) is obj, name
        assert getattr(hnnkit, name) is obj, name
        # classes and functions are exported from the module that defines them
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    namespace: dict = {}
    exec("from hnnkit import *", namespace)
    assert set(hnnkit.__all__) <= namespace.keys()
    assert set(hnnkit.__all__) <= set(dir(hnnkit))
    with pytest.raises(AttributeError, match="'hnnkit' has no attribute 'no_such_name'"):
        hnnkit.no_such_name


def test_preset_kinds():
    assert isinstance(preset("wise"), HnnSpec)
    assert isinstance(preset("g2"), HnnSpec)
    assert isinstance(preset("z2_abcd"), AbelianOracle)
    assert isinstance(preset("z2_ab"), AbelianOracle)
    assert isinstance(preset("f2"), FreeOracle)


def test_unknown_preset_lists_names():
    with pytest.raises(UnknownPresetError) as err:
        preset("nope")
    for name in PRESET_NAMES:
        assert name in str(err.value)


def test_wise_structure():
    wise = preset("wise")
    assert [g.name for g in wise.alphabet.base_generators] == ["a", "b", "c", "d"]
    assert [g.name for g in wise.alphabet.stable_generators] == ["s", "t"]
    assert len(wise.pairs) == 2


def test_g2_structure():
    g2 = preset("g2")
    assert [g.name for g in g2.alphabet.stable_generators] == ["s"]
    pair = g2.pairs[0]
    assert [str(w) for w in pair.u.generator_words] == ["aa", "bbb"]
    assert [str(w) for w in pair.v.generator_words] == ["bb", "aba"]


def test_presets_verify_isometric():
    assert verify_isometric(preset("wise"), 6).passed
    assert verify_isometric(preset("g2"), 6).passed


def test_parse_errors():
    with pytest.raises(SpecFileError):
        parse_spec_text("base {\n  kind = weird\n  generators = a\n}\n")
    with pytest.raises(SpecFileError):
        parse_spec_text("base {\n  kind = free\n}\n")
    with pytest.raises(SpecFileError):
        parse_spec_text("stable s {\n  u = [a]\n  v = [b]\n")
    with pytest.raises(SpecFileError):
        build_from_ast(
            parse_spec_text(
                "base {\n kind = free\n generators = a b\n relator a = b\n}\n"
            )
        )


def test_mismatched_pair_counts_rejected():
    text = """
base {
  kind = free
  generators = a b
}
stable s {
  u = [aa, bbb]
  v = [bb]
}
"""
    with pytest.raises(SpecFileError):
        build_from_ast(parse_spec_text(text))


def test_abelian_multigenerator_subgroup_rejected():
    text = """
base {
  kind = abelian
  generators = a b
}
stable s {
  u = [a, b]
  v = [b, a]
}
"""
    with pytest.raises(SpecFileError):
        build_from_ast(parse_spec_text(text))


@pytest.mark.parametrize("u,v,side,rank", [
    # <a, aa> = <a>: the relator s'aasa' would normalize to bba', not 1
    ("a, aa", "b, a", "u", 1),
    ("ab, ba, abba", "a, b, aba", "u", 2),
    ("aa, ab, bb", "ab, ba, abba", "v", 2),
])
def test_non_basis_generator_lists_rejected(u, v, side, rank):
    text = f"""
base {{
  kind = free
  generators = a b
}}
stable s {{
  u = [{u}]
  v = [{v}]
}}
"""
    with pytest.raises(SpecFileError,
                       match=f"stable s: the {side} words are not a free basis "
                             rf"\(they generate a subgroup of rank {rank}\)"):
        build_from_ast(parse_spec_text(text))


@pytest.mark.parametrize("kind,relators,u,message", [
    ("abelian", "relator aa", "a", "torsion cyclic subgroups are not supported"),
    ("abelian", "relator a", "a", "generator evaluates to the identity"),
    ("free", "", "abb'a", "subgroup generator word abb'a is not freely reduced"),
])
def test_bad_subgroup_generator_is_a_spec_file_error(kind, relators, u, message):
    text = f"""
base {{
  kind = {kind}
  generators = a b
  {relators}
}}
stable s {{
  u = [{u}]
  v = [b]
}}
"""
    with pytest.raises(SpecFileError, match=f"^stable s: .*{message}"):
        build_from_ast(parse_spec_text(text))


_BASE = "base {\n  kind = %s\n  generators = %s\n  %s\n}\n"


@pytest.mark.parametrize("text,message", [
    pytest.param(_BASE % ("abelian", "a b", "relator c = ab"),
                 r"^relator c = ab: unknown generator 'c'", id="relator-word"),
    pytest.param(_BASE % ("abelian", "a b", "") + "stable s {\n  u = [ax]\n  v = [b]\n}\n",
                 r"^stable s: unknown generator 'x'", id="u-word"),
    pytest.param(_BASE % ("abelian", "a b a", ""), r"^base: duplicate generator names",
                 id="base-generator-twice"),
    pytest.param(_BASE % ("free", "a b", "") + "stable s {\n  u = [a]\n  v = [b]\n}\n"
                 "stable s {\n  u = [b]\n  v = [a]\n}\n",
                 r"^stable s: the name 's' is already taken", id="stable-block-twice"),
    pytest.param(_BASE % ("free", "a b", "") + "stable a {\n  u = [a]\n  v = [b]\n}\n",
                 r"^stable a: the name 'a' is already taken", id="stable-named-as-base"),
])
def test_bad_words_and_names_are_spec_file_errors(text, message):
    with pytest.raises(SpecFileError, match=message):
        load_spec_text(text)


@pytest.mark.parametrize("text,message", [
    pytest.param(_BASE % ("abelian", "a = b", ""), r"^base: the name '=' cannot be written",
                 id="generator-equals"),
    pytest.param(_BASE % ("free", "a a'", ""), r"^base: the name \"a'\" cannot be written",
                 id="generator-apostrophe"),
    pytest.param(_BASE % ("free", "a [b]", ""), r"^base: the name '\[b\]' cannot be written",
                 id="generator-brackets"),
    pytest.param(_BASE % ("free", "a b", "") + "stable s' {\n  u = [a]\n  v = [b]\n}\n",
                 r"^stable s': the name \"s'\" cannot be written", id="stable-apostrophe"),
])
def test_names_the_word_syntax_cannot_spell_are_rejected(text, message):
    with pytest.raises(SpecFileError, match=message):
        load_spec_text(text)


_PRESET_LINES = {name: preset_text(name).splitlines() for name in PRESET_NAMES}
_LINES = sorted({line for lines in _PRESET_LINES.values() for line in lines})
_TOKENS = sorted({token for line in _LINES for token in line.split()})


@st.composite
def mutated_presets(draw):
    """A shipped preset after a few insertions, deletions or duplications
    of a whole line or of one whitespace-separated token."""
    lines = [line.split() for line in _PRESET_LINES[draw(st.sampled_from(PRESET_NAMES))]]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if op == "insert" and draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_LINES)).split())
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):  # the whole line
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, list(lines[i]))
            continue
        line = lines[i]
        if op == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(_TOKENS)))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if op == "delete":
                del line[j]
            else:
                line.insert(j, line[j])
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_presets())
def test_mutated_presets_load_or_raise_spec_file_error(text):
    # any other exception fails the test
    try:
        load_spec_text(text)
    except SpecFileError:
        pass
