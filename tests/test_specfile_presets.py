import pytest

from hnnkit.base_groups import AbelianOracle, FreeOracle
from hnnkit.hnn import HnnSpec, verify_isometric
from hnnkit.presets import PRESET_NAMES, UnknownPresetError, preset, preset_text
from hnnkit.specfile import (
    SpecFileError,
    ast_of,
    build_from_ast,
    parse_spec_text,
    serialize_ast,
)


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


def test_preset_roundtrip_through_parser():
    for name in PRESET_NAMES:
        ast1 = parse_spec_text(preset_text(name))
        obj = build_from_ast(ast1)
        ast2 = parse_spec_text(serialize_ast(ast_of(obj)))
        assert ast2.kind == ast1.kind
        assert ast2.generators == ast1.generators
        assert [s.name for s in ast2.stables] == [s.name for s in ast1.stables]
        assert [s.u_words for s in ast2.stables] == [s.u_words for s in ast1.stables]
        assert [s.v_words for s in ast2.stables] == [s.v_words for s in ast1.stables]
        # relators survive as single words equal to lhs * rhs^-1
        obj2 = build_from_ast(ast2)
        assert type(obj2) is type(obj)


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
