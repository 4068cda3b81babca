"""Parser for the group description files.

The format is line oriented with two block kinds::

    base {
      kind = abelian            # or: free
      generators = a b c d
      relator c = ab            # word pair lhs = rhs; rhs may be omitted
    }
    stable s {                  # one block per stable letter
      u = [a]                   # words over the base generators
      v = [d]
    }

Words use the compact syntax of the words module.  '#' starts a comment.
A file with no stable blocks describes a plain base group.
"""

from __future__ import annotations

from typing import Optional, Union

from .base_groups import AbelianOracle, BaseGroupOracle, FreeOracle
from .hnn import AssociatedPair, HnnSpec
from .subgroups import cyclic_subgroup, stallings_subgroup
from .words import Alphabet, Word, WordParseError, invert, parse_word


class SpecFileError(ValueError):
    def __init__(self, message: str, line_no: Optional[int] = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(message + where)
        self.line_no = line_no


class StableBlock:
    def __init__(self, name: str, u_words: Optional[list[str]] = None,
                 v_words: Optional[list[str]] = None):
        self.name = name
        self.u_words = [] if u_words is None else u_words
        self.v_words = [] if v_words is None else v_words


class SpecAst:
    def __init__(self, kind: str = "", generators: Optional[list[str]] = None,
                 relators: Optional[list[tuple[str, Optional[str]]]] = None,
                 stables: Optional[list[StableBlock]] = None):
        self.kind = kind
        self.generators = [] if generators is None else generators
        self.relators = [] if relators is None else relators
        self.stables = [] if stables is None else stables


def parse_spec_text(text: str) -> SpecAst:
    ast = SpecAst()
    block: Optional[str] = None
    current_stable: Optional[StableBlock] = None
    seen: set[str] = set()  # the entries of the open block, which may not repeat
    had_base = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            head = line[:-1].split()
            if block is not None:
                raise SpecFileError("nested block", line_no)
            if head == ["base"]:
                if had_base:
                    raise SpecFileError("a second base block", line_no)
                block, had_base = "base", True
            elif len(head) == 2 and head[0] == "stable":
                block = "stable"
                current_stable = StableBlock(head[1])
                ast.stables.append(current_stable)
            else:
                raise SpecFileError(f"unknown block header {line!r}", line_no)
            seen = set()
            continue
        if line == "}":
            if block is None:
                raise SpecFileError("unmatched '}'", line_no)
            block = None
            current_stable = None
            continue
        if block is None:
            raise SpecFileError(f"content outside a block: {line!r}", line_no)
        if block == "base" and line.split()[0] == "relator":
            body = line[len("relator"):].strip()
            if "=" in body:
                lhs, rhs = (part.strip() for part in body.split("=", 1))
                ast.relators.append((lhs, rhs))
            else:
                ast.relators.append((body, None))
            continue
        entry, eq, value = (part.strip() for part in line.partition("="))
        if entry not in (("kind", "generators") if block == "base" else ("u", "v")):
            raise SpecFileError(f"unknown {block} entry {line!r}", line_no)
        if entry in seen:
            raise SpecFileError(f"repeated {block} entry {entry!r}", line_no)
        if not eq:
            raise SpecFileError(f"expected '=' in {line!r}", line_no)
        seen.add(entry)
        if entry == "kind":
            ast.kind = value
        elif entry == "generators":
            ast.generators = value.split()
        elif entry == "u":
            current_stable.u_words = _word_list(value, line_no)
        else:
            current_stable.v_words = _word_list(value, line_no)
    if block is not None:
        raise SpecFileError("unterminated block")
    if ast.kind not in ("abelian", "free"):
        raise SpecFileError(f"base kind must be 'abelian' or 'free', got {ast.kind!r}")
    if not ast.generators:
        raise SpecFileError("base block must declare generators")
    return ast


def _word_list(body: str, line_no: int) -> list[str]:
    if not (body.startswith("[") and body.endswith("]")):
        raise SpecFileError(f"expected [w1, w2, ...], got {body!r}", line_no)
    inner = body[1:-1].strip()
    if not inner:
        return []
    return [part.strip() for part in inner.split(",")]


# A generator or stable name must be spellable in a word, bare or in brackets.
_NAME_FORBIDDEN = frozenset("[]'=,#{}")


def _check_name(name: str, where: str):
    if not name or any(ch.isspace() or ch in _NAME_FORBIDDEN for ch in name):
        raise SpecFileError(f"{where}: the name {name!r} cannot be written in a word "
                            "(it must be nonempty, with no whitespace and none of [ ] ' = , # { })")


def build_from_ast(ast: SpecAst, name: str = "") -> Union[HnnSpec, BaseGroupOracle]:
    for gen in ast.generators:
        _check_name(gen, "base")
    try:
        base_alphabet = Alphabet.make(ast.generators)
    except ValueError as e:
        raise SpecFileError(f"base: {e}") from e

    def base_word(text: str, where: str) -> Word:
        try:
            return parse_word(base_alphabet, text)
        except WordParseError as e:
            raise SpecFileError(f"{where}: {e}") from e

    relator_words = []
    for lhs, rhs in ast.relators:
        where = f"relator {lhs}" if rhs is None else f"relator {lhs} = {rhs}"
        w = base_word(lhs, where)
        if rhs is not None:
            w = w * invert(base_word(rhs, where))
        relator_words.append(w)

    if ast.kind == "abelian":
        base: BaseGroupOracle = AbelianOracle(base_alphabet, relator_words)
    else:
        if relator_words:
            raise SpecFileError("free base groups take no relators")
        base = FreeOracle(base_alphabet)

    if not ast.stables:
        return base

    pairs = []
    names = set(ast.generators)
    for st in ast.stables:
        _check_name(st.name, f"stable {st.name}")
        if st.name in names:
            raise SpecFileError(f"stable {st.name}: the name {st.name!r} is already taken")
        names.add(st.name)
        if not st.u_words or not st.v_words:
            raise SpecFileError(f"stable {st.name}: u and v word lists are required")
        if len(st.u_words) != len(st.v_words):
            raise SpecFileError(
                f"stable {st.name}: u and v must list the same number of words"
            )
        u_words = [base_word(t, f"stable {st.name}") for t in st.u_words]
        v_words = [base_word(t, f"stable {st.name}") for t in st.v_words]
        abelian = isinstance(base, AbelianOracle)
        if abelian and len(u_words) != 1:
            raise SpecFileError(
                f"stable {st.name}: abelian bases support single-generator "
                "(cyclic) associated subgroups only"
            )
        try:
            if abelian:
                u_sub = cyclic_subgroup(base, u_words[0])
                v_sub = cyclic_subgroup(base, v_words[0])
            else:
                u_sub = stallings_subgroup(base, u_words)
                v_sub = stallings_subgroup(base, v_words)
            pairs.append(AssociatedPair(u_sub, v_sub))
        except ValueError as e:
            raise SpecFileError(f"stable {st.name}: {e}") from e
    return HnnSpec(base, [st.name for st in ast.stables], pairs, name=name)


def load_spec_text(text: str, name: str = "") -> Union[HnnSpec, BaseGroupOracle]:
    return build_from_ast(parse_spec_text(text), name=name)
