"""hnnkit: isometric multiple HNN extensions, Britton normal forms,
Cayley-graph balls, and the almost-convexity / fellow-traveler experiments.
"""

__version__ = "0.1.0"

from .words import (
    Alphabet,
    Generator,
    Letter,
    Word,
    enumerate_words,
    format_word,
    free_reduce,
    invert,
    parse_word,
    shortlex_compare,
)
from .base_groups import (
    AbelianOracle,
    BaseGroupOracle,
    FreeOracle,
    abelian_from_presentation,
    base_geodesic_length,
    free_oracle,
)
from .subgroups import (
    CyclicSubgroup,
    StallingsSubgroup,
    SubgroupOracle,
    cyclic_subgroup,
    stallings_subgroup,
)
from .hnn import (
    AssociatedPair,
    HnnSpec,
    NormalForm,
    Pinch,
    britton_reduce,
    find_pinch,
    invert_el,
    multiply,
    normal_form,
    stable_letter_signature,
    verify_isometric,
)
from .cayley import (
    BallIndex,
    build_ball,
    distance,
    export_ball,
    geodesics_of,
    is_geodesic,
)
from .convexity import (
    AcReport,
    FftpReport,
    ac_bound,
    ac_profile,
    fellow_distance,
    fftp_search,
    verify_parallel_signatures,
)
from .presets import PRESET_NAMES, preset
from .specfile import load_spec_text, parse_spec_text, serialize_ast, ast_of

__all__ = [
    "Alphabet", "Generator", "Letter", "Word", "enumerate_words", "format_word",
    "free_reduce", "invert", "parse_word", "shortlex_compare",
    "AbelianOracle", "BaseGroupOracle", "FreeOracle",
    "abelian_from_presentation", "base_geodesic_length", "free_oracle",
    "CyclicSubgroup", "StallingsSubgroup", "SubgroupOracle",
    "cyclic_subgroup", "stallings_subgroup",
    "AssociatedPair", "HnnSpec", "NormalForm", "Pinch", "britton_reduce",
    "find_pinch", "invert_el", "multiply", "normal_form",
    "stable_letter_signature", "verify_isometric",
    "BallIndex", "build_ball", "distance", "export_ball", "geodesics_of",
    "is_geodesic",
    "AcReport", "FftpReport", "ac_bound", "ac_profile", "fellow_distance",
    "fftp_search", "verify_parallel_signatures",
    "PRESET_NAMES", "preset", "load_spec_text", "parse_spec_text",
    "serialize_ast", "ast_of",
]
