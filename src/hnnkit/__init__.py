"""hnnkit: isometric multiple HNN extensions, Britton normal forms,
Cayley-graph balls, and the almost-convexity / fellow-traveler experiments.

The public names below are loaded on first use (PEP 562): ``import hnnkit``
imports no submodule, and ``hnnkit.preset`` loads only what a spec needs,
not the ball builder or the engines.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "words": ("Alphabet", "Generator", "Letter", "Word", "enumerate_words",
              "format_word", "free_reduce", "invert", "parse_word", "shortlex_compare"),
    "base_groups": ("AbelianOracle", "BaseGroupOracle", "FreeOracle",
                    "abelian_from_presentation", "base_geodesic_length", "free_oracle"),
    "subgroups": ("CyclicSubgroup", "StallingsSubgroup", "SubgroupOracle",
                  "cyclic_subgroup", "stallings_subgroup"),
    "hnn": ("AssociatedPair", "HnnSpec", "NormalForm", "Pinch", "britton_reduce",
            "find_pinch", "invert_el", "multiply", "normal_form",
            "stable_letter_signature", "verify_isometric"),
    "cayley": ("BallIndex", "build_ball", "distance", "export_ball", "geodesics_of",
               "is_geodesic"),
    "convexity": ("AcReport", "FftpReport", "ac_bound", "ac_profile", "fellow_distance",
                  "fftp_search", "verify_parallel_signatures"),
    "presets": ("PRESET_NAMES", "preset"),
    "specfile": ("load_spec_text", "parse_spec_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
