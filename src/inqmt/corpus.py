"""The bundled derivation-script corpus.

Four flat-collapse scripts (both directions of the conjunction and
implication cases), the base-case script, the two completeness scripts,
and eight before/after cut-reduction pairs, one per cut shape.  The files are the printed
form of the builders in the derivations module; tests pin that equality,
and the CLI selftest replays everything here through the checker.
"""

from __future__ import annotations

from importlib import resources

from .parser import parse_derivation
from .structures import Derivation

LEMMA52 = (
    "lemma52_base",
    "lemma52_cap_elim",
    "lemma52_cap_intro",
    "lemma52_imp_elim",
    "lemma52_imp_intro",
)
APPENDIX = ("appendix_dne", "appendix_kp")

# the six scripts the acceptance gate names: the four inductive
# flat-collapse derivations and the two completeness derivations
CRITERION_SET = LEMMA52[1:] + APPENDIX

REDUCTION_PAIRS = (
    ("cut_constant_before", "cut_constant_after"),
    ("cut_propvar_before", "cut_propvar_after"),
    ("cut_cap_before", "cut_cap_after"),
    ("cut_down_before", "cut_down_after"),
    ("cut_fimp_before", "cut_fimp_after"),
    ("cut_gand_before", "cut_gand_after"),
    ("cut_gor_before", "cut_gor_after"),
    ("cut_gimp_before", "cut_gimp_after"),
)


def names() -> tuple[str, ...]:
    flat = LEMMA52 + APPENDIX
    for before, after in REDUCTION_PAIRS:
        flat += (before, after)
    return flat


def text(name: str) -> str:
    return resources.files("inqmt").joinpath(f"corpus/{name}.sexp").read_text("utf-8")


def load(name: str) -> Derivation:
    return parse_derivation(text(name))
