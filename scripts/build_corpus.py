#!/usr/bin/env python3
"""Regenerate the bundled script corpus from the derivation builders."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inqmt.calculus import check_derivation
from inqmt.derivations import corpus_derivations
from inqmt.parser import derivation_to_sexp, parse_derivation

out = ROOT / "src" / "inqmt" / "corpus"
out.mkdir(exist_ok=True)
for name, deriv in corpus_derivations().items():
    res = check_derivation(deriv)
    assert res.ok, (name, res.reason)
    txt = derivation_to_sexp(deriv)
    assert parse_derivation(txt) == deriv, name
    (out / f"{name}.sexp").write_text(txt, encoding="utf-8")
    print(f"wrote {name}.sexp ({len(txt.splitlines())} nodes)")
