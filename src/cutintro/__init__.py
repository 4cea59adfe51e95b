"""Cut introduction: compress cut-free proofs with one quantified cut.

The pipeline takes a sequent of prenex formulas together with the term
lists a cut-free proof instantiates them with, finds a small
decomposition of that term set, synthesizes a quantified cut formula
from it, and rebuilds a checkable proof whose quantifier complexity is
the decomposition size.

The names below are imported from their modules on first access (PEP
562), so importing one module, such as ``cutintro.pipeline``, does not
load the others: ``cutintro.corpus`` and ``cutintro.smt`` and what they
import stay unloaded until used.
"""

from importlib import import_module

__version__ = "1.0.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "corpus": ("emit_stats", "run_corpus", "write_corpus_outputs"),
    "cutformula": (
        "SchematicEHS",
        "SchemaError",
        "SFResult",
        "SolutionCandidate",
        "build_schematic_ehs",
        "canonical_solution",
        "check_solution",
        "sf_improve",
    ),
    "decomposition": (
        "Decomposition",
        "DeltaTable",
        "build_delta_table",
        "fold_delta_table",
    ),
    "euf": ("InternalOracle", "Oracle", "Verdict"),
    "formulas": (
        "And",
        "Atom",
        "Bottom",
        "Eq",
        "Formula",
        "Imp",
        "Not",
        "Or",
        "QuantBlock",
        "Top",
        "formula_size",
        "render_formula",
    ),
    "herbrand": (
        "HerbrandStructure",
        "TermSet",
        "decode_termset",
        "encode_termset",
        "herbrand_sequent",
    ),
    "limits": ("Deadline", "LimitReached"),
    "parser": ("InputError", "parse_input"),
    "pipeline": ("RunConfig", "RunReport", "run_pipeline"),
    "proofs": (
        "ProofBuildError",
        "ProofCheckError",
        "build_proof_with_cut",
        "check_proof_report",
        "metrics",
        "proof_from_json",
        "proof_to_json",
        "render_proof",
    ),
    "sequents": ("Sequent",),
    "smt": ("CommandOracle", "export_smt2"),
    "terms": ("App", "Term", "Var", "render_term"),
}

_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
