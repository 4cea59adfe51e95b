"""Cut introduction: compress cut-free proofs with one quantified cut.

The pipeline takes a sequent of prenex formulas together with the term
lists a cut-free proof instantiates them with, finds a small
decomposition of that term set, synthesizes a quantified cut formula
from it, and rebuilds a checkable proof whose quantifier complexity is
the decomposition size.
"""

from .corpus import emit_stats, run_corpus, write_corpus_outputs
from .cutformula import (
    SchematicEHS,
    SchemaError,
    SFResult,
    SolutionCandidate,
    build_schematic_ehs,
    canonical_solution,
    check_solution,
    sf_improve,
)
from .decomposition import (
    Decomposition,
    DeltaTable,
    build_delta_table,
    fold_delta_table,
    restrict_ci1,
)
from .euf import InternalOracle, Oracle, Verdict
from .formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Formula,
    Imp,
    Not,
    Or,
    QuantBlock,
    Top,
    formula_size,
    render_formula,
)
from .herbrand import (
    HerbrandStructure,
    TermSet,
    decode_termset,
    encode_termset,
    herbrand_sequent,
)
from .limits import Deadline, LimitReached
from .parser import InputError, parse_input
from .pipeline import RunConfig, RunReport, run_pipeline
from .proofs import (
    ProofBuildError,
    ProofCheckError,
    build_proof_with_cut,
    check_proof_report,
    metrics,
    proof_from_json,
    proof_to_json,
    render_proof,
)
from .sequents import Sequent
from .smt import CommandOracle, export_smt2
from .terms import App, Term, Var, render_term

__version__ = "1.0.0"

__all__ = [
    "And",
    "App",
    "Atom",
    "Bottom",
    "CommandOracle",
    "Deadline",
    "Decomposition",
    "DeltaTable",
    "Eq",
    "Formula",
    "HerbrandStructure",
    "Imp",
    "InputError",
    "InternalOracle",
    "LimitReached",
    "Not",
    "Or",
    "Oracle",
    "ProofBuildError",
    "ProofCheckError",
    "QuantBlock",
    "RunConfig",
    "RunReport",
    "SFResult",
    "SchemaError",
    "SchematicEHS",
    "Sequent",
    "SolutionCandidate",
    "Term",
    "TermSet",
    "Top",
    "Var",
    "Verdict",
    "build_delta_table",
    "build_proof_with_cut",
    "build_schematic_ehs",
    "canonical_solution",
    "check_proof_report",
    "check_solution",
    "decode_termset",
    "emit_stats",
    "encode_termset",
    "export_smt2",
    "fold_delta_table",
    "formula_size",
    "herbrand_sequent",
    "metrics",
    "parse_input",
    "proof_from_json",
    "proof_to_json",
    "render_formula",
    "render_proof",
    "render_term",
    "restrict_ci1",
    "run_corpus",
    "run_pipeline",
    "sf_improve",
    "write_corpus_outputs",
]
