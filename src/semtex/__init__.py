"""semtex: semantic enrichment of LaTeX formula compendia.

Lex presentation LaTeX, canonicalize it, replace notation patterns with
glossary-defined semantic macros, extract formula metadata, and package
formula home pages into a MediaWiki XML dump.
"""

from .canonicalize import (
    CanonicalSettings,
    CanonicalTree,
    canonicalize,
    canonicalize_string,
)
from .engine import ReplacementStats, replace_all, strip_semantics
from .errors import SemtexError
from .glossary import Glossary, builtin_glossary, load_glossary, loads_glossary
from .lexer import MathSpan, Token, detokenize, extract_math, render, tokenize
from .metadata import (
    Annotation,
    AnnotationKind,
    Formula,
    SubstitutionDef,
    detect_constraints,
    detect_substitutions,
    extract_document,
    inline_substitutions,
    segment_formulae,
)
from .pages import (
    FormulaPage,
    SiteInfo,
    SymbolsListEntry,
    build_symbols_list,
    emit_dump,
    load_bibliography,
    render_page,
    stats_report,
)
from .pipeline import (
    PipelineConfig,
    RenderedMath,
    load_config,
    replace_text,
    request_mathml,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "AnnotationKind",
    "CanonicalSettings",
    "CanonicalTree",
    "Formula",
    "FormulaPage",
    "Glossary",
    "MathSpan",
    "PipelineConfig",
    "RenderedMath",
    "ReplacementStats",
    "SemtexError",
    "SiteInfo",
    "SubstitutionDef",
    "SymbolsListEntry",
    "Token",
    "__version__",
    "build_symbols_list",
    "builtin_glossary",
    "canonicalize",
    "canonicalize_string",
    "detect_constraints",
    "detect_substitutions",
    "detokenize",
    "emit_dump",
    "extract_document",
    "extract_math",
    "inline_substitutions",
    "load_bibliography",
    "load_config",
    "load_glossary",
    "loads_glossary",
    "render",
    "render_page",
    "replace_all",
    "replace_text",
    "request_mathml",
    "run_pipeline",
    "segment_formulae",
    "stats_report",
    "strip_semantics",
    "tokenize",
]
