"""semtex: semantic enrichment of LaTeX formula compendia.

Lex presentation LaTeX, canonicalize it, replace notation patterns with
glossary-defined semantic macros, extract formula metadata, and package
formula home pages into a MediaWiki XML dump.
"""

from .canonicalize import canonicalize_string
from .engine import replace_all, strip_semantics
from .errors import SemtexError
from .glossary import builtin_glossary, load_glossary, loads_glossary
from .lexer import detokenize, extract_math, render, tokenize
from .metadata import extract_document
from .pipeline import PipelineConfig, load_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "SemtexError",
    "__version__",
    "builtin_glossary",
    "canonicalize_string",
    "detokenize",
    "extract_document",
    "extract_math",
    "load_config",
    "load_glossary",
    "loads_glossary",
    "render",
    "replace_all",
    "run_pipeline",
    "strip_semantics",
    "tokenize",
]
