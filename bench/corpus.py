"""Seeded input generators for the benchmark workloads.

Row bodies come from tests/gen.py.  Everything else (prose, layout,
planted substitution definitions) is built here, and
each generator returns the ground truth the output checks compare with.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen  # tests/gen.py

# Every non-definition row starts with one of these.  Each is a control
# word with both a subscript and a superscript, so the part left of a
# top-level '=' can never parse as a definition head (a simple symbol or
# an application of simple symbols), whatever gen.formula appends.
_PREFIXES = ("\\sum_{k=0}^{N}", "\\int_{0}^{1}", "\\prod_{j=1}^{n}", "\\sum_{x=0}^{\\infty}")

# Definition heads.  No bundled glossary head, no gen.formula token and
# no prose uses these control words, so an occurrence is always planted.
_SYMBOL_HEADS = ("\\Omega", "\\Xi", "\\Upsilon", "\\Theta", "\\Sigma", "\\Lambda")
_FUNCTION_HEADS = ("\\Psi", "\\Phi")

_KEYWORD_SENTENCES = (
    "Orthogonality relation.",
    "Recurrence relation.",
    "Normalized recurrence relation.",
    "Generating function.",
    "Difference equation.",
    "Forward shift operator.",
    "Backward shift operator.",
    "Rodrigues-type formula.",
    "Limit relation to the previous family.",
    "Definition.",
)
_NOTE_SENTENCES = (
    "The polynomials satisfy the following identity.",
    "This follows from the binomial theorem.",
    "Here the base is fixed throughout the subsection.",
    "The weight is positive on the lattice points.",
    "Both sides are analytic in the parameters.",
)
# Where-clauses are the only inline math.  One follows the environment
# of every third row rather than a random share, so the number of math
# spans (and the share a second `replace` leaves alone) varies little
# by seed.
_WHERE_CLAUSES = (
    "where $0<q<1$.",
    "for $|t|<1$.",
    "provided $|z|<1$.",
    "where $n=0,1,\\ldots,N$.",
)
_RIGHT_SIDES = (
    "h_n\\delta_{mn}",
    "0",
    "\\frac{(aq;q)_n}{(q;q)_n}",
    "A_np_{n+1}(x)+C_np_{n-1}(x)",
    "\\frac{(xt;q)_\\infty}{(t;q)_\\infty}",
    "\\sum_{n=0}^\\infty P_n^{(\\alpha,\\beta)}(x)t^n",
)
_TRAILING = (", \\quad 0<q<1", ", \\qquad |z|<1", ", \\quad n=0,1,\\ldots,N")


@dataclass
class Row:
    """One generated display row.  file is the input file stem."""

    file: str
    label: str
    unit: str
    body: str
    uses: tuple[str, ...] = ()
    is_def: bool = False


@dataclass
class Corpus:
    """Generated input files plus what the program should find in them."""

    files: dict[str, str]
    rows: list[Row]
    # def label -> (unit, head key, labels of defs its right side uses)
    defs: dict[str, tuple[str, str, tuple[str, ...]]] = field(default_factory=dict)

    def expected_substitutions(self) -> dict[str, frozenset[str]]:
        """Page label -> transitive set of def labels it must cite."""
        memo: dict[str, frozenset[str]] = {}

        def closure(label: str) -> frozenset[str]:
            if label not in memo:
                out = {label}
                for dep in self.defs[label][2]:
                    out |= closure(dep)
                memo[label] = frozenset(out)
            return memo[label]

        want = {}
        for r in self.rows:
            if r.is_def:
                continue
            got: set[str] = set()
            for u in r.uses:
                got |= closure(u)
            want[page_key(r)] = frozenset(got)
        return want


def page_key(r: Row) -> str:
    return f"{r.file}:{r.label}"


def head_key(base: str, sub: int) -> str:
    """Head as it reads in rendered output with braces and spaces removed."""
    return f"{base}_{sub}"


def _formula(rng: random.Random) -> str:
    """A gen.formula body of 40-110 characters.  Bounding the length
    keeps the cost of a fixed number of rows close across seeds."""
    while True:
        body = gen.formula(rng)
        if 40 <= len(body) <= 110:
            return body


@dataclass
class _Def:
    label: str
    base: str
    sub: int
    function: bool
    deps: tuple["_Def", ...] = ()

    def use(self, rng: random.Random) -> str:
        head = f"{self.base}_{{{self.sub}}}"
        if self.function:
            return head + "(" + rng.choice(("q^{k}", "x", "aq", "t")) + ")"
        return head

    def body(self, rng: random.Random) -> str:
        lhs = f"{self.base}_{{{self.sub}}}" + ("(x)" if self.function else "")
        uses = "".join(d.use(rng) + " " for d in self.deps)
        # the parentheses keep any '=' or ',' of the gen body off the top
        # level, so the row stays a single equation with no clauses
        return f"{lhs}={uses}\\left({_formula(rng)}\\right)"


def _row_body(rng: random.Random, uses: list[_Def], trailing: bool) -> str:
    body = rng.choice(_PREFIXES) + " "
    body += "".join(d.use(rng) + " " for d in uses)
    body += _formula(rng) + " = " + rng.choice(_RIGHT_SIDES)
    if trailing:
        body += rng.choice(_TRAILING)
    return body


def _equation(label: str, body: str) -> str:
    return f"\\begin{{equation}}\\label{{{label}}}\n{body}\n\\end{{equation}}\n"


def _align(rows: list[tuple[str, str]]) -> str:
    lines = [f"{body} \\label{{{label}}}" for label, body in rows]
    return "\\begin{align}\n" + "\\\\\n".join(lines) + "\n\\end{align}\n"


def _prose(rng: random.Random) -> str:
    out = []
    if rng.random() < 0.6:
        out.append(rng.choice(_KEYWORD_SENTENCES))
    if rng.random() < 0.5:
        out.append(rng.choice(_NOTE_SENTENCES))
    return " ".join(out) + "\n" if out else ""


def _plant_defs(
    rng: random.Random, count: int, prefix: str, chain: int
) -> list[_Def]:
    """count definitions forming chains of `chain`: each def uses its
    chain predecessor, and the head of every second chain also uses the
    head of the chain before it.  Deps only point backwards, so the graph
    is acyclic, and its shape does not depend on the seed."""
    heads = [(b, False) for b in _SYMBOL_HEADS] + [(b, True) for b in _FUNCTION_HEADS]
    defs: list[_Def] = []
    for k in range(count):
        base, function = heads[k % len(heads)]
        d = _Def(f"{prefix}d{k + 1}", base, k // len(heads) + 1, function)
        deps = []
        if k % chain:
            deps.append(defs[-1])
        elif k // chain % 2:
            deps.append(defs[k - chain])
        d.deps = tuple(deps)
        defs.append(d)
    return defs


def _unit_text(
    rng: random.Random,
    corpus: Corpus,
    file: str,
    unit: str,
    prefix: str,
    n_rows: int,
    defs: list[_Def],
    use_share: float,
) -> str:
    """Rows of one subsection, recorded in corpus.  A use_share of the
    ordinary rows, chosen at random, cite one def each, taking the defs
    in turn, so every def is cited and the substitution work does not
    depend on the seed.  Each def is placed before its first citing row."""
    rows = corpus.rows
    n_plain = n_rows - len(defs)
    # rows (by index among the ordinary rows) that cite a def
    n_users = max(len(defs), round(use_share * n_plain)) if defs else 0
    cited = rng.sample(range(n_plain), n_users)
    users = {i: [defs[j % len(defs)]] for j, i in enumerate(cited)}
    def_slots: dict[int, list[_Def]] = {}
    for d in defs:
        first = min(i for i, ds in users.items() if d in ds)
        def_slots.setdefault(rng.randint(0, first), []).append(d)

    parts: list[str] = []
    i = 0
    while i < n_plain:
        for d in def_slots.get(i, ()):
            parts.append(_prose(rng))
            body = d.body(rng)
            parts.append(_equation(d.label, body))
            rows.append(Row(file, d.label, unit, body, tuple(x.label for x in d.deps), True))
            corpus.defs[d.label] = (
                unit,
                head_key(d.base, d.sub),
                tuple(x.label for x in d.deps),
            )
        parts.append(_prose(rng))
        # an alignment of 2-3 rows, unless a def must come first
        width = 1
        if rng.random() < 0.2:
            width = min(rng.randint(2, 3), n_plain - i)
            while width > 1 and any(i + w in def_slots for w in range(1, width)):
                width -= 1
        env_rows = []
        for w in range(width):
            uses = users.get(i + w, [])
            label = f"{prefix}{i + w + 1}"
            body = _row_body(rng, uses, trailing=width == 1 and rng.random() < 0.3)
            env_rows.append((label, body))
            rows.append(Row(file, label, unit, body, tuple(d.label for d in uses)))
        if width == 1:
            parts.append(_equation(*env_rows[0]))
        else:
            parts.append(_align(env_rows))
        # at most one row of an environment has r % 3 == 2
        if any((i + w) % 3 == 2 for w in range(width)):
            parts.append(rng.choice(_WHERE_CLAUSES) + "\n")
        parts.append("\n")
        i += width
    return "".join(parts)


def _document(sections: list[str]) -> str:
    return (
        "\\documentclass{article}\n\\usepackage{amsmath}\n\n\\begin{document}\n\n"
        + "".join(sections)
        + "\\end{document}\n"
    )


def compendium(seed: int, files: int = 8, rows_per_file: int = 100) -> Corpus:
    """KLS-shaped chapters: subsections of about 20 rows, 1-2 defs each."""
    rng = random.Random(seed)
    corpus = Corpus(files={}, rows=[])
    for c in range(1, files + 1):
        stem = f"chapter{c:02d}"
        sections = []
        left = rows_per_file
        s = 0
        while left > 0:
            s += 1
            sec = [f"\\section{{Family {c}.{s}}}\n\n"]
            for u in range(1, 6):
                if left <= 0:
                    break
                n = min(left, rng.randint(16, 24))
                if 0 < left - n < 8:
                    n = left
                left -= n
                prefix = f"{c}.{s}.{u}."
                defs = _plant_defs(rng, rng.randint(1, 2), prefix, chain=2)
                sec.append(f"\\subsection{{Family {c}.{s}.{u}}}\n\n")
                sec.append(
                    _unit_text(rng, corpus, stem, prefix, prefix, n, defs, 0.1)
                )
            sections.append("".join(sec))
        corpus.files[stem + ".tex"] = _document(sections)
    return corpus


def dense_unit(seed: int, rows: int = 400, defs: int = 40) -> Corpus:
    """One subsection holding every row and a DAG of chained defs."""
    rng = random.Random(seed)
    corpus = Corpus(files={}, rows=[])
    planted = _plant_defs(rng, defs, "", chain=5)
    body = _unit_text(rng, corpus, "dense", "u", "", rows, planted, 0.33)
    text = _document(["\\section{Dense}\n\n\\subsection{One unit}\n\n" + body])
    corpus.files["dense.tex"] = text
    return corpus
