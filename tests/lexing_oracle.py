"""References for the structural scans of a document, which read a
whole-document lex where semtex scans the source once and lexes only
math bodies and the braces after a mark.

row_ranges() and scan_sections() walk every token of a lexed document;
locate() is the section/subsection walk semtex.metadata's heading
bisection replaced: it gives a row's heading path and unit from every
heading before it.  lex(), marks(), marked_row_ranges() and
marked_scan_sections() are the path semtex's one scan of the source
replaced: the document is lexed to token texts and start offsets, and
each hit of a structural-token pattern is mapped onto them by
bisection, so rows and headings are read through those marks alone.
split_rows() is the token loop that split alignment rows, and
sentences() splits prose token by token.  The module stands apart from
tests/oracle.py, which the benchmark loads, so the benchmark does not
compile it.
"""

import re
from bisect import bisect_left
from itertools import accumulate

from semtex.errors import UnterminatedEnvironmentError
from semtex.lexer import MATH_ENVIRONMENTS, ROW_SPLIT_ENVIRONMENTS, _check_balance

# The lexer's token pattern, compiled here: a test may stand a recorder
# in for semtex.lexer._TOKEN_RE, and whole-document lexes made for
# reference must not be recorded as the program's.
_TOKEN_RE = re.compile(r"\\(?:[A-Za-z]+|.)?|%[^\n]*|\s+|.", re.S)


def row_ranges(texts, starts):
    """The math rows of a lexed document, read token by token."""
    n = len(texts)
    i = 0
    while i < n:
        t = texts[i]
        if t not in ("\\begin", "\\[", "$"):
            i += 1
            continue
        if t == "\\begin":
            got = group_text(texts, i + 1, n)
            if got is None:
                i += 1
                continue
            env, after = got
            if env not in MATH_ENVIRONMENTS:
                i = after
                continue
            j = after
            depth = 0
            end_at = None
            while j < n:
                u = texts[j]
                if u == "\\begin":
                    inner = group_text(texts, j + 1, n)
                    if inner is not None and inner[0] == env:
                        depth += 1
                        j = inner[1]
                        continue
                elif u == "\\end":
                    inner = group_text(texts, j + 1, n)
                    if inner is not None and inner[0] == env:
                        if depth == 0:
                            end_at = j
                            after_end = inner[1]
                            break
                        depth -= 1
                        j = inner[1]
                        continue
                j += 1
            if end_at is None:
                raise UnterminatedEnvironmentError(env, starts[i])
            outer = (starts[i], starts[after_end])
            if env in ROW_SPLIT_ENVIRONMENTS:
                rows = split_rows(texts, after, end_at)
            else:
                rows = [(after, end_at)]
            i = after_end
        elif t == "\\[":
            j = i + 1
            while j < n and texts[j] != "\\]":
                j += 1
            if j >= n:
                raise UnterminatedEnvironmentError("bracket-display", starts[i])
            env, rows, outer = "bracket-display", [(i + 1, j)], (starts[i], starts[j + 1])
            i = j + 1
        elif i + 1 < n and texts[i + 1] == "$":
            j = i + 2
            while j < n:
                if texts[j] == "$" and j + 1 < n and texts[j + 1] == "$":
                    break
                j += 1
            if j >= n:
                raise UnterminatedEnvironmentError("bracket-display", starts[i])
            env, rows, outer = "bracket-display", [(i + 2, j)], (starts[i], starts[j + 2])
            i = j + 2
        else:
            j = i + 1
            while j < n and texts[j] != "$":
                j += 1
            if j >= n:
                raise UnterminatedEnvironmentError("inline-dollar", starts[i])
            env, rows, outer = "inline-dollar", [(i + 1, j)], (starts[i], starts[j + 1])
            i = j + 1
        for a, b in rows:
            while a < b and texts[a][0].isspace():
                a += 1
            while b > a and texts[b - 1][0].isspace():
                b -= 1
            if all(u[0] == "%" or u[0].isspace() for u in texts[a:b]):
                continue
            _check_balance(texts, starts.__getitem__, a, b)
            yield env, a, b, outer


def scan_sections(texts, starts):
    """The (pos, end, level, title) of each heading, read token by token."""
    out = []
    i = 0
    n = len(texts)
    while i < n:
        t = texts[i]
        if t in ("\\section", "\\subsection"):
            k = i + 1
            while k < n and texts[k][0].isspace():
                k += 1
            j = k + 1 if k < n and texts[k] == "*" else i + 1
            got = group_text(texts, j, n)
            if got is not None:
                title, after = got
                out.append((starts[i], starts[after], t[1:], title.strip()))
                i = after
                continue
        i += 1
    return out


def group_text(texts, i, n):
    """Read a balanced {...} at texts[i] (skipping leading whitespace),
    looking no further than texts[n - 1]: (inner text, index past the
    closing brace), or None."""
    while i < n and texts[i][0].isspace():
        i += 1
    if i >= n or texts[i] != "{":
        return None
    depth = 0
    for j in range(i, n):
        if texts[j] == "{":
            depth += 1
        elif texts[j] == "}":
            depth -= 1
            if depth == 0:
                return "".join(texts[i + 1 : j]), j + 1
    return None


def split_rows(texts, a, b):
    """Split an alignment body a..b-1 at top-level \\\\ separators into
    index ranges, token by token."""
    rows = []
    depth = 0
    env_depth = 0
    for i in range(a, b):
        text = texts[i]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif text == "\\begin":
            env_depth += 1
        elif text == "\\end":
            env_depth -= 1
        elif text == "\\\\" and depth == 0 and env_depth == 0:
            rows.append((a, i))
            a = i + 1
    rows.append((a, b))
    return rows


def locate(sections, pos):
    """The (section title, subsection title) path and the unit of a row
    whose environment starts at pos, from the scan_sections() headings:
    the unit is "u<section index>.<subsection index>", or "doc" before
    any heading."""
    sec = sub = None
    si = ui = -1
    for k, (start, _, level, title) in enumerate(sections):
        if start >= pos:
            break
        if level == "section":
            sec, si = title, k
            sub, ui = None, -1
        else:
            sub, ui = title, k
    path = tuple(t for t in (sec, sub) if t is not None)
    unit = f"u{si}.{ui}" if path else "doc"
    return path, unit


def lex(source):
    """Token texts of the whole source and their start offsets; starts
    has one more entry, len(source)."""
    texts = _TOKEN_RE.findall(source)
    return texts, [0, *accumulate(map(len, texts))]


# Where a structural token may start: \begin, \end, \[, \], $, \section
# and \subsection, or the start of a longer control word
_MARK_RE = re.compile(r"\\(?:begin|end|section|subsection|\[|\])|\$")


def marks(source, texts, starts):
    """Indices of the structural tokens of a lexed document: each hit of
    _MARK_RE mapped onto the token list by bisection, kept where a token
    of its text starts there."""
    out = []
    for m in _MARK_RE.finditer(source):
        p = m.start()
        k = bisect_left(starts, p)
        if starts[k] == p and texts[k] == m.group():
            out.append(k)
    return out


def marked_row_ranges(texts, starts, marks):
    """The math rows of a lexed document as (environment, a, b, outer),
    reading only the marks() tokens; tokens a..b-1 are the trimmed row."""
    n = len(texts)
    nm = len(marks)
    m = 0
    while m < nm:
        i = marks[m]
        m += 1
        t = texts[i]
        if t not in ("\\begin", "\\[", "$"):
            continue
        if t == "\\begin":
            got = group_text(texts, i + 1, n)
            if got is None:
                continue
            env, end = got
            if env in MATH_ENVIRONMENTS:
                after = end
                depth = 0
                j = after  # the next \begin or \end looked at starts here
                end_at = None
                while m < nm:
                    q = marks[m]
                    m += 1
                    u = texts[q]
                    if q < j or (u != "\\begin" and u != "\\end"):
                        continue
                    inner = group_text(texts, q + 1, n)
                    if inner is None or inner[0] != env:
                        continue
                    if u == "\\begin":
                        depth += 1
                    elif depth:
                        depth -= 1
                    else:
                        end_at, end = q, inner[1]
                        break
                    j = inner[1]
                if end_at is None:
                    raise UnterminatedEnvironmentError(env, starts[i])
                if env in ROW_SPLIT_ENVIRONMENTS:
                    rows = split_rows(texts, after, end_at)
                else:
                    rows = [(after, end_at)]
            else:
                rows = ()
        else:
            close = "\\]" if t == "\\[" else "$"
            width = 2 if t == "$" and i + 1 < n and texts[i + 1] == "$" else 1
            env = "inline-dollar" if t == "$" and width == 1 else "bracket-display"
            m += width - 1
            while m < nm:
                j = marks[m]
                if texts[j] == close and (width == 1 or (j + 1 < n and texts[j + 1] == "$")):
                    break
                m += 1
            if m == nm:
                raise UnterminatedEnvironmentError(env, starts[i])
            rows, end = [(i + width, j)], j + width
        while m < nm and marks[m] < end:
            m += 1
        outer = (starts[i], starts[end])
        for a, b in rows:
            while a < b and texts[a][0].isspace():
                a += 1
            while b > a and texts[b - 1][0].isspace():
                b -= 1
            if all(u[0] == "%" or u[0].isspace() for u in texts[a:b]):
                continue
            _check_balance(texts, starts.__getitem__, a, b)
            yield env, a, b, outer


def marked_scan_sections(texts, starts, marks):
    """The (pos, end, title) of each heading of a lexed document, reading
    only the marks() tokens."""
    out = []
    n = len(texts)
    after = 0
    for i in marks:
        t = texts[i]
        if i < after or t not in ("\\section", "\\subsection"):
            continue
        k = i + 1
        while k < n and texts[k][0].isspace():
            k += 1
        j = k + 1 if k < n and texts[k] == "*" else i + 1
        got = group_text(texts, j, n)
        if got is not None:
            title, after = got
            out.append((starts[i], starts[after], title.strip()))
    return out


def sentences(text):
    """Split prose into sentences on its token list: $...$ is opaque and
    comments are dropped."""
    out = []
    buf = []
    in_math = False
    for t in _TOKEN_RE.findall(text):
        if t[0] == "%":
            continue
        buf.append(t)
        if t == "$":
            in_math = not in_math
        elif t in (".", "!", "?") and not in_math:
            out.append("".join(buf))
            buf = []
    out.append("".join(buf))
    return [re.sub(r"\s+", " ", s).strip() for s in out if s.strip()]
