"""Fixed reference work that measures how fast the host runs Python now.

    python3 hostref.py

Prints one JSON line: cpu_s, the CPU seconds of a fixed amount of
LaTeX-like work (regex tokenizing, nested lists, dict counting, string
building) in pure Python.  It uses no semtex code, so a change to the
program does not change it.

On a host shared with other tenants the CPU time of identical work
drifts by up to a factor of two over tens of minutes, and semtex and
this loop slow down together.  run.py divides the program's CPU time by
this loop's, measured in the same run, so a figure compares across runs
made at different times.
"""

import json
import random
import re
import time

_TOKEN_RE = re.compile(r"(?P<cw>\\[A-Za-z]+)|(?P<open>\{)|(?P<close>\})|(?P<sub>[_^])|(?P<num>\d+)|(?P<ch>\S)")
_WORDS = ("\\frac", "\\alpha", "\\beta", "\\qPochhammer", "\\sum", "\\Gamma", "x", "q", "n", "k", "+", "-", "=")
_REPLACE = {"\\alpha": "\\EulerAlpha", "\\Gamma": "\\EulerGamma", "q": "\\q"}
REPS = 6


def _text() -> str:
    rng = random.Random(0)
    parts = []
    for i in range(12000):
        w = rng.choice(_WORDS)
        if w == "\\frac":
            parts.append(f"\\frac{{{rng.choice(_WORDS)}_{{{i % 9}}}}}{{({rng.choice(_WORDS)};q)_n}}")
        else:
            parts.append(w + (f"^{{{i % 5}}}" if i % 3 == 0 else ""))
    return " ".join(parts)


def _parse(text: str) -> list:
    root: list = []
    stack = [root]
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "open":
            node: list = []
            stack[-1].append(("group", node))
            stack.append(node)
        elif kind == "close":
            if len(stack) > 1:
                stack.pop()
        else:
            stack[-1].append((kind, m.group()))
    return root


def _render(nodes: list, replace: dict, counts: dict) -> str:
    out = []
    for kind, val in nodes:
        if kind == "group":
            out.append("{" + _render(val, replace, counts) + "}")
        else:
            counts[val] = counts.get(val, 0) + 1
            out.append(replace.get(val, val))
    return " ".join(out)


def reference(text: str, reps: int = REPS) -> float:
    """CPU seconds of `reps` parse-render-parse-render passes over text."""
    t = time.process_time()
    for _ in range(reps):
        counts: dict = {}
        once = _render(_parse(text), _REPLACE, counts)
        _render(_parse(once), {}, counts)
    return time.process_time() - t


if __name__ == "__main__":
    print(json.dumps({"cpu_s": reference(_text())}))
