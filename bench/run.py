"""semtex benchmark: seeded inputs, timed CLI runs, output checks.

    python3 bench/run.py --workload compendium --seed 1 --seconds 60 --trace 0

Run from the repository root.  Builds the workload's inputs from the
seed, checks the program's outputs, runs `semtex convert` through
`semtex.cli.main` in fresh interpreters for about --seconds, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
per-layer figures from traced runs, plus the tracing overhead.  When a
check fails the line says "correct": false, holds no metrics, and the
exit status is 1.

Times are CPU seconds scaled to a host of fixed speed: each iteration
also runs the fixed reference work of hostref.py, and a run's median
times are multiplied by HOST_REF_S over that work's median CPU time in
the run.

Workloads (see BENCHMARK.json for why each exists):
  compendium    8 chapter files, `convert` with 2 workers
  dense_unit    one subsection with chained substitution defs, `convert`
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DATA = TESTS / "data"

WORKERS = {"compendium": 2, "dense_unit": 1}
# Rows checked against the brute-force oracle.
ORACLE_SAMPLE = 40
CHILD_TIMEOUT = 150
# CPU seconds of hostref.py on a quiet host of the kind the baselines in
# baseline.json were measured on.  Times are scaled by HOST_REF_S over
# the median hostref.py time of the same benchmark run.
HOST_REF_S = 0.4


def _child(script: str, *args: str) -> dict:
    """Run a script of this directory in a fresh interpreter and return
    its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    """Generated inputs and the `convert` command one iteration runs."""

    def __init__(self, name: str, seed: int, work: Path, workers: int | None = None):
        import corpus

        self.work = work
        self.workers = workers or WORKERS[name]
        self.corpus = corpus.compendium(seed) if name == "compendium" else corpus.dense_unit(seed)
        self.inputs = work / "in"
        self.inputs.mkdir(parents=True)
        for fname, text in self.corpus.files.items():
            (self.inputs / fname).write_text(text, encoding="utf-8")

    def iterate(self, k: int, traced: bool) -> dict:
        """Run one iteration in a fresh interpreter; returns its figures,
        its output directory and, when traced, its spans and counts."""
        out = self.work / f"it{k}"
        out.mkdir()
        argv = [
            "convert",
            "--input", str(self.inputs),
            "--bib", str(DATA / "bib.json"),
            "--out", str(out / "dump.xml"),
            "--report", str(out / "report.txt"),
            "--workers", str(self.workers),
        ]
        spans = out / "spans.json" if traced else None
        res = _child("child.py", json.dumps({"src": str(SRC), "argv": argv, "spans": str(spans) if spans else None}))
        res["dir"] = out
        if spans and res["rc"] == 0:
            res["trace"] = json.loads(spans.read_text(encoding="utf-8"))
        return res


def _outputs(it: dict) -> dict[str, str]:
    return {n: (it["dir"] / n).read_text(encoding="utf-8") for n in ("dump.xml", "report.txt")}


def _check_fixture(work: Path) -> list[str]:
    import checks
    from semtex import cli

    out = work / "fixture"
    out.mkdir()
    argv = [
        "convert",
        "--input", str(DATA / "kls_mini.tex"),
        "--bib", str(DATA / "bib.json"),
        "--out", str(out / "dump.xml"),
        "--report", str(out / "report.txt"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    problems = [] if rc == 0 else [f"fixture convert exited {rc}"]
    return problems + checks.golden(
        (out / "dump.xml").read_text(encoding="utf-8"),
        (out / "report.txt").read_text(encoding="utf-8"),
        (DATA / "golden_dump.xml").read_text(encoding="utf-8"),
        (DATA / "golden_report.txt").read_text(encoding="utf-8"),
    )


def _check_outputs(w: Workload, outputs: dict[str, str], seed: int) -> tuple[list[str], tuple]:
    """Checks on one iteration's outputs.  Also returns the rerun figures
    (math spans, spans a second `replace` pass changed)."""
    import checks
    from semtex.glossary import builtin_glossary
    from semtex.pipeline import replace_text

    c = w.corpus
    sample = checks.sample_rows(c, seed, ORACLE_SAMPLE)
    builtin = builtin_glossary()
    problems = checks.engine_sample([r.body for r in sample], builtin)
    dump, report = outputs["dump.xml"], outputs["report.txt"]
    try:
        pages = checks.dump_pages(dump)
    except ElementTree.ParseError as exc:
        return problems + [f"dump does not parse as XML: {exc}"], (0, 0)
    expected_pages = len(c.rows) - len(c.defs)
    if len(pages) != expected_pages:
        problems.append(f"dump has {len(pages)} pages, expected {expected_pages}")
    problems += checks.substitutions(pages, c)
    if "\nfailures: 0\n" not in report:
        problems.append("report lists failures")
    # `replace` run twice over every input file, in-process
    spans = changed = 0
    for name in sorted(c.files):
        once, _ = replace_text(c.files[name], builtin)
        twice, _ = replace_text(once, builtin)
        n, k = checks.rerun_changed(once, twice)
        spans += n
        changed += k
    return problems, (spans, changed)


def _failed_units(w: Workload, it: dict, units: int) -> int:
    """Failed rows of one iteration, as the program reports them.  A
    failed file counts all its rows."""
    import checks

    report = it["dir"] / "report.txt"
    if not report.exists():
        return units if it["rc"] else 0
    per_file = Counter(r.file for r in w.corpus.rows)
    return checks.failed_rows(report.read_text(encoding="utf-8"), per_file)


def run(workload: str, seed: int, seconds: float, trace: bool, workers: int | None = None) -> dict:
    # after this script's own directory, so bench modules come first
    sys.path[1:1] = [str(SRC), str(TESTS)]
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(Workload(workload, seed, work, workers), seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import tracing

    problems = _check_fixture(work)

    # Iterate until the next iteration would end past the deadline.  With
    # tracing, untraced and traced iterations alternate, so the overhead
    # compares runs made under the same machine conditions.  Each iteration
    # also times the fixed reference work, to gauge the host's speed.
    deadline = time.perf_counter() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    refs: list[float] = []
    k = 0
    while True:
        t = time.perf_counter()
        is_traced = trace and k % 2 == 1
        (traced if is_traced else plain).append(w.iterate(k, is_traced))
        refs.append(_child("hostref.py")["cpu_s"])
        k += 1
        now = time.perf_counter()
        if k >= (2 if trace else 1) and now + (now - t) > deadline:
            break

    runs = plain + traced
    units = len(w.corpus.rows)
    attempted = units * len(runs)
    failed_per_run = _failed_units(w, runs[0], units)
    if failed_per_run:
        problems.append(f"{failed_per_run} of {units} rows failed")
    if any(it["rc"] for it in runs):
        problems.append(f"semtex exited {max(it['rc'] for it in runs)}")
    else:
        outputs = [_outputs(it) for it in runs]
        if any(o != outputs[0] for o in outputs[1:]):
            problems.append("outputs differ between iterations")
        found, (spans, changed) = _check_outputs(w, outputs[0], seed)
        problems += found

    if problems:
        for p in problems[:20]:
            print("check failed:", p, file=sys.stderr)
        # outputs that fail a check count every attempted row as failed
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}

    # On a host shared with other tenants the CPU time of identical work
    # swings by up to half between iterations and drifts by up to a factor
    # of two over tens of minutes.  The reference work, timed right after
    # each iteration, slows down with it, so dividing the medians of the
    # two takes the host's speed out.
    scale = HOST_REF_S / statistics.median(refs)
    cpu = statistics.median(it["cpu_s"] for it in plain) * scale
    if not trace:
        metrics = {
            "setup_s": (statistics.median(it["setup_s"] for it in runs) * scale, "s"),
            "cpu_norm_s": (cpu, "s"),
            "peak_rss_mb": (statistics.median(it["rss_mb"] for it in plain), "MB"),
            "rerun_stable_share": (1 - changed / spans, "share"),
        }
    else:
        per = [tracing.layer_metrics(it["trace"]["spans"], Counter(it["trace"]["counts"])) for it in traced]
        metrics = {n: (statistics.median(p[n] for p in per), _unit(n)) for n in per[0]}
        traced_cpu = statistics.median(it["cpu_s"] for it in traced) * scale
        metrics["trace.overhead_s"] = (traced_cpu - cpu, "s")
        metrics["host.ref_s"] = (statistics.median(refs), "s")
        metrics["rerun.changed_spans"] = (changed, "count")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--workers",
        type=int,
        choices=range(1, 9),
        help="override the worker count of a convert workload (compendium: 2, dense_unit: 1)",
    )
    args = p.parse_args(argv)
    if not (SRC / "semtex" / "cli.py").is_file() or not (TESTS / "gen.py").is_file():
        print(f"no semtex sources under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
