"""One timed semtex command in a fresh interpreter.

    python3 child.py '<json spec>'

spec keys: src (directory holding the semtex package), argv (arguments
for semtex.cli.main), spans (path to write the trace to, or null for an
untraced run).  Prints one JSON line: setup_s (CPU seconds of import
plus bundled glossary load), cpu_s (CPU seconds of the command, user
plus system, all threads and any child processes), rss_mb (peak
resident set) and rc.

CPU time rather than wall time, because on a shared host the wall time
of the same work swings by a quarter or more with the time the host
takes the virtual CPUs away.
"""

import contextlib
import io
import json
import resource
import sys
import time

t0 = time.process_time()


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import semtex.cli
    from semtex.glossary import builtin_glossary

    builtin_glossary()
    t1 = time.process_time()
    c1 = _children_cpu()

    tracer = None
    if spec["spans"]:
        import tracing  # the benchmark's own module, next to this file

        tracer = tracing.Tracer()
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = semtex.cli.main(spec["argv"])
    cpu_s = time.process_time() - t1 + _children_cpu() - c1
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": t1 - t0, "cpu_s": cpu_s, "rss_mb": rss_mb, "rc": rc}))


if __name__ == "__main__":
    main()
