"""One benchmark pass: import pblocks.cli, then run every job in-process.

Reads a JSON spec from the file named on the command line::

    {"src": ".../src", "jobs": [[label, argv], ...], "trace": false}

Each job calls ``pblocks.cli.run(argv)`` with stdout and stderr captured; its
time is the wall time of that call.  After the call, outside the timed
region, the job's output is hashed and projected (see gate.py).  The result
is one JSON line on the real stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    raised = None
    t0 = time.perf_counter()
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # a crash is a failed job, not a dead benchmark
        code, raised = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdout, sys.stderr = real_out, real_err
    return code, raised, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import pblocks.cli

    origin = Path(pblocks.cli.__file__).resolve()
    if Path(spec["src"]).resolve() not in origin.parents:
        raise SystemExit(f"pblocks imported from {origin}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    from gate import projection

    records = []
    for label, argv in spec["jobs"]:
        if tracer is not None:
            tracer.reset()
        code, raised, text, err, elapsed = run_job(pblocks.cli, argv)
        data = text.encode()
        rec = {"label": label, "time": elapsed, "exit": code, "raised": raised,
               "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
               "stderr": err[:300]}
        if tracer is not None:
            rec["trace"] = tracer.snapshot()
        if raised is None:
            rec["projection"] = projection(code, text)
        records.append(rec)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"records": records, "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
