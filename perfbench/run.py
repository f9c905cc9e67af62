"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Imports the library from ``src/`` next to
this directory, builds the workload's inputs from ``--seed``, measures,
checks every answer, and prints one JSON object as the last line of
stdout: the end-to-end metrics with ``--trace 0`` (times scaled to a
nominal host speed sampled during the run, see ``perfbench/hostspeed.py``),
the per-layer metrics of the separate traced run with ``--trace 1``.
Detail (every sample,
the environment, and with ``--trace 1`` the recorded spans) goes to
``.perfbench/<workload>-seed<N>-trace<T>/``. Exit status: 0 when every
answer was right, 1 when any was wrong or failed, 2 when the library
cannot be imported or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "join_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "serve_qps": "1/s",
}


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no library sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _environment(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _write_spans(path: str, tracer) -> None:
    names: dict[str, int] = {}
    rows = [
        [sid, names.setdefault(name, len(names)), start, end, parent, request]
        for sid, name, start, end, parent, request in tracer.spans
    ]
    document = {
        "fields": ["span_id", "name", "start", "end", "parent_id", "request_id"],
        "names": list(names),
        "spans": rows,
        "counts": dict(tracer.counts),
    }
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump(document, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be > 0")

    _import_library()
    from perfbench.layers import PER_LAYER
    from perfbench.spans import summarize
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    out_dir = os.path.join(
        ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    # Mapped-index temp files and worker span files stay in the checkout.
    tempfile.tempdir = os.path.join(out_dir, "tmp")
    os.makedirs(tempfile.tempdir)

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()}

    environment = _environment(args.seed)
    detail = dict(outcome.detail)
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        _write_spans(os.path.join(out_dir, "spans.json.gz"), tracer)
        detail["layers"] = summarize(tracer.spans)
        detail["counts"] = dict(tracer.counts)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "samples": outcome.samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong_answers": outcome.wrong,
        "metrics": metrics,
        "detail": detail,
    }
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    shutil.rmtree(tempfile.tempdir, ignore_errors=True)

    print(f"# environment: {json.dumps(environment)}")
    print(f"# samples: {json.dumps(outcome.samples)}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    if outcome.failed:
        print(f"# FAILED: {outcome.failed} of {outcome.attempted} operations"
              f" ({outcome.wrong} wrong answers); see {out_dir}/result.json")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
