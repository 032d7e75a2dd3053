"""Entry point of the pipeline benchmark.

Run from the repository root, either way::

    python3 benchmarks/pipeline/run.py [options]
    PYTHONPATH=src python -m benchmarks.pipeline.run [options]

See ``benchmarks/pipeline/README.md`` and ``--help`` for the options.
The benchmark runs the system from this checkout's ``src``; without it
(a directory holding only the benchmark) it exits 2 before measuring.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro sources under {}; run the benchmark from a "
              "full checkout".format(SRC), file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    from benchmarks.pipeline.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
