"""CI guard: the public API surface must stay documented.

Checks two things over ``repro.__all__`` (the re-exported public API):

1. every member that is a class or callable has a non-empty docstring
   (data members such as ``ANALYSIS_NAMES`` are exempt — they carry
   ``#:`` comments at their definition sites instead), and
2. the key entry points a newcomer reaches first
   (:data:`EXAMPLE_REQUIRED`) additionally carry an *example-bearing*
   docstring — a doctest (``>>>``) or a literal code block (``::``).

It also checks that every section reference into DESIGN.md names a
heading DESIGN.md has (:func:`check_design_refs`): ``DESIGN.md §N`` /
``§N.M`` in ``src/``, ``tests/``, ``benchmarks/*.py`` and README.md,
and the bare ``(§N.M)`` of the README architecture map.

Run as ``python -m scripts.check_docs`` (CI does, with
``PYTHONPATH=src``); exits non-zero listing every violation, so a PR
that adds an undocumented public name or renumbers a DESIGN.md section
under a live reference fails loudly.
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

#: Dotted names whose docstring must include a runnable example
#: (``>>>`` doctest or ``::`` literal block).  These are the first
#: entry points README/quickstart users reach.
EXAMPLE_REQUIRED = (
    "detect_races",
    "detect_races_multi",
    "detect_races_stream",
    "stream_trace",
    "MultiRunner.session",
    "TraceListener",
    "PipeTraceSource",
    "send_trace",
)


def _resolve(root, dotted: str):
    obj = root
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _own_doc(obj) -> str:
    """The object's docstring, ignoring ones inherited from builtins
    (``inspect.getdoc(some_list)`` would return ``list.__doc__``)."""
    if not (inspect.isclass(obj) or callable(obj) or inspect.ismodule(obj)):
        return ""  # data member; handled by the caller
    return inspect.getdoc(obj) or ""


def check(root) -> list:
    failures = []
    for name in sorted(root.__all__):
        obj = getattr(root, name, None)
        if obj is None:
            failures.append(
                "{}: listed in __all__ but not importable".format(name))
            continue
        if not (inspect.isclass(obj) or callable(obj)):
            continue  # data members (ANALYSIS_NAMES, MAIN_MATRIX, ...)
        if not _own_doc(obj).strip():
            failures.append("{}: public API member has no docstring"
                            .format(name))
    for dotted in EXAMPLE_REQUIRED:
        try:
            obj = _resolve(root, dotted)
        except AttributeError:
            failures.append(
                "{}: named in EXAMPLE_REQUIRED but not found".format(dotted))
            continue
        doc = _own_doc(obj)
        if not doc.strip():
            failures.append("{}: key entry point has no docstring"
                            .format(dotted))
        elif ">>>" not in doc and "::" not in doc:
            failures.append(
                "{}: docstring lacks an example (add a '>>>' doctest or "
                "a '::' literal block)".format(dotted))
    return failures


#: ``DESIGN.md`` followed by a chain of section references
#: (``§3``, ``§3.1``, ``§3, §5``, ``§2/§4``, ``§9.1–9.2``); the chain may
#: wrap onto a ``#``-comment continuation line.
_DESIGN_REF = re.compile(
    r"DESIGN\.md[\s#]*((?:§\d+(?:\.\d+)?(?:[–-]\d+(?:\.\d+)?)?"
    r"(?:\s*(?:,|/|and)\s*)?)+)")
_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_HEADING = re.compile(r"^#{2,3} (\d+(?:\.\d+)?)\.? ", re.MULTILINE)
_PAREN = re.compile(r"\(([^()]*)\)")


def design_refs(text: str) -> list:
    """``(line, section)`` for every ``DESIGN.md §…`` reference."""
    out = []
    for match in _DESIGN_REF.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        out.extend((line, n) for n in _NUMBER.findall(match.group(1)))
    return out


def map_refs(readme: str) -> list:
    """``(line, section)`` for every ``(§N.M)`` in the README's
    architecture map (the fenced block that opens with ``src/repro/``);
    groups that cite the paper (``(paper §3)``) are skipped."""
    out = []
    in_map = False
    for line_no, line in enumerate(readme.splitlines(), 1):
        if line.startswith("```"):
            in_map = False
            continue
        if line.startswith("src/repro/"):
            in_map = True
        if not in_map:
            continue
        for group in _PAREN.findall(line):
            if "paper" in group:
                continue
            out.extend((line_no, n)
                       for n in re.findall(r"§(\d+(?:\.\d+)?)", group))
    return out


def check_design_refs(root: Path) -> list:
    """Every DESIGN.md section reference that names no heading."""
    # numbers of DESIGN.md's ``## N.`` and ``### N.M`` headings
    sections = set(_HEADING.findall((root / "DESIGN.md").read_text("utf-8")))
    files = sorted(root.glob("src/**/*.py")) + sorted(
        root.glob("tests/**/*.py")) + sorted(root.glob("benchmarks/*.py"))
    failures = []
    for path in files + [root / "README.md"]:
        text = path.read_text("utf-8")
        refs = design_refs(text)
        if path.name == "README.md":
            refs += map_refs(text)
        for line, section in refs:
            if section not in sections:
                failures.append(
                    "{}:{}: DESIGN.md has no section {}".format(
                        path.relative_to(root), line, section))
    return failures


def main() -> int:
    import repro

    failures = check(repro)
    failures += check_design_refs(Path(__file__).resolve().parent.parent)
    if failures:
        print("documentation check FAILED ({} problem(s)):"
              .format(len(failures)), file=sys.stderr)
        for line in failures:
            print("  - " + line, file=sys.stderr)
        return 1
    print("documentation check ok: {} public members, {} example-bearing "
          "entry points".format(len(repro.__all__), len(EXAMPLE_REQUIRED)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
