"""The DESIGN.md section-reference check in ``scripts/check_docs.py``."""

from pathlib import Path

from scripts.check_docs import check_design_refs

ROOT = Path(__file__).resolve().parent.parent


def test_repository_references_name_existing_sections():
    assert check_design_refs(ROOT) == []


def test_dangling_references_are_reported(tmp_path):
    # "{d}" keeps the fixture's references out of this file's own scan
    d = "DESIGN.md"
    (tmp_path / d).write_text(
        "# DESIGN\n\n## 3. Engine\n\n### 3.1 Filter\n\n## 5. Sessions\n",
        "utf-8")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""See {d} §3.1 and {d} §3.2."""\n'
        "# ages out state ({d}\n"
        "# §7)\n"
        "X = 1  # {d} §3, §5.1\n".format(d=d), "utf-8")
    (tmp_path / "README.md").write_text(
        "Prose: {d} §5.\n\n```\nsrc/repro/\n"
        "├── engine.py   the engine (§3, §3.4)\n"
        "└── vindication/  witness search (paper §9)\n```\n"
        "Not the map (§8).\n".format(d=d), "utf-8")
    assert check_design_refs(tmp_path) == [
        "src/mod.py:1: DESIGN.md has no section 3.2",
        "src/mod.py:2: DESIGN.md has no section 7",
        "src/mod.py:4: DESIGN.md has no section 5.1",
        "README.md:5: DESIGN.md has no section 3.4",
    ]
