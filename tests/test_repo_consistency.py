"""Repository-level consistency: the documentation, CLI, and benchmark
tree must stay in sync as the project evolves."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text()


def bench_files():
    return sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))


def test_core_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (REPO / name).stat().st_size > 1000, f"{name} is missing or thin"


def test_every_paper_artifact_has_a_bench():
    names = bench_files()
    for artifact in (
        "tab01", "fig01", "fig02", "fig07", "fig08", "fig09", "fig10",
        "tab02", "tab03", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "tab04",
    ):
        assert any(artifact in n for n in names), f"no bench for {artifact}"


def test_experiments_md_covers_every_figure_and_table():
    text = read("EXPERIMENTS.md")
    for artifact in (
        "Table 1", "Figure 1 ", "Figure 2", "Figures 7/8/9", "Table 2",
        "Figure 10", "Table 3", "Figure 11", "Figure 12", "Figure 13",
        "Figure 14", "Figure 15", "Figure 16", "Table 4",
    ):
        assert artifact in text, f"EXPERIMENTS.md missing {artifact!r}"


def test_every_bench_is_referenced_in_docs():
    docs = read("README.md") + read("EXPERIMENTS.md") + read("DESIGN.md")
    for name in bench_files():
        # Ablations are referenced collectively as bench_abl_*.
        if name.startswith("bench_abl_") and "bench_abl_" in docs:
            continue
        assert name in docs, f"{name} not referenced in any document"


def test_design_md_declares_paper_verified():
    text = read("DESIGN.md")
    assert "Paper text verified" in text


def test_cli_and_bench_artifact_sets_agree():
    from repro.cli import EXPERIMENTS

    # Every figN/tabN CLI entry has a bench file counterpart.
    names = " ".join(bench_files())
    for key in EXPERIMENTS:
        if key.startswith(("fig", "tab")):
            num = key.replace("fig", "").replace("tab", "")
            prefix = "fig" if key.startswith("fig") else "tab"
            assert f"{prefix}{int(num):02d}" in names, f"no bench for CLI {key}"


def test_examples_directory_is_documented():
    readme = read("README.md")
    for script in sorted(p.name for p in (REPO / "examples").glob("*.py")):
        assert script in readme, f"examples/{script} not mentioned in README"


def test_source_paths_named_in_docs_exist():
    # A path like `repro/mem/frame.py` (or `src/repro/...`) in a document
    # must name a file that exists; `::name` suffixes are not checked.
    docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    docs += sorted(
        str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md")
    )
    pattern = re.compile(r"(?<![\w/.-])(?:src/)?(repro/[\w/]+\.py)")
    missing = []
    for doc in docs:
        for lineno, line in enumerate(read(doc).splitlines(), 1):
            for path in pattern.findall(line):
                if not (REPO / "src" / path).is_file():
                    missing.append(f"{doc}:{lineno}: {path}")
    assert not missing, "documents name missing files:\n" + "\n".join(missing)
