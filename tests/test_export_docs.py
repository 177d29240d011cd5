"""Results export and repository-documentation consistency tests."""

import json
import re
from pathlib import Path

import pytest

from repro.bench.export import export_fast, write_results
from repro.docscheck import DOC_FILES

REPO = Path(__file__).resolve().parent.parent


class TestResultsExport:
    @pytest.fixture(scope="class")
    def doc(self):
        return export_fast()

    def test_schema_and_validation(self, doc):
        assert doc["schema"] == "repro.results/1"
        assert doc["validation_ok"] is True

    def test_provenance_header(self, doc):
        """Backend + git/seed provenance distinguish cached vs fresh trees."""
        from repro.bench.points import WORKLOAD_SEEDS
        from repro.bench.runner import code_fingerprint

        prov = doc["provenance"]
        assert prov["backend"] == "packed"
        assert prov["code_version"] == code_fingerprint()
        assert prov["workload_seeds"] == WORKLOAD_SEEDS
        # git_commit is a hex hash (with optional -dirty) or None outside git.
        commit = prov["git_commit"]
        assert commit is None or len(commit.split("-")[0]) == 40

    def test_machine_config_embedded(self, doc):
        from repro.config_io import config_from_dict
        from repro.params import sandybridge_8core

        assert config_from_dict(doc["machine"]) == sandybridge_8core()

    def test_tables_present(self, doc):
        assert len(doc["table1"]) == 3
        assert len(doc["table3"]) == 3
        assert len(doc["table5"]) == 3

    def test_figure7_entries_complete(self, doc):
        for kernel in ("copy", "compare", "search", "logical"):
            for cfg in ("base32", "cc"):
                entry = doc["figure7"][kernel][cfg]
                assert entry["cycles"] > 0
                assert entry["dynamic_nj"] > 0
                assert set(entry["dynamic_breakdown_nj"]) == {
                    "core", "cache-access", "cache-ic", "noc"
                }

    def test_json_serializable_round_trip(self, doc, tmp_path):
        path = tmp_path / "results.json"
        written = write_results(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["figure7_summary"].keys() == written["figure7_summary"].keys()
        assert loaded["validation_ok"] is True


class TestDocumentationConsistency:
    """Every file path referenced in the markdown docs must exist."""

    PATH_RE = re.compile(
        r"`((?:src/repro|repro|benchmarks|tests|examples|docs)/[\w/\.]+?\.(?:py|md))`"
    )

    def _referenced_paths(self, markdown: Path) -> set[str]:
        text = markdown.read_text(encoding="utf-8")
        return set(self.PATH_RE.findall(text))

    @pytest.mark.parametrize(
        "doc_name", (*DOC_FILES, "DESIGN.md", "EXPERIMENTS.md"))
    def test_referenced_files_exist(self, doc_name):
        doc = REPO / doc_name
        assert doc.exists(), f"missing documentation file {doc_name}"
        for ref in self._referenced_paths(doc):
            candidates = [REPO / ref, REPO / "src" / ref]
            assert any(c.exists() for c in candidates), (
                f"{doc_name} references {ref}, which does not exist"
            )

    def test_every_benchmark_file_documented(self):
        """DESIGN.md's experiment index must cover every benchmark file."""
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        corpus = design + readme
        for bench in (REPO / "benchmarks").glob("test_*.py"):
            assert bench.name in corpus or bench.stem.split("test_")[1] in corpus, (
                f"benchmarks/{bench.name} is not mentioned in DESIGN.md/README.md"
            )

    def test_every_example_runs_header(self):
        """Every example declares how to run it."""
        for example in (REPO / "examples").glob("*.py"):
            text = example.read_text(encoding="utf-8")
            assert "Run:" in text, f"{example.name} lacks a Run: line"
            assert text.startswith("#!/usr/bin/env python3"), example.name

    def test_experiments_lists_all_figures(self):
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for exhibit in ("Table I", "Table III", "Table V", "Figure 3",
                        "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                        "Figure 11"):
            assert exhibit in text, f"EXPERIMENTS.md missing {exhibit}"
