"""Smoke tests for the repository tooling (docs/report generators)."""

import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestApiDocsGenerator:
    def test_generates_index(self, tmp_path, monkeypatch):
        gen = load("gen_api_docs")
        monkeypatch.setattr(gen, "OUT", tmp_path / "api.md")
        assert gen.main() == 0
        text = (tmp_path / "api.md").read_text()
        assert "## `repro`" in text
        assert "## `repro.transpose.exchange`" in text
        assert "class `EnsembleNetwork`" in text
        assert "mpt_min_time" in text

    def test_first_paragraph_helper(self):
        gen = load("gen_api_docs")

        def sample():
            """Line one
            continues.

            Second paragraph dropped."""

        assert gen.first_paragraph(sample) == "Line one continues."


class TestResultsReport:
    def test_assembles_report(self, tmp_path, monkeypatch):
        rep = load("make_results_report")
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig10_one_dim.txt").write_text("== Figure 10 ==\ndata")
        (results / "custom_extra.txt").write_text("== Extra ==\nrows")
        monkeypatch.setattr(rep, "RESULTS", results)
        monkeypatch.setattr(rep, "OUT", tmp_path / "RESULTS.md")
        assert rep.main() == 0
        text = (tmp_path / "RESULTS.md").read_text()
        assert "== Figure 10 ==" in text
        assert "== Extra ==" in text  # un-catalogued files appended

    def test_missing_results_dir(self, tmp_path, monkeypatch):
        rep = load("make_results_report")
        monkeypatch.setattr(rep, "RESULTS", tmp_path / "nope")
        assert rep.main() == 1
