"""Unit tests for the self-contained HTML ledger report."""

import re

from repro.obs import html_report, write_html_report

from .conftest import build_record


def sample_records():
    """Two configs, re-profiled twice each (as across two commits) —
    enough for tables, bars, and a trend line per configuration."""
    records = []
    for engine in ("gp-metis", "mt-metis"):
        for scale in (1.0, 1.2):
            records.append(
                build_record(
                    {
                        "coarsening": 1.0 * scale,
                        "initpart": 0.2 * scale,
                        "uncoarsening": 2.0 * scale,
                    },
                    engine=engine,
                    graph="delaunay_6000",
                    k=16,
                    seed=1,
                    cut=1000.0,
                )
            )
    return records


class TestHtmlReport:
    def test_is_a_complete_document(self):
        html = html_report(sample_records())
        assert html.startswith("<!DOCTYPE html>")
        assert "</html>" in html
        assert "<style>" in html and "<script>" in html

    def test_self_contained_no_network(self):
        html = html_report(sample_records())
        assert "http://" not in html and "https://" not in html
        assert not re.search(r"<(script|img|link)[^>]*\bsrc=", html)
        assert '<link rel="stylesheet"' not in html

    def test_sections_present(self):
        html = html_report(sample_records(), title="my ledger")
        assert "my ledger" in html
        for marker in ("gp-metis", "mt-metis", "delaunay_6000"):
            assert marker in html
        for phase in ("coarsening", "initpart", "uncoarsening"):
            assert phase in html
        assert "<svg" in html  # trend chart (>= 2 runs per config)
        assert "<table" in html

    def test_dark_mode_and_tooltip_layer(self):
        html = html_report(sample_records())
        assert "prefers-color-scheme: dark" in html
        assert "data-tip" in html
        assert 'id="tip"' in html

    def test_single_run_skips_trend_keeps_tables(self):
        html = html_report(sample_records()[:1])
        assert "<table" in html
        assert "coarsening" in html

    def test_attribute_values_escaped(self):
        records = [
            build_record(
                {"coarsening": 1.0},
                graph='weird"<graph>&name',
            )
        ]
        html = html_report(records)
        assert "<graph>" not in html
        assert "&lt;graph&gt;" in html

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "report.html"
        html = write_html_report(sample_records(), path)
        assert path.read_text() == html
        assert len(html) > 2000


class TestHardwareSection:
    def test_fallback_when_records_predate_hw(self):
        # build_record's bare profilers compute no hw block: the page
        # must say so rather than render an empty chart.
        html = html_report(sample_records())
        assert "<h2>Hardware</h2>" in html
        assert "No hardware data" in html

    def test_renders_roofline_and_boundness_from_real_ledger(self):
        from repro.obs import read_ledger

        records = read_ledger("benchmarks/BENCH_ledger.jsonl")
        html = html_report(records)
        assert "<h2>Hardware</h2>" in html
        assert "No hardware data" not in html
        assert "ridge" in html  # roofline ridge-point label
        assert "dram-bandwidth" in html or "compute" in html  # bound badges
        assert "transfer avoidance" in html.lower()
        # Utilization bars keep the fixed resource palette.
        assert "var(--series-1)" in html


class TestAgainstCommittedLedger:
    def test_renders_the_real_baseline(self):
        from repro.obs import read_ledger

        records = read_ledger("benchmarks/BENCH_ledger.jsonl")
        html = html_report(records)
        assert "gp-metis" in html and "mt-metis" in html
        assert "http" not in html.replace("http-equiv", "")
