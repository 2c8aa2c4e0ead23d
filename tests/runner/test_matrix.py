"""Capability matrix: expansion, aggregation, trends, rendering, CLI."""

import json

import pytest

from repro.locking import SCHEMES
from repro.runner.campaign import registered_attacks
from repro.runner.cli import main
from repro.warehouse import Warehouse
from repro.runner.matrix import (
    WarehouseMatrixHistory,
    build_matrix,
    matrix_campaign,
    matrix_scheme_entries,
    render_matrix_report,
    trend_deltas,
)


def _record(scheme, attack, *, status="ok", h=None, value=None, metric=None,
            removal=None, key_sizes=(8,), technology="BENCH8"):
    record = {
        "scheme": scheme,
        "h": h,
        "attack": attack,
        "technology": technology,
        "key_sizes": list(key_sizes),
        "status": status,
    }
    if value is not None:
        record[metric or "baseline_success_rate"] = value
    if removal is not None:
        record["removal_success_rate"] = removal
    return record


class TestMatrixCampaign:
    def test_entries_cover_every_registered_scheme(self):
        entries = matrix_scheme_entries()
        assert len(entries) == len(SCHEMES)
        names = {entry.split(":")[0] for entry in entries}
        assert names == set(SCHEMES.names())
        assert "sfll:2" in entries  # h comes from the registration's matrix_params
        assert "sarlock" in entries and "cyclic" in entries

    def test_campaign_spans_every_attack_and_scheme(self):
        spec = matrix_campaign(targets=("c2670",), key_sizes=(8,))
        tasks = spec.validate()
        assert set(spec.attacks) == set(registered_attacks())
        seen = {(task.dataset.scheme, task.attack) for task in tasks}
        expected = {
            (name, attack)
            for name in SCHEMES.names()
            for attack in registered_attacks()
        }
        assert seen == expected
        # >= 6 schemes x >= 5 attacks is the acceptance floor.
        assert len(SCHEMES) >= 6 and len(registered_attacks()) >= 5

    def test_sat_budget_is_bounded_by_default(self):
        spec = matrix_campaign()
        assert spec.attack_params["sat"]["max_iterations"] > 0
        task = next(t for t in spec.validate() if t.attack == "sat")
        assert dict(task.attack_params)["max_iterations"] > 0

    def test_axes_are_narrowable(self):
        spec = matrix_campaign(
            schemes=("xor", "sarlock"), attacks=("sps",), key_sizes=(8,),
            targets=("c2670",),
        )
        tasks = spec.validate()
        assert {t.dataset.scheme for t in tasks} == {"xor", "sarlock"}
        assert {t.attack for t in tasks} == {"sps"}


class TestBuildMatrix:
    def test_cells_average_and_key_on_scheme_and_attack(self):
        records = [
            _record("xor", "sat", value=1.0),
            _record("xor", "sat", value=0.0),
            _record("sarlock", "sat", value=0.0),
            _record("sfll", "gnnunlock", h=2, technology="GEN65",
                    value=0.9, metric="post_accuracy", removal=1.0),
        ]
        cells = build_matrix(records)
        assert set(cells) == {
            "xor@BENCH8|k8|sat",
            "sarlock@BENCH8|k8|sat",
            "sfll:2@GEN65|k8|gnnunlock",
        }
        xor = cells["xor@BENCH8|k8|sat"]
        assert xor["value"] == 0.5 and xor["n_ok"] == 2
        sfll = cells["sfll:2@GEN65|k8|gnnunlock"]
        assert sfll["metric"] == "post_accuracy"
        assert sfll["removal"] == 1.0

    def test_failed_records_become_err_cells(self):
        cells = build_matrix([_record("cyclic", "fall", status="failed")])
        cell = cells["cyclic@BENCH8|k8|fall"]
        assert cell["n_ok"] == 0 and cell["n_failed"] == 1
        report = render_matrix_report([_record("cyclic", "fall", status="failed")])
        assert "err" in report

    def test_summary_and_unkeyable_records_are_skipped(self):
        assert build_matrix([
            _record("antisat", "dataset-summary", value=1.0),
            {"status": "ok"},
        ]) == {}


class TestTrends:
    def test_delta_buckets(self):
        before = build_matrix([
            _record("xor", "sat", value=1.0),
            _record("antisat", "sat", value=0.5),
            _record("ttlock", "sat", value=0.0, technology="GEN65"),
        ])
        now = build_matrix([
            _record("xor", "sat", value=1.0),          # unchanged
            _record("antisat", "sat", value=0.25),     # regressed
            _record("sarlock", "sat", value=0.0),      # new
        ])
        buckets = trend_deltas(now, before)
        assert [k for k, *_ in buckets["unchanged"]] == ["xor@BENCH8|k8|sat"]
        assert [k for k, *_ in buckets["regressed"]] == ["antisat@BENCH8|k8|sat"]
        assert [k for k, *_ in buckets["new"]] == ["sarlock@BENCH8|k8|sat"]
        assert [k for k, *_ in buckets["gone"]] == ["ttlock@GEN65|k8|sat"]
        assert buckets["improved"] == []


class TestRendering:
    def test_report_is_deterministic_and_complete(self):
        records = [
            _record("xor", "sat", value=1.0),
            _record("sarlock", "sat", value=0.0),
            _record("sarlock", "gnnunlock", value=0.9,
                    metric="post_accuracy", removal=0.5),
        ]
        report = render_matrix_report(records)
        assert report == render_matrix_report(list(reversed(records)))
        assert "Capability matrix" in report
        assert "sarlock@BENCH8 | k8" in report
        assert "1.000" in report and "0.000" in report
        assert "Removal success" in report
        assert "(no previous sweep stored)" in report

    def test_report_diffs_against_previous_sweep(self):
        previous = build_matrix([_record("xor", "sat", value=0.0)])
        report = render_matrix_report(
            [_record("xor", "sat", value=1.0)], previous=previous
        )
        assert "1 improved, 0 regressed, 0 unchanged, 0 new, 0 gone" in report
        assert "impr xor@BENCH8|k8|sat: 0.000 -> 1.000 (+1.000)" in report


class TestCli:
    def test_schemes_lists_every_registration(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for info in SCHEMES:
            assert info.display_name in out
        assert "key_size" in out and "classes" in out

    def test_schemes_json_is_machine_readable(self, capsys):
        assert main(["schemes", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(SCHEMES.names())
        sfll = next(entry for entry in payload if entry["name"] == "sfll")
        assert sfll["uses_h"] is True
        assert {p["name"] for p in sfll["params"]} == {"key_size", "h"}

    def test_run_list_benchmarks(self, capsys):
        assert main(["run", "--list-benchmarks"]) == 0
        out = capsys.readouterr().out
        for suite in ("ISCAS-85", "ITC-99", "SYNTH-XL"):
            assert suite in out
        assert "c2670" in out and "xl24k" in out

    def test_matrix_dry_run_expands_full_grid(self, capsys):
        assert main(["matrix", "--dry-run", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert f"{len(SCHEMES)} scheme(s) x {len(registered_attacks())} attack(s)" in out
        assert "dry run: nothing executed" in out
        for name in SCHEMES.names():
            assert name in out

    @pytest.mark.parametrize("scheme,message", [
        ("mystery", "unknown locking scheme"),
        ("sfll", "need an h value"),
        ("antisat:3", "does not take an h value"),
        ("sfll:9", "invalid parameters for scheme 'sfll:9'"),
    ])
    def test_invalid_scheme_spec_exits_2(self, scheme, message, capsys):
        code = main([
            "run", "--scheme", scheme, "--key-sizes", "8",
            "--targets", "c2670", "--dry-run", "--no-cache",
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_matrix_end_to_end_with_trend(self, tmp_path, capsys):
        """Two sweeps of a tiny matrix: cells render, the second sweep
        reports trends against the first, resume skips completed cells."""
        store = tmp_path / "matrix.jsonl"
        argv = [
            "matrix",
            "--scheme", "xor", "--scheme", "sarlock",
            "--attack", "sps", "--attack", "fall",
            "--targets", "c2670", "--key-sizes", "8",
            "--serial", "--no-cache",
            "--store", str(store),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Capability matrix" in first
        assert "xor@BENCH8 | k8" in first and "sarlock@BENCH8 | k8" in first
        assert "(no previous sweep stored)" in first
        history_dir = tmp_path / "matrix.history"
        assert f"sweep recorded in {history_dir} (1 sweep(s))" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resume: 4 task(s) already complete" in second
        assert "4 unchanged" in second
        history = WarehouseMatrixHistory(
            Warehouse(history_dir), name="capability-matrix"
        )
        assert len(history) == 2
        assert len(history.sweeps()) == 2

    def test_matrix_warehouse_flag_overrides_history_dir(self, tmp_path, capsys):
        store = tmp_path / "matrix.jsonl"
        warehouse_dir = tmp_path / "shared-wh"
        argv = [
            "matrix", "--scheme", "xor", "--attack", "sps",
            "--targets", "c2670", "--key-sizes", "8", "--serial", "--no-cache",
            "--store", str(store), "--warehouse", str(warehouse_dir),
            "--name", "nightly",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"sweep recorded in {warehouse_dir} (2 sweep(s))" in out
        assert not (tmp_path / "matrix.history").exists()
        history = WarehouseMatrixHistory(Warehouse(warehouse_dir), name="nightly")
        assert len(history.sweeps()) == 2
