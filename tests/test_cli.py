"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "DDR4-2400" in out


def test_covert_command_single_attack(capsys):
    assert main(["covert", "--attack", "impact-pnm", "--bits", "64"]) == 0
    out = capsys.readouterr().out
    assert "impact-pnm" in out
    assert "Mb/s" in out


def test_covert_command_rejects_unknown_attack():
    with pytest.raises(SystemExit):
        main(["covert", "--attack", "rowhammer"])


def test_covert_eviction_switches_to_xor_mapping(capsys):
    assert main(["covert", "--attack", "drama-eviction", "--bits", "16"]) == 0
    assert "drama-eviction" in capsys.readouterr().out


def test_sidechannel_command(capsys):
    assert main(["sidechannel", "--banks", "64", "--rounds", "10"]) == 0
    out = capsys.readouterr().out
    assert "64 banks" in out
    assert "leaked" in out


def test_recon_command(capsys):
    assert main(["recon", "--mapping", "row"]) == 0
    out = capsys.readouterr().out
    assert "bank bits" in out
    assert "'row'" in out


def test_detect_command(capsys):
    assert main(["detect", "--bits", "48"]) == 0
    out = capsys.readouterr().out
    assert "impact-pnm" in out
    assert "no cache activity" in out


def test_defenses_command_security_only(capsys):
    assert main(["defenses", "--bits", "64"]) == 0
    out = capsys.readouterr().out
    assert "mpr" in out
    assert "eliminated" in out


def test_report_command_writes_markdown_and_json(tmp_path, capsys):
    import json

    assert main(["report", "fig8", "--llc-mb", "8", "--bits", "64",
                 "--attacks", "impact-pnm", "impact-pum", "--jobs", "1",
                 "--out-dir", str(tmp_path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "report written" in out

    md = (tmp_path / "fig8.md").read_text()
    assert "# Run report: fig8" in md
    assert "IMPACT-PnM" in md and "IMPACT-PuM" in md
    for column in ("BER 95% CI", "Capacity Mb/s", "Leakage t"):
        assert column in md
    assert "Phase profile" in md
    assert "Trace summary" in md

    report = json.loads((tmp_path / "fig8.json").read_text())
    assert report["experiment"] == "fig8"
    point = report["points"][0]
    quality = point["payload"]["attacks"]["IMPACT-PnM"]
    for key in ("throughput_mbps", "ber", "ber_ci95", "capacity_mbps",
                "leakage_t", "eye_gap"):
        assert key in quality
    assert point["metrics"]["counters"]["channel.bits"] > 0
    assert "transmit:IMPACT-PnM" in point["metrics"]["phases"]
    assert point["trace_summary"]["events"] > 0
    assert report["totals"]["counters"]["dram.RD"] > 0


def test_report_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["report", "fig99"])


def test_trace_summary_of_existing_file(tmp_path, capsys):
    out_path = str(tmp_path / "t.trace.json")
    assert main(["trace", "impact-pnm", "--bits", "16",
                 "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["trace", "impact-pnm", "--summary",
                 "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    assert "receiver" in out and "sender" in out
    assert "cycle span" in out


def test_trace_summary_missing_file(tmp_path, capsys):
    assert main(["trace", "impact-pnm", "--summary",
                 "--out", str(tmp_path / "absent.json")]) == 2
    assert "no trace file" in capsys.readouterr().err


def test_cache_command_stats_and_prune(tmp_path, capsys):
    from repro.exp.cache import ResultCache
    from repro.exp.warmstore import WarmStore

    results_dir = tmp_path / "results"
    warm_dir = tmp_path / "warm"
    ResultCache(results_dir, version="old",
                max_entries=None).put("exp", {"a": 1}, {"r": 1})
    WarmStore(warm_dir, version="old").store_artifact(("r",), [1])
    argv = ["cache", "stats", "--results-dir", str(results_dir),
            "--warm-dir", str(warm_dir)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "results" in out and "warm" in out

    assert main(["cache", "prune", "--results-dir", str(results_dir),
                 "--warm-dir", str(warm_dir)]) == 0
    out = capsys.readouterr().out
    assert "removed 1 stale entries" in out
    assert ResultCache(results_dir).entry_count() == 0


def test_top_once_offline_dir(tmp_path, capsys, monkeypatch):
    from repro.exp import run_sweep
    from repro.exp.sweep import SweepPoint
    from repro.obs import telemetry

    tele_dir = str(tmp_path / "events")
    points = [SweepPoint("t", telemetry.sleep_point, {"seconds": 0.0,
                                                      "tag": i})
              for i in range(3)]
    run_sweep(points, jobs=1, telemetry_dir=tele_dir)
    telemetry.reset_sink()
    assert main(["top", "--once", "--dir", tele_dir]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "points 3/3 done" in out


def test_top_unreachable_daemon(capsys):
    # Port 1 is never a repro serve daemon.
    assert main(["top", "--once", "--port", "1", "--timeout", "2"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_serve_parser_accepts_telemetry_dir():
    args = build_parser().parse_args(
        ["serve", "--telemetry-dir", "/tmp/x", "--port", "0"])
    assert args.telemetry_dir == "/tmp/x"
