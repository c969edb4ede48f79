"""tools/bench_history.py must tabulate every BENCH file's medians in order.

The tool is a script, not a package module, so it is loaded by path.
"""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_history.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_history", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def medians(parent, change):
    return {"parent": {"median": parent, "q1": parent, "q3": parent},
            "change": {"median": change, "q1": change, "q3": change}}


def test_table_orders_files_by_pr_number_and_marks_missing_metrics(tmp_path):
    (tmp_path / "BENCH_12.json").write_text(json.dumps({"summary": {
        "clips": {"pairs": 10, "setup_s": medians(2e-4, 1e-4),
                  "audio_s_per_s": medians(60.0, 66.5)},
        "long": {"pairs": 0, "failed_runs": {"parent": 1, "change": 1}}}}))
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"summary": {
        "train": {"audio_s_per_s": medians(5.0, 9.25)}}}))
    text = _tool().table(sorted(tmp_path.glob("BENCH_*.json")),
                         ["setup_s", "audio_s_per_s"])
    header = [line for line in text.splitlines() if line.startswith("#")]
    assert "compare speed only inside one file" in " ".join(header)
    rows = [line.split() for line in text.splitlines()
            if not line.startswith("#")]
    assert rows == [
        ["file", "workload", "setup_s", "audio_s_per_s"],
        ["BENCH_3.json", "train", "-", "5", "->", "9.25"],
        ["BENCH_12.json", "clips", "0.0002", "->", "0.0001", "60", "->", "66.5"],
        ["BENCH_12.json", "long", "-", "-"],
    ]


def test_committed_history_prints(capsys):
    assert _tool().main([]) == 0
    out = capsys.readouterr().out
    assert "BENCH_9.json" in out and "audio_s_per_s" in out
    lines = out.splitlines()
    header = next(line.split() for line in lines if line.startswith("file"))
    assert header[-2:] == ["probe_gemm_gmac_per_s", "probe_copy_gb_per_s"]
    # files from before the probe have no probe medians
    for name in ("BENCH_9.json", "BENCH_27.json"):
        rows = [line.split() for line in lines if line.startswith(name)]
        assert rows and all(row[-2:] == ["-", "-"] for row in rows)
