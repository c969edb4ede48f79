"""tools/bench_pairs.py must summarise the pairs that ran, whatever failed.

The tool is a script, not a package module, so it is loaded by path.
"""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
BETTER = {"setup_s": "lower", "audio_s_per_s": "higher"}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(setup_s, audio_s_per_s):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {"setup_s": {"value": setup_s},
                        "audio_s_per_s": {"value": audio_s_per_s}}}


FAILED_CHECK = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}


def run(seed, side, returncode, res, workload="clips"):
    return {"workload": workload, "seed": seed, "trace": 0, "side": side,
            "ran": 1, "returncode": returncode, "result": res}


def test_summary_leaves_out_failed_runs_and_their_pairs():
    runs = [
        run(1, "parent", 0, result(2e-4, 20.0)),
        run(1, "change", 0, result(1e-4, 21.0)),
        run(2, "change", 1, FAILED_CHECK),        # a failed perfbench check
        run(2, "parent", 0, result(2e-4, 19.0)),
        run(3, "parent", 0, result(3e-4, 18.0)),
        run(3, "change", 1, None),                # no result line
        run(4, "change", 0, result(1e-4, 22.0)),
        run(4, "parent", -9, result(2e-4, 20.0)),  # killed after printing
        run(5, "parent", 0, result(3e-4, 18.0)),
        run(5, "change", 0, result(1e-4, 22.0)),
    ]
    row = _tool().summary(runs, BETTER)["clips"]
    assert row["pairs"] == 2
    assert row["failed_runs"] == {"parent": 1, "change": 2}
    assert row["audio_s_per_s"]["change"]["median"] == 21.5
    assert row["audio_s_per_s"]["parent"]["median"] == 19.0
    assert row["change_wins"] == {"setup_s": "2/2", "audio_s_per_s": "2/2"}
    assert row["setup_s_per_run"] == {"parent": [2e-4, 3e-4],
                                      "change": [1e-4, 1e-4]}


def test_summary_of_a_workload_with_no_good_pair():
    runs = [run(1, "parent", 0, result(2e-4, 20.0)),
            run(1, "change", 1, FAILED_CHECK)]
    assert _tool().summary(runs, BETTER) == {
        "clips": {"pairs": 0, "failed_runs": {"parent": 0, "change": 1}}}


def test_main_rewrites_the_file_after_every_pair(tmp_path, monkeypatch):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": b} for name, b in BETTER.items()]}))
    out = tmp_path / "pairs.json"
    seen = []

    def fake_run_one(checkout, workload, seed, seconds, trace):
        if out.exists():
            seen.append(json.loads(out.read_text())["summary"])
        if checkout == str(change) and seed == 1:
            return 1, FAILED_CHECK
        return 0, result(2e-4, 20.0 + seed)

    monkeypatch.setattr(tool, "run_one", fake_run_one)
    assert tool.main([str(parent), str(change), "--out", str(out),
                      "--runs", "clips=1-2"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 4
    assert doc["summary"]["clips"]["pairs"] == 1
    assert doc["summary"]["clips"]["failed_runs"] == {"parent": 0, "change": 1}
    # the second pair's runs saw the file the first pair left
    assert seen[-1]["clips"] == {"pairs": 0,
                                 "failed_runs": {"parent": 0, "change": 1}}


def test_every_run_records_the_probe_even_when_it_fails(tmp_path, monkeypatch):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": b} for name, b in BETTER.items()]}))
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(tool, "run_one",
                        lambda checkout, *args: (1, FAILED_CHECK))
    assert tool.main([str(parent), str(change), "--out", str(out),
                      "--runs", "clips=1-2"]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 4
    for r in runs:  # the real probe, in its own process
        assert r["probe"]["gemm_gmac_per_s"] > 0
        assert r["probe"]["copy_gb_per_s"] > 0


def test_summary_gives_probe_medians_and_the_normalised_view():
    runs = []
    for seed, gmac in ((1, 10.0), (2, 20.0)):
        for side, audio in (("parent", 20.0), ("change", 30.0)):
            r = run(seed, side, 0, result(1e-4, audio))
            r["probe"] = {"gemm_gmac_per_s": gmac, "copy_gb_per_s": 5.0}
            runs.append(r)
    row = _tool().summary(runs, BETTER)["clips"]
    assert row["probe_gemm_gmac_per_s"]["parent"]["median"] == 15.0
    assert row["probe_copy_gb_per_s"]["change"]["median"] == 5.0
    view = row["audio_s_per_s_per_probe_gmac"]
    assert view["parent"]["median"] == 1.5   # 20/10 and 20/20
    assert view["change"]["median"] == 2.25  # 30/10 and 30/20
    assert row["audio_s_per_s"]["change"]["median"] == 30.0


def test_failed_operations_of_a_correct_run_are_counted_and_kept(tmp_path,
                                                                 monkeypatch):
    # perfbench counts an operation that raised and carries on: the run is
    # correct, still pairs, and its lines and counts must show
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    better = {**BETTER, "peak_rss_mb": "lower"}
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": b} for name, b in better.items()]}))
    out = tmp_path / "pairs.json"
    line = "perfbench: clip007: FormatError: clip007.wav: truncated"

    def fake_run_one(checkout, workload, seed, seconds, trace):
        res = result(2e-4, 20.0 + seed)
        res["metrics"]["peak_rss_mb"] = {"value": 100.0 + seed}
        if checkout == str(change) and seed == 1:
            res["failed"] = 2
            return 0, res, [line, line]
        return 0, res, []

    monkeypatch.setattr(tool, "run_one", fake_run_one)
    monkeypatch.setattr(tool, "probe", lambda: None)
    assert tool.main([str(parent), str(change), "--out", str(out),
                      "--runs", "clips=1-2"]) == 0
    doc = json.loads(out.read_text())
    lines = {(r["seed"], r["side"]): r["failed_op_lines"] for r in doc["runs"]}
    assert lines == {(1, "parent"): [], (1, "change"): [line, line],
                     (2, "parent"): [], (2, "change"): []}
    row = doc["summary"]["clips"]
    assert row["pairs"] == 2
    assert row["failed_runs"] == {"parent": 0, "change": 0}
    assert row["failed_ops"] == {
        "parent": {"failed": 0, "attempted": 10, "share": 0.0},
        "change": {"failed": 2, "attempted": 10, "share": 0.2}}
    assert row["peak_rss_mb_per_run"] == {"parent": [101.0, 102.0],
                                          "change": [101.0, 102.0]}


def test_run_one_keeps_only_the_failed_operation_lines(tmp_path):
    # a stand-in perfbench/run.py that prints what perfbench prints
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('perfbench: clips seed=1 cpus=2', file=sys.stderr)\n"
        "print('perfbench: clip003: FormatError: bad header', file=sys.stderr)\n"
        "print('perfbench: round seconds [0.5]', file=sys.stderr)\n"
        "print('perfbench: check failed: hm 0.1', file=sys.stderr)\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 1, "
        "'metrics': {}}))\n")
    code, res, lines = _tool().run_one(str(tmp_path), "clips", 1, 1, 0)
    assert code == 0 and res["failed"] == 1
    assert lines == ["perfbench: clip003: FormatError: bad header"]
