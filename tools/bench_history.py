"""Print the parent and change medians of every committed BENCH_*.json.

    python3 tools/bench_history.py

One row per file (by the number in its name) and workload; one column per
end-to-end metric of BENCHMARK.json, in its order, then the host probe's
medians that tools/bench_pairs.py records, each cell the parent's median ->
the change's. A cell is `-` where a file has no median for the metric (files
from before the probe have none for it). The files are only read.
"""
import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_COLUMNS = ["probe_gemm_gmac_per_s", "probe_copy_gb_per_s"]
HEADER = ("# Medians, parent -> change. The host's speed drifts over time "
          "(ROADMAP.md, \"This host\"):\n# compare speed only inside one "
          "file, never down a column.")


def file_number(path):
    return int(re.search(r"BENCH_(\d+)\.json$", str(path)).group(1))


def cell(row, metric):
    try:
        parent, change = (row[metric][side]["median"]
                          for side in ("parent", "change"))
    except KeyError:
        return "-"
    return f"{parent:.4g} -> {change:.4g}"


def table(paths, metrics):
    """The history table of the BENCH files `paths` over `metrics`."""
    rows = [["file", "workload"] + list(metrics)]
    for path in sorted(paths, key=file_number):
        summary = json.loads(Path(path).read_text())["summary"]
        for workload, row in summary.items():
            rows.append([Path(path).name, workload]
                        + [cell(row, m) for m in metrics])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join([HEADER] + lines)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in benchmark["end_to_end"]] + PROBE_COLUMNS
    print(table(ROOT.glob("BENCH_*.json"), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
