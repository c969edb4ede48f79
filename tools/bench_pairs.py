"""Run perfbench on a parent and a change checkout in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json \
        --runs train=11-20 --runs clips=11-13 --runs long=11-13 \
        [--trace train=21] [--seconds 20] [--parent-rev REV] [--change TEXT]

Each (workload, seed) is one pair: `perfbench/run.py` runs in the parent
checkout and in the change checkout back to back, the parent first on odd
seeds and the change first on even ones. `--runs` pairs are untraced and are
the ones summed up; `--trace` pairs give per-layer metrics only. The JSON
(change, parent, command, host, pairs, summary, runs) is rewritten after
every pair, so an interrupted session keeps what it measured. The summary
gives, per workload and end-to-end metric, each side's median and
quartiles, and how many pairs the change won (by the metric's direction in
BENCHMARK.json; ties count for neither side). A run that exits nonzero,
prints no result or prints `"correct": false` is left out together with its
pair, and counted per side under `failed_runs`. A correct run may still have
failed operations: each run keeps perfbench's `perfbench: <name>: <Type>:
<message>` lines as `failed_op_lines`, and the summary sums the `failed` and
`attempted` operations of each side's counted runs under `failed_ops`.

Before each run a fresh process with OpenBLAS on one thread times the host:
a 1024^3 float32 GEMM (GMAC/s) and a 64 MB copy (GB/s), best of 3 each. The
run records it as `probe`, failed runs too. The summary gives each side's
probe quartiles (`probe_gemm_gmac_per_s`, `probe_copy_gb_per_s`) and, beside
the raw figure, `audio_s_per_s_per_probe_gmac`: audio s/s over the run's
probe GMAC/s, a view that a change in the host's speed moves less.
"""
import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace T"
SIDES = ("parent", "change")
# what perfbench prints to stderr for an operation that raised
FAILED_OP_LINE = re.compile(r"perfbench: \S+: \w+: ")
PROBE = """
import json, time
import numpy as np

def best(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

a = np.ones((1024, 1024), np.float32)
src = np.ones(1 << 24, np.float32)  # 64 MB
dst = np.empty_like(src)
print(json.dumps({
    "gemm_gmac_per_s": 1024 ** 3 / best(lambda: a @ a) / 1e9,
    "copy_gb_per_s": src.nbytes / best(lambda: np.copyto(dst, src)) / 1e9}))
"""


def seed_range(text):
    """'train=11-20' -> ('train', [11, ..., 20]); 'clips=5' -> ('clips', [5])."""
    workload, _, seeds = text.partition("=")
    lo, _, hi = seeds.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def run_one(checkout, workload, seed, seconds, trace):
    """(return code, result or None, the lines of failed operations)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    failed_ops = [line for line in proc.stderr.splitlines()
                  if FAILED_OP_LINE.match(line)]
    return proc.returncode, result if isinstance(result, dict) else None, failed_ops


def probe():
    """The host's speed just before a run, as PROBE measures it; None when
    the probe fails."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0))
    return (f"{cpus} CPUs, {cpus} BLAS threads (perfbench's setting), "
            f"numpy {np.__version__}, {blas['name']} {blas['version']}")


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def succeeded(run):
    """A run counts when it exited 0 and printed a correct result."""
    return (run["returncode"] == 0 and run["result"] is not None
            and run["result"].get("correct") is True)


def value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def summary(runs, better):
    """Per workload: each metric's quartiles per side and the change's wins
    over the untraced pairs in which both sides succeeded, and the runs of
    each side that did not; per side and counted run, `setup_s` and
    `peak_rss_mb`; per side, the failed and attempted operations of the
    counted runs; the probe's quartiles when every run of those pairs has
    one."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        pairs = {}
        failed = {"parent": 0, "change": 0}
        for r in runs:
            if r["workload"] != workload or r["trace"]:
                continue
            if succeeded(r):
                pairs.setdefault(r["seed"], {})[r["side"]] = r
            else:
                failed[r["side"]] += 1
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        row = {"pairs": len(pairs), "failed_runs": failed}
        out[workload] = row
        if not pairs:
            continue
        wins = {}
        for metric, direction in better.items():
            sides = {side: [value(p[side], metric) for p in pairs]
                     for side in SIDES}
            row[metric] = {side: quartiles(v) for side, v in sides.items()}
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            wins[metric] = f"{won}/{len(pairs)}"
        row["change_wins"] = wins
        for metric in ("setup_s", "peak_rss_mb"):
            if metric in better:
                row[f"{metric}_per_run"] = {
                    side: [value(p[side], metric) for p in pairs] for side in SIDES}
        row["failed_ops"] = {}
        for side in SIDES:
            failed = sum(p[side]["result"]["failed"] for p in pairs)
            attempted = sum(p[side]["result"]["attempted"] for p in pairs)
            row["failed_ops"][side] = {
                "failed": failed, "attempted": attempted,
                "share": failed / attempted if attempted else None}
        if not all(p[side].get("probe") for p in pairs for side in SIDES):
            continue
        for key in ("gemm_gmac_per_s", "copy_gb_per_s"):
            row[f"probe_{key}"] = {
                side: quartiles([p[side]["probe"][key] for p in pairs])
                for side in SIDES}
        row["audio_s_per_s_per_probe_gmac"] = {
            side: quartiles([value(p[side], "audio_s_per_s")
                             / p[side]["probe"]["gemm_gmac_per_s"] for p in pairs])
            for side in SIDES}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=seed_range, action="append", default=[],
                    help="WORKLOAD=FIRST-LAST: untraced pairs")
    ap.add_argument("--trace", type=seed_range, action="append", default=[],
                    help="WORKLOAD=FIRST-LAST: traced pairs")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--change", default="")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {"change": args.change, "parent": args.parent_rev,
           "command": COMMAND.format(seconds=f"{args.seconds:g}"), "host": host(),
           "pairs": "each seed runs parent and change back to back; odd seeds "
                    "run the parent first, even seeds the change first; 'ran' "
                    "is the position in the pair",
           "summary": {}, "runs": []}
    plan = [(w, s, 0) for w, seeds in args.runs for s in seeds]
    plan += [(w, s, 1) for w, seeds in args.trace for s in seeds]
    for workload, seed, trace in plan:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for ran, side in enumerate(order, 1):
            checkout = args.parent_dir if side == "parent" else args.change_dir
            host_probe = probe()
            # a stand-in for run_one may give only (code, result)
            code, result, *failed_ops = run_one(checkout, workload, seed,
                                                args.seconds, trace)
            doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                "side": side, "ran": ran, "returncode": code,
                                "result": result, "probe": host_probe,
                                "failed_op_lines": failed_ops[0] if failed_ops else []})
            value = result["metrics"].get("audio_s_per_s", {}).get("value") if result else None
            failed = result.get("failed") if result else None
            print(f"{workload} seed {seed} trace {trace} {side}: rc {code} "
                  f"audio_s_per_s {value} failed ops {failed} probe {host_probe}",
                  file=sys.stderr, flush=True)
        doc["summary"] = summary(doc["runs"], better)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
