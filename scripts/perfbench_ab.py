#!/usr/bin/env python3
"""Alternated A/B runs of perfbench: a parent ref against a change.

Usage (from anywhere inside the repository):
    python3 scripts/perfbench_ab.py --parent HEAD~1 \\
        --workload encode --pairs 10 --seconds 10
    python3 scripts/perfbench_ab.py --parent HEAD --change HEAD \\
        --workload encode --pairs 5          # a no-op A/B

The parent is the committed tree of --parent; the change is the working
tree (its tracked and untracked, not ignored files), or the committed
tree of --change when given. Both are snapshot into --work-dir when the
script starts (`git archive` for a ref, so no worktree is registered),
so the working tree may be edited while it runs. Each side builds
perfbench into its own build directory there through that side's own
perfbench/run.py. A later run with the same --work-dir rewrites only
the files that differ, so its builds stay incremental and correct.

Pair i runs both sides at seed --first-seed + i, parent first on even
pairs and change first on odd ones, so slow drift of the host load
falls on both sides alike. For every metric the report gives:

- the median of each side;
- the median change/parent ratio over the pairs;
- how many pairs the change is better in (the direction comes from
  BENCHMARK.json; "-" for a metric it does not list);
- the parent's interquartile range;
- the two-sided sign-test p-value over the pairs that differ;
- for an end-to-end metric of BENCHMARK.json, that p-value after a
  Holm correction across the workload's end-to-end metrics ("-" for
  a per-layer metric, which keeps its raw p);
- a verdict. "no change" when every pair is equal. "unresolved" when
  the change of the median lies inside the parent's interquartile
  range or the (Holm-adjusted, for an end-to-end metric) p-value is
  >= 0.05. Otherwise "better" or "worse" ("changed" for a metric
  without a direction).

A workload reports 8 end-to-end metrics, so at p < 0.05 each a no-op
A/B could flag one of them up to a third of the time (1 - 0.95^8);
the Holm correction holds that family-wise rate at 0.05. At 10 pairs
an end-to-end verdict then needs every pair that differs on one side.

A second table checks each end-to-end metric against its regression
bound in BENCHMARK.json: the median over the pairs of the change's
relative move in the metric's worse direction (positive = worse), the
bound, and how many pairs moved past it. For a metric with any pair
past its bound it lists every pair's values, so a bound a single run
breaks shows up before anyone else runs the benchmark.

Every run's output is kept in --work-dir/logs. The script exits 1 when
a run fails or when the two sides of a pair print different `exact`
lines (deterministic counts such as encode.forward_flops), unless
--allow-exact-change declares that the change moves them; 0 otherwise.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("chat", "fork_resume", "encode")
SIGNIFICANCE = 0.05


def tree_files(ref):
    """{path: bytes} of the committed tree of @p ref, or of the working
    tree (tracked and untracked, not ignored) when @p ref is None."""
    if ref is None:
        listed = subprocess.run(
            ["git", "-C", str(REPO), "ls-files", "-z", "--cached",
             "--others", "--exclude-standard"],
            stdout=subprocess.PIPE, check=True).stdout.decode()
        return {name: (REPO / name).read_bytes()
                for name in listed.split("\0")
                if name and (REPO / name).is_file()}
    archive = subprocess.run(["git", "-C", str(REPO), "archive", ref],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        return {m.name: tar.extractfile(m).read()
                for m in tar.getmembers() if m.isfile()}


def sync_tree(files: dict, dest: Path) -> Path:
    """Makes @p dest hold exactly @p files. Only files that differ are
    rewritten (with a fresh mtime), so a build directory made from an
    earlier snapshot rebuilds exactly what changed."""
    dest.mkdir(parents=True, exist_ok=True)
    for path in dest.rglob("*"):
        if path.is_file() and path.relative_to(dest).as_posix() not in files:
            path.unlink()
    for name, data in files.items():
        path = dest / name
        if not path.is_file() or path.read_bytes() != data:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    return dest


def run_perfbench(source: Path, target: Path, args: list) -> str:
    """Runs source/perfbench/run.py with its build in @p target."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=source, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench in {source} {' '.join(args)} exited "
            f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def parse_run(text: str):
    """Returns ({metric: value}, {exact name: value}) of one run."""
    metrics, exact = {}, None
    for line in text.splitlines():
        if line.startswith("metric "):
            _, name, value = line.split()[:3]
            metrics[name] = float(value)
        elif line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
    if exact is None or not metrics:
        raise RuntimeError("perfbench output has no exact/metric lines")
    return metrics, exact


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact binomial p-value of @p wins vs @p losses."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def holm(p_values: dict) -> dict:
    """Holm step-down adjusted p-values of the family @p p_values."""
    adjusted, running = {}, 0.0
    ordered = sorted(p_values.items(), key=lambda item: item[1])
    for rank, (name, p) in enumerate(ordered):
        running = max(running, min(1.0, (len(ordered) - rank) * p))
        adjusted[name] = running
    return adjusted


def summarize(parent: list, change: list, better: str):
    """One report row for a metric's per-pair values; the verdict is
    set by verdict() once the family's p-values are known."""
    sign = {"higher": 1, "lower": -1}.get(better, 0)
    # Without a direction, "wins" are pairs where the change is higher.
    diffs = [(c - p) * (sign or 1) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    ratios = [c / p if p else (1.0 if c == p else math.inf)
              for p, c in zip(parent, change)]
    q1, q3 = quartiles(parent)
    delta = statistics.median(change) - statistics.median(parent)
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "ratio": statistics.median(ratios),
        "better": f"{wins}/{len(parent)}" if sign else "-",
        "iqr": (q1, q3),
        "p": sign_test(wins, losses),
        "p_holm": None,
        "sign": sign,
        "delta": delta,
        "equal": all(p == c for p, c in zip(parent, change)),
    }


def verdict(r: dict) -> str:
    """The verdict of one report row (see the module docstring)."""
    p_value = r["p"] if r["p_holm"] is None else r["p_holm"]
    q1, q3 = r["iqr"]
    if r["equal"]:
        return "no change"
    if abs(r["delta"]) <= q3 - q1 or p_value >= SIGNIFICANCE:
        return "unresolved"
    if not r["sign"]:
        return "changed"
    return "better" if r["delta"] * r["sign"] > 0 else "worse"


def fmt(value: float) -> str:
    return f"{value:.4g}"


def report(workload: str, header: str, rows: dict) -> None:
    print(f"== {workload}: {header}")
    print(f"{'metric':<40} {'parent':>10} {'change':>10} {'ratio':>7} "
          f"{'better':>7} {'parent IQR':>21} {'sign p':>7} {'Holm p':>7}  "
          f"verdict")
    for name, r in rows.items():
        iqr = f"[{fmt(r['iqr'][0])}, {fmt(r['iqr'][1])}]"
        holm_p = "-" if r["p_holm"] is None else f"{r['p_holm']:.3f}"
        print(f"{name:<40} {fmt(r['parent']):>10} {fmt(r['change']):>10} "
              f"{r['ratio']:>7.3f} {r['better']:>7} {iqr:>21} "
              f"{r['p']:>7.3f} {holm_p:>7}  {verdict(r)}")


def worse_moves(parent: list, change: list, better: str) -> list:
    """Per pair, the change's relative move in the metric's worse
    direction: positive when worse, negative when better."""
    sign = 1 if better == "lower" else -1
    return [sign * (c - p) / abs(p) if p else
            (0.0 if c == p else sign * math.copysign(math.inf, c - p))
            for p, c in zip(parent, change)]


def bound_report(workload: str, values: dict, declared: list,
                 seeds: list) -> None:
    """The end-to-end bound table (see the module docstring)."""
    print(f"== {workload}: end-to-end metrics against their "
          f"BENCHMARK.json bounds (worse-direction move, + = worse)")
    print(f"{'metric':<40} {'median':>9} {'bound':>7} {'past':>6}  note")
    for metric in declared:
        name = metric["name"]
        if name not in values["parent"] or name not in values["change"]:
            continue
        parent, change = values["parent"][name], values["change"][name]
        moves = worse_moves(parent, change, metric["better"])
        median = statistics.median(moves)
        bound = metric["bound"]
        past = [i for i, m in enumerate(moves) if m > bound]
        note = "MEDIAN PAST BOUND" if median > bound else ""
        print(f"{name:<40} {median:>+9.1%} {bound:>7.0%} "
              f"{len(past):>2}/{len(moves):<3}  {note}")
        if past:
            for i, (p, c, m) in enumerate(zip(parent, change, moves)):
                mark = "  <- past bound" if i in past else ""
                print(f"    seed {seeds[i]}: parent {fmt(p)} change "
                      f"{fmt(c)} ({m:+.1%}){mark}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", default="HEAD",
                        help="git ref of the parent (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="git ref of the change (default: working tree)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default all three")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--work-dir", type=Path,
                        default=REPO / ".bench_build" / "ab")
    parser.add_argument("--allow-exact-change", action="store_true",
                        help="the change is meant to move `exact` lines")
    opts = parser.parse_args()
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = opts.work_dir.resolve()
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    sides = {
        side: (sync_tree(tree_files(ref), work / f"{side}-src"),
               work / f"{side}-build")
        for side, ref in (("parent", opts.parent), ("change", opts.change))}
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"]
                  for m in declared["end_to_end"] + declared["per_layer"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}

    exact_mismatch = False
    for workload in opts.workload or WORKLOADS:
        values = {"parent": {}, "change": {}}
        for i in range(opts.pairs):
            seed = opts.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            exact = {}
            for side in order:
                source, target = sides[side]
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", f"{opts.seconds:g}",
                        "--trace", opts.trace]
                try:
                    text = run_perfbench(source, target, args)
                except RuntimeError as err:
                    print(f"perfbench_ab: {err}", file=sys.stderr)
                    return 1
                (logs / f"{workload}-{side}-{seed}.txt").write_text(text)
                metrics, exact[side] = parse_run(text)
                for name, value in metrics.items():
                    values[side].setdefault(name, []).append(value)
            if exact["parent"] != exact["change"]:
                exact_mismatch = True
                print(f"perfbench_ab: {workload} seed {seed}: exact lines "
                      f"differ: parent {exact['parent']} change "
                      f"{exact['change']}", file=sys.stderr)
            print(f"perfbench_ab: {workload} pair {i + 1}/{opts.pairs} "
                  f"(seed {seed}) done", file=sys.stderr)
        rows = {
            name: summarize(values["parent"][name], values["change"][name],
                            directions.get(name, ""))
            for name in values["parent"] if name in values["change"]}
        family = holm({name: r["p"] for name, r in rows.items()
                       if name in end_to_end})
        for name, p_holm in family.items():
            rows[name]["p_holm"] = p_holm
        change = opts.change or "working tree"
        report(workload,
               f"{opts.pairs} pairs, seeds {opts.first_seed}-"
               f"{opts.first_seed + opts.pairs - 1}, {opts.seconds:g} s, "
               f"trace {opts.trace}; parent {opts.parent}, change {change}",
               rows)
        bound_report(workload, values, declared["end_to_end"],
                     [opts.first_seed + i for i in range(opts.pairs)])
    if exact_mismatch and not opts.allow_exact_change:
        print("perfbench_ab: exact lines differ (pass --allow-exact-change "
              "if the change moves them on purpose)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
