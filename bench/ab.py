#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: REF against the checkout.

    python3 bench/ab.py REF [--workloads tcp_rate,threads_rate]
                            [--seeds 11-20] [--trace 0]
                            [--claim freshness_p50_ms@tcp_rate]
                            [--scratch DIR]
    python3 bench/ab.py --self-test

REF (any git revision) is exported with `git archive` into DIR/ref-<hash>;
the other side is the working tree as it stands, uncommitted edits
included. Each side builds perfbench from its own sources into its own
build directory (CARGO_TARGET_DIR, which perfbench/run.py honours):
DIR/ref-<hash>-target for REF and DIR/change-<hash of the checkout's
path>-target for the working tree, so the two builds never share objects and
two checkouts never share a build directory. An export leaves the repository
itself untouched: no worktree to register or prune.

For each seed and workload the script runs one pair, REF and change in
alternating order (REF first on even pair indices), each through its own
tree's perfbench/run.py, for BENCHMARK.json's run_seconds. Before each
pair it runs the pair's first side once for WARMUP_SECONDS and discards
the result, so a slow first run after a pause or a side switch lands on
neither side. After a build-only warm-up per side, the report prints, per
workload and metric:
  - each side's median and quartiles [q1 q3];
  - the median of the per-pair ratios change/REF and the change's wins
    (ties count for neither side);
  - for BENCHMARK.json's end-to-end metrics, the verdict against the
    metric's bound: "regressed" when the change's median is worse than
    REF's by more than the bound, "unresolved" when either side's
    interquartile range exceeds the bound relative to its median (unless
    every change run beats every REF run), else "ok";
and per workload the failed/attempted share, the `correct` flags, and
for each end-to-end metric the median of the pairs' first runs next to
that of their second runs (an order effect the warm-up should remove).
A --claim metric@workload applies the gain rule: the change wins at least
nine tenths of the pairs and its median beats REF's by more than REF's
interquartile range. Exits 1 when a claim fails, a bound is exceeded, or a
run is incorrect; 0 otherwise.

Runs are serial: pairs on a shared host are noisy enough without the two
sides competing for cores.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WIN_SHARE = 0.9
WARMUP_SECONDS = 5


# --- Arithmetic (covered by --self-test) --------------------------------

def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return (math.nan, math.nan, math.nan)
    if len(ordered) == 1:
        return (ordered[0], ordered[0], ordered[0])
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return (q1, median, q3)


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def wins(ref, change, direction):
    """Pairs the change wins; ties count for neither side."""
    return sum(1 for r, c in zip(ref, change) if better(c, r, direction))


def pair_ratios(ref, change):
    return [c / r if r else math.nan for r, c in zip(ref, change)]


def worse_by(ref_median, change_median, direction):
    """Relative amount by which the change's median is worse (<= 0: not
    worse)."""
    if ref_median == 0:
        return 0.0 if change_median == ref_median else math.inf
    delta = (change_median - ref_median) / abs(ref_median)
    return delta if direction == "lower" else -delta


def relative_iqr(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def bound_verdict(ref, change, direction, bound):
    _, ref_median, _ = quartiles(ref)
    _, change_median, _ = quartiles(change)
    if worse_by(ref_median, change_median, direction) > bound:
        return "regressed"
    all_better = all(better(c, r, direction) for c in change for r in ref)
    if not all_better and max(relative_iqr(ref), relative_iqr(change)) > bound:
        return "unresolved"
    return "ok"


def order_medians(pairs, name):
    """(median of the pairs' first runs, median of their second runs) of
    metric `name`; each pair names the side that ran first."""
    first, second = [], []
    for pair in pairs:
        later = "change" if pair["first"] == "ref" else "ref"
        first.append(pair[pair["first"]]["metrics"][name]["value"])
        second.append(pair[later]["metrics"][name]["value"])
    return statistics.median(first), statistics.median(second)


def claim_holds(ref, change, direction):
    """The gain rule: >= 9/10 pair wins and a median gap wider than REF's
    interquartile range, in the better direction."""
    q1, ref_median, q3 = quartiles(ref)
    _, change_median, _ = quartiles(change)
    enough_wins = wins(ref, change, direction) >= GAIN_WIN_SHARE * len(ref)
    gap = ref_median - change_median if direction == "lower" \
        else change_median - ref_median
    return enough_wins and gap > q3 - q1


# --- Running ------------------------------------------------------------

def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def export_ref(ref, scratch):
    sha = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "--verify",
                          ref + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    tree = os.path.join(scratch, "ref-" + sha[:12])
    done = os.path.join(tree, ".ab_exported")
    if not os.path.exists(done):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", REPO_ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % ref)
        open(done, "w").close()
    return sha, tree


def run_once(tree, target_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("ab: %s %s seed %d failed" % (tree, workload, seed))
    return json.loads(lines[-1])


def load_spec():
    """(run_seconds, metric -> better direction, end-to-end metric ->
    bound) from BENCHMARK.json."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return spec["run_seconds"], directions, bounds


def fmt(value):
    return "%.4g" % value


def report(runs, workloads, claims, directions, bounds):
    """Prints the per-workload tables; returns False when a gate fails."""
    ok = True
    for workload in workloads:
        pairs = [p for p in runs if p["workload"] == workload]
        print("\n== %s: %d pairs (seeds %s)" % (
            workload, len(pairs), ",".join(str(p["seed"]) for p in pairs)))
        for side in ("ref", "change"):
            attempted = sum(p[side]["attempted"] for p in pairs)
            failed = sum(p[side]["failed"] for p in pairs)
            incorrect = sum(1 for p in pairs if not p[side]["correct"])
            print("   %-6s failed %d / %d attempted, %d incorrect runs" % (
                side, failed, attempted, incorrect))
            ok = ok and incorrect == 0
        share = [sum(p[s]["failed"] for p in pairs) /
                 max(1, sum(p[s]["attempted"] for p in pairs))
                 for s in ("ref", "change")]
        if share[1] > share[0]:
            print("   FAILED SHARE GREW: %.3g -> %.3g" % tuple(share))
            ok = False
        names = [n for n in pairs[0]["ref"]["metrics"]
                 if n in pairs[0]["change"]["metrics"]]
        print("   %-28s %-28s %-28s %-9s %-6s %s" % (
            "metric", "ref median [q1 q3]", "change median [q1 q3]",
            "ratio", "wins", "verdict"))
        for name in names:
            ref = [p["ref"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            direction = directions.get(name, "lower")
            rq, cq = quartiles(ref), quartiles(change)
            ratio = statistics.median(pair_ratios(ref, change))
            verdict = ""
            if name in bounds:
                verdict = "%s (bound %g, worse by %+.1f%%)" % (
                    bound_verdict(ref, change, direction, bounds[name]),
                    bounds[name],
                    100 * worse_by(rq[1], cq[1], direction))
                ok = ok and not verdict.startswith("regressed")
            print("   %-28s %-28s %-28s %-9s %-6s %s" % (
                name,
                "%s [%s %s]" % (fmt(rq[1]), fmt(rq[0]), fmt(rq[2])),
                "%s [%s %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
                fmt(ratio), "%d/%d" % (wins(ref, change, direction),
                                       len(pairs)),
                verdict))
        print("   first-run vs second-run medians: " + ", ".join(
            "%s %s / %s" % ((name,) + tuple(map(fmt, order_medians(pairs,
                                                                   name))))
            for name in names if name in bounds))
        for claim in claims:
            metric, claim_workload = claim.split("@")
            if claim_workload != workload:
                continue
            ref = [p["ref"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            holds = claim_holds(ref, change, directions.get(metric, "lower"))
            print("   CLAIM %s: %s" % (claim, "MET" if holds else "NOT MET"))
            ok = ok and holds
    return ok


# --- Self-test ----------------------------------------------------------

def self_test():
    def close(a, b):
        return abs(a - b) < 1e-9

    # Quartiles by linear interpolation between order statistics.
    assert quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)
    assert all(close(a, b) for a, b in
               zip(quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25)))
    assert quartiles([7]) == (7, 7, 7)

    # Ten pairs of a lower-is-better metric: nine wins and one tie (index
    # 7) meet the gain rule; a further loss leaves eight, which does not.
    ref = [4.2, 4.3, 4.25, 4.28, 4.21, 4.32, 4.27, 4.3, 4.26, 4.24]
    change = [1.9, 1.88, 1.85, 1.92, 1.87, 1.9, 1.86, 4.3, 1.89, 1.91]
    assert wins(ref, change, "lower") == 9
    assert claim_holds(ref, change, "lower")
    change[1] = 4.4
    assert wins(ref, change, "lower") == 8
    assert not claim_holds(ref, change, "lower")
    # All wins but a gap inside REF's interquartile range: no claim.
    ref = [10, 12, 14, 16, 18, 10, 12, 14, 16, 18]
    change = [x - 1 for x in ref]
    assert wins(ref, change, "lower") == 10
    assert not claim_holds(ref, change, "lower")
    # Higher-is-better flips the direction.
    assert claim_holds([1.0] * 10, [2.0] * 10, "higher")
    assert not claim_holds([2.0] * 10, [1.0] * 10, "higher")

    # Bound verdicts.
    assert close(worse_by(2.0, 2.5, "lower"), 0.25)
    assert close(worse_by(100.0, 80.0, "higher"), 0.2)
    tight = [2.0, 2.01, 2.02, 1.99, 1.98]
    assert bound_verdict(tight, [2.4] * 5, "lower", 0.25) == "ok"
    assert bound_verdict(tight, [2.6] * 5, "lower", 0.25) == "regressed"
    wide = [1.0, 2.0, 3.0, 4.0, 5.0]  # IQR 2 on a median of 3
    assert bound_verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert bound_verdict(wide, [0.5] * 5, "lower", 0.25) == "ok"
    assert bound_verdict([150e3] * 4, [149e3] * 4, "higher", 0.25) == "ok"
    assert all(close(r, 0.5) for r in pair_ratios([2.0, 4.0], [1.0, 2.0]))
    assert parse_seeds("11-13,20") == [11, 12, 13, 20]

    # Order medians read each pair's first and second run, whichever side.
    def pair(first, ref, change):
        return {"first": first,
                "ref": {"metrics": {"m": {"value": ref}}},
                "change": {"metrics": {"m": {"value": change}}}}
    pairs = [pair("ref", 3.0, 2.0), pair("change", 1.0, 4.0),
             pair("ref", 5.0, 1.5)]
    assert order_medians(pairs, "m") == (4.0, 1.5)
    print("ab self-test: ok")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("ref", nargs="?")
    parser.add_argument("--workloads", default="inproc_closed,threads_rate,"
                        "tcp_rate")
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    parser.add_argument("--scratch",
                        default=os.path.join(tempfile.gettempdir(), "dsgm-ab"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.ref:
        parser.error("REF is required")

    run_seconds, directions, bounds = load_spec()
    workloads = [w for w in args.workloads.split(",") if w]
    for claim in args.claim:
        if "@" not in claim or claim.split("@")[1] not in workloads:
            parser.error("--claim %s names no workload being run" % claim)
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    sha, ref_tree = export_ref(args.ref, scratch)
    sides = {
        "ref": (ref_tree, os.path.join(scratch, "ref-%s-target" % sha[:12])),
        "change": (REPO_ROOT, os.path.join(scratch, "change-%s-target" % (
            hashlib.sha1(REPO_ROOT.encode()).hexdigest()[:12]))),
    }
    print("ab: ref %s (%s) vs the working tree at %s" % (
        args.ref, sha[:12], REPO_ROOT), flush=True)
    for side, (tree, target) in sides.items():
        print("ab: building %s side ..." % side, flush=True)
        run_once(tree, target, workloads[0], 1, 1, 0)

    runs = []
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = ("ref", "change") if index % 2 == 0 else ("change", "ref")
        for workload in workloads:
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            tree, target = sides[order[0]]
            run_once(tree, target, workload, seed, WARMUP_SECONDS, args.trace)
            for side in order:
                tree, target = sides[side]
                pair[side] = run_once(tree, target, workload, seed,
                                      run_seconds, args.trace)
            runs.append(pair)
            print("ab: %s seed %d done (%s first)" % (workload, seed,
                                                       order[0]), flush=True)
    ok = report(runs, workloads, args.claim, directions, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
