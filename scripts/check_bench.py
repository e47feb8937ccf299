#!/usr/bin/env python3
"""Bench-regression gate: fresh run vs committed BENCH_*.json baselines.

Usage:
  check_bench.py --baseline BENCH_kernels.json --fresh fresh.json \
                 [--tolerance 0.15] [--kind kernels|serve]

Compares a freshly generated benchmark artifact against the committed
baseline and exits non-zero when any tracked metric regressed by more
than the tolerance (default 15%). Two artifact kinds are understood:

  kernels  kernels_microbench --scaling-json output:
           {"results": [{"op", "threads", "ns_per_iter"}, ...]}
           keyed by (op, threads); ns_per_iter lower-is-better.

  serve    serve_throughput --json output:
           {"runs": [{"mode", "workers", "batch", ..., "achieved_vps",
                      "p50_s", ...}, ...]}
           keyed by (mode, workers, batch); achieved_vps
           higher-is-better, p50_s lower-is-better.

  shard    ccovid_serve --role front --shard-json output:
           {"shard_runs": [{"transport", "shards", "volumes",
                            "achieved_vps", "single_vps", "bitwise_match",
                            "lost", ...}, ...]}
           keyed by (transport, shards); achieved_vps higher-is-better.
           A fresh run with lost > 0 or bitwise_match false is a HARD
           failure regardless of tolerance — those are correctness
           invariants, not performance metrics.

  graph    kernels-shaped artifact, but gated on the fused-graph
           speedup invariant instead of per-row drift: at every thread
           count carrying both rows, ns_per_iter of
           ddnet_forward_128_module divided by ddnet_forward_128_fused
           must stay at or above --min-speedup (default 1.5 — the
           ISSUE floor; the committed artifact shows ~2.9x, so the
           default leaves headroom for CI noise). A missing row or a
           ratio below the floor is a HARD failure regardless of
           tolerance: the fused path paying for itself is a shipped
           claim, not a soft metric. Cannot be inferred from contents
           (same schema as kernels) — select it with --kind graph.

  lowprec  kernels_microbench --lowprec-json output:
           {"results": [{"op", "precision", "ns_per_iter",
                         "speedup_vs_f32", "ms_ssim_vs_f32"}, ...]}
           gated on the low-precision storage invariants, all HARD:
           every precision row must be present, fp16 must clear
           --min-speedup-f16 (default 1.2) and int8 --min-speedup-i8
           (default 1.5) over fp32 on ddnet_forward_128_fused, and
           MS-SSIM vs the fp32 output must stay above
           --min-ms-ssim-half / --min-ms-ssim-i8 (accuracy never gets
           noise slack). --floor-slack relaxes only the SPEED floors
           for fresh runs on noisy shared runners; the committed
           artifact is always gated at the full floors. speedup_vs_f32
           is the median of per-round paired ratios (see
           bench/kernels_microbench.cpp), so it is stable under
           machine-wide slowdowns that scale both sides.

  overlap  dist_overlap output:
           {"trace_overlap_frac": F,
            "dist_runs": [{"world", "collective", "bucket_kb",
                           "modeled_speedup", "bitwise_match", ...}, ...]}
           gated on the backward/allreduce-overlap invariants, all
           HARD (the baseline file plays no role): every row's
           bitwise_match must be true (overlapped gradient sync is
           bitwise-equal to reduce-after-backward — a correctness
           claim, not a metric), at least one world-4 row must clear
           --min-overlap-speedup (default 1.25 — the ISSUE floor; the
           committed artifact shows ~1.5x) on modeled_speedup, and
           trace_overlap_frac must be > 0 (the traced run really did
           reduce buckets while backward was producing gradients).
           The modeled numbers are deterministic (roofline +
           interconnect model), so no tolerance applies. Select with
           --kind overlap.

  monitor  monitor_stream --json output:
           {"monitor_runs": [{"mode", "achieved_vps", "hit_rate",
                              "stale_serves", "lost_deltas",
                              "duplicate_deltas", "delta_mismatches",
                              ...}, ...], "cached_speedup": S}
           keyed by mode. Correctness invariants are HARD regardless of
           tolerance: every fresh row must show stale_serves == 0 (a
           cache hit served bits a recomputation would not reproduce),
           lost_deltas == 0 and duplicate_deltas == 0 (every patient's
           scan ordinals exactly once), and delta_mismatches == 0. The
           cached row's hit_rate must clear --min-hit-rate (default
           0.4) and cached_speedup must clear --min-cache-speedup
           (default 1.15; hits skip the emulated device residency).
           achieved_vps additionally drifts against the baseline under
           the normal tolerance.

Rows present on only one side are reported but never fail the gate
(new ops appear, old ones retire — that is what updating the baseline
is for). The waiver / update flow is documented in EXPERIMENTS.md:
regenerate the artifact on an idle machine and commit it alongside the
change that moved the numbers, with the reason in the commit message.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def compare_rows(pairs, tolerance):
    """pairs: [(key, metric, baseline, fresh, lower_is_better)].

    Returns the failure count, printing one line per metric."""
    failures = 0
    for key, metric, base, fresh, lower in pairs:
        if base is None or fresh is None or base == 0:
            continue
        ratio = fresh / base
        # Normalize so regressed > 1 regardless of metric direction.
        regress = ratio if lower else 1.0 / ratio if ratio else float("inf")
        status = "ok"
        if regress > 1.0 + tolerance:
            status = "REGRESSED"
            failures += 1
        delta = (ratio - 1.0) * 100.0
        print(f"  {status:9s} {key} {metric}: {base:.6g} -> {fresh:.6g} "
              f"({delta:+.1f}%)")
    return failures


def check_kernels(baseline, fresh, tolerance):
    base_rows = {(r["op"], r["threads"]): r for r in baseline.get("results", [])}
    fresh_rows = {(r["op"], r["threads"]): r for r in fresh.get("results", [])}
    pairs = []
    for key in sorted(base_rows.keys() & fresh_rows.keys()):
        pairs.append((f"{key[0]}@t{key[1]}", "ns_per_iter",
                      base_rows[key]["ns_per_iter"],
                      fresh_rows[key]["ns_per_iter"], True))
    for key in sorted(base_rows.keys() - fresh_rows.keys()):
        print(f"  note: baseline-only row {key} (retired op?)")
    for key in sorted(fresh_rows.keys() - base_rows.keys()):
        print(f"  note: new row {key} (not yet in baseline)")
    return compare_rows(pairs, tolerance)


def check_serve(baseline, fresh, tolerance):
    def key(r):
        return (r.get("mode"), r.get("workers"), r.get("batch"))

    base_rows = {key(r): r for r in baseline.get("runs", [])}
    fresh_rows = {key(r): r for r in fresh.get("runs", [])}
    pairs = []
    for k in sorted(base_rows.keys() & fresh_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        label = f"{k[0]}/w{k[1]}/b{k[2]}"
        b, f = base_rows[k], fresh_rows[k]
        pairs.append((label, "achieved_vps", b.get("achieved_vps"),
                      f.get("achieved_vps"), False))
        pairs.append((label, "p50_s", b.get("p50_s"), f.get("p50_s"), True))
    for k in sorted(base_rows.keys() - fresh_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        print(f"  note: baseline-only run {k}")
    for k in sorted(fresh_rows.keys() - base_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        print(f"  note: new run {k} (not yet in baseline)")
    return compare_rows(pairs, tolerance)


def check_shard(baseline, fresh, tolerance):
    def key(r):
        return (r.get("transport"), r.get("shards"))

    base_rows = {key(r): r for r in baseline.get("shard_runs", [])}
    fresh_rows = {key(r): r for r in fresh.get("shard_runs", [])}
    failures = 0
    # Correctness invariants first: the sharded path must never lose a
    # request or diverge bitwise from the single-process server.
    for k in sorted(fresh_rows.keys(), key=lambda t: tuple(str(x) for x in t)):
        r = fresh_rows[k]
        label = f"{k[0]}/s{k[1]}"
        if r.get("lost", 0):
            print(f"  INVARIANT {label}: lost={r['lost']} (must be 0)")
            failures += 1
        if not r.get("bitwise_match", True):
            print(f"  INVARIANT {label}: bitwise_match=false "
                  f"(sharded output diverged from single-process)")
            failures += 1
    pairs = []
    for k in sorted(base_rows.keys() & fresh_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        label = f"{k[0]}/s{k[1]}"
        pairs.append((label, "achieved_vps",
                      base_rows[k].get("achieved_vps"),
                      fresh_rows[k].get("achieved_vps"), False))
    for k in sorted(base_rows.keys() - fresh_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        print(f"  note: baseline-only run {k}")
    for k in sorted(fresh_rows.keys() - base_rows.keys(),
                    key=lambda t: tuple(str(x) for x in t)):
        print(f"  note: new run {k} (not yet in baseline)")
    return failures + compare_rows(pairs, tolerance)


def check_monitor(baseline, fresh, tolerance, min_hit_rate,
                  min_cache_speedup):
    """Monitoring-mode gate: hard correctness invariants on the fresh
    artifact (stale bits / delta accounting), hard floors on hit rate
    and cached speedup, soft vps drift against the baseline."""
    base_rows = {r.get("mode"): r for r in baseline.get("monitor_runs", [])}
    fresh_rows = {r.get("mode"): r for r in fresh.get("monitor_runs", [])}
    failures = 0
    if "cached" not in fresh_rows:
        print("  INVARIANT no 'cached' monitor_runs row — monitor gate has "
              "nothing to check (bench renamed without updating the gate?)")
        return 1
    for mode in sorted(fresh_rows):
        r = fresh_rows[mode]
        for metric in ("stale_serves", "lost_deltas", "duplicate_deltas",
                       "delta_mismatches"):
            v = r.get(metric, 0)
            if v:
                print(f"  INVARIANT {mode}: {metric}={v} (must be 0)")
                failures += 1
            else:
                print(f"  ok        {mode}: {metric}=0")
    hit_rate = fresh_rows["cached"].get("hit_rate", 0.0)
    status = "ok" if hit_rate >= min_hit_rate else "INVARIANT"
    failures += status != "ok"
    print(f"  {status:9s} cached: hit_rate = {hit_rate:.3f} "
          f"(floor {min_hit_rate:.2f})")
    speedup = fresh.get("cached_speedup")
    if speedup is None:
        print("  INVARIANT cached_speedup missing")
        failures += 1
    else:
        status = "ok" if speedup >= min_cache_speedup else "INVARIANT"
        failures += status != "ok"
        print(f"  {status:9s} cached_speedup = {speedup:.2f}x "
              f"(floor {min_cache_speedup:.2f}x)")
    pairs = []
    for mode in sorted(base_rows.keys() & fresh_rows.keys()):
        pairs.append((mode, "achieved_vps",
                      base_rows[mode].get("achieved_vps"),
                      fresh_rows[mode].get("achieved_vps"), False))
    for mode in sorted(base_rows.keys() - fresh_rows.keys()):
        print(f"  note: baseline-only run {mode}")
    return failures + compare_rows(pairs, tolerance)


def check_graph(fresh, min_speedup):
    """Fused-graph speedup floor over a fresh kernels-shaped artifact.

    The baseline plays no role here: the gate is absolute, not
    relative. Both rows must exist (a silently retired bench row would
    otherwise turn the gate into a no-op) and module/fused must clear
    the floor at every thread count measured."""
    rows = {(r["op"], r["threads"]): r["ns_per_iter"]
            for r in fresh.get("results", [])}
    threads = sorted({t for (op, t) in rows
                      if op in ("ddnet_forward_128_module",
                                "ddnet_forward_128_fused")})
    failures = 0
    if not threads:
        print("  INVARIANT missing both ddnet_forward_128_module and "
              "ddnet_forward_128_fused rows — graph gate has nothing "
              "to check (bench renamed without updating the gate?)")
        return 1
    for t in threads:
        module = rows.get(("ddnet_forward_128_module", t))
        fused = rows.get(("ddnet_forward_128_fused", t))
        if module is None or fused is None:
            missing = "module" if module is None else "fused"
            print(f"  INVARIANT t{t}: ddnet_forward_128_{missing} row "
                  f"missing (must be present)")
            failures += 1
            continue
        ratio = module / fused if fused else float("inf")
        status = "ok" if ratio >= min_speedup else "INVARIANT"
        failures += status != "ok"
        print(f"  {status:9s} t{t}: module/fused = {module:.6g}/{fused:.6g} "
              f"= {ratio:.2f}x (floor {min_speedup:.2f}x)")
    return failures


def check_lowprec(fresh, args):
    """Low-precision storage floors over a lowprec artifact (absolute,
    like the graph kind; the baseline file plays no role)."""
    rows = {r.get("precision"): r for r in fresh.get("results", [])
            if r.get("op") == "ddnet_forward_128_fused"}
    failures = 0
    for prec in ("fp32", "fp16", "bf16", "int8"):
        if prec not in rows:
            print(f"  INVARIANT {prec}: ddnet_forward_128_fused row "
                  f"missing (bench renamed without updating the gate?)")
            failures += 1
    slack = max(0.0, min(args.floor_slack, 0.5))
    for prec, floor in (("fp16", args.min_speedup_f16),
                        ("int8", args.min_speedup_i8)):
        r = rows.get(prec)
        if r is None:
            continue
        speedup = r.get("speedup_vs_f32")
        eff = floor * (1.0 - slack)
        if speedup is None:
            print(f"  INVARIANT {prec}: speedup_vs_f32 missing")
            failures += 1
            continue
        status = "ok" if speedup >= eff else "INVARIANT"
        failures += status != "ok"
        note = f" (slack-adjusted from {floor:.2f}x)" if slack else ""
        print(f"  {status:9s} {prec}: speedup_vs_f32 = {speedup:.3f}x "
              f"(floor {eff:.2f}x{note})")
    if "bf16" in rows and rows["bf16"].get("speedup_vs_f32") is not None:
        print(f"  note      bf16: speedup_vs_f32 = "
              f"{rows['bf16']['speedup_vs_f32']:.3f}x (informational; "
              f"no committed floor)")
    for prec, floor in (("fp16", args.min_ms_ssim_half),
                        ("bf16", args.min_ms_ssim_half),
                        ("int8", args.min_ms_ssim_i8)):
        r = rows.get(prec)
        if r is None:
            continue
        ssim = r.get("ms_ssim_vs_f32")
        if ssim is None:
            print(f"  INVARIANT {prec}: ms_ssim_vs_f32 missing")
            failures += 1
            continue
        status = "ok" if ssim >= floor else "INVARIANT"
        failures += status != "ok"
        print(f"  {status:9s} {prec}: ms_ssim_vs_f32 = {ssim:.6f} "
              f"(floor {floor:.4f}, no slack)")
    return failures


def check_overlap(fresh, min_speedup):
    """Backward/allreduce overlap invariants over a fresh dist artifact
    (absolute, like the graph kind; the baseline file plays no role)."""
    rows = fresh.get("dist_runs", [])
    failures = 0
    if not rows:
        print("  INVARIANT no dist_runs rows — overlap gate has nothing "
              "to check (bench renamed without updating the gate?)")
        return 1
    best_w4 = None
    for r in rows:
        label = (f"w{r.get('world')}/{r.get('collective')}/"
                 f"{r.get('bucket_kb')}KB")
        if not r.get("bitwise_match", False):
            print(f"  INVARIANT {label}: bitwise_match=false (overlapped "
                  f"sync diverged from sequential reduction)")
            failures += 1
        if r.get("world") == 4:
            sp = r.get("modeled_speedup")
            if sp is not None and (best_w4 is None or sp > best_w4):
                best_w4 = sp
    if best_w4 is None:
        print("  INVARIANT no world-4 row with modeled_speedup present")
        failures += 1
    else:
        status = "ok" if best_w4 >= min_speedup else "INVARIANT"
        failures += status != "ok"
        print(f"  {status:9s} best world-4 modeled_speedup = {best_w4:.2f}x "
              f"(floor {min_speedup:.2f}x)")
    frac = fresh.get("trace_overlap_frac")
    if frac is None or frac <= 0:
        print(f"  INVARIANT trace_overlap_frac = {frac} (must be > 0: the "
              f"traced run showed no allreduce time concurrent with "
              f"backward)")
        failures += 1
    else:
        print(f"  ok        trace_overlap_frac = {frac:.2f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json to compare against")
    ap.add_argument("--fresh", required=True,
                    help="artifact produced by this run")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--kind",
                    choices=["kernels", "serve", "shard", "graph",
                             "lowprec", "overlap", "monitor"],
                    default=None,
                    help="artifact schema; inferred from contents if omitted "
                         "(graph and lowprec must be selected explicitly)")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="graph kind: hard floor on the "
                         "module/fused ns_per_iter ratio (default 1.5)")
    ap.add_argument("--min-hit-rate", type=float, default=0.4,
                    help="monitor kind: hard floor on the cached run's "
                         "result-cache hit rate (default 0.4)")
    ap.add_argument("--min-cache-speedup", type=float, default=1.15,
                    help="monitor kind: hard floor on cached vs uncached "
                         "throughput (default 1.15)")
    ap.add_argument("--min-overlap-speedup", type=float, default=1.25,
                    help="overlap kind: hard floor on the best world-4 "
                         "modeled_speedup (default 1.25)")
    ap.add_argument("--min-speedup-f16", type=float, default=1.2,
                    help="lowprec kind: fp16-over-fp32 speedup floor")
    ap.add_argument("--min-speedup-i8", type=float, default=1.5,
                    help="lowprec kind: int8-over-fp32 speedup floor")
    ap.add_argument("--min-ms-ssim-half", type=float, default=0.995,
                    help="lowprec kind: fp16/bf16 MS-SSIM-vs-fp32 floor")
    ap.add_argument("--min-ms-ssim-i8", type=float, default=0.99,
                    help="lowprec kind: int8 MS-SSIM-vs-fp32 floor")
    ap.add_argument("--floor-slack", type=float, default=0.0,
                    help="lowprec kind: fractional slack applied to the "
                         "SPEED floors only (fresh runs on shared "
                         "runners); accuracy floors never get slack")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    kind = args.kind
    if kind is None:
        if "monitor_runs" in baseline:
            kind = "monitor"
        elif "shard_runs" in baseline:
            kind = "shard"
        elif "runs" in baseline:
            kind = "serve"
        else:
            kind = "kernels"

    if kind == "graph":
        print(f"check_bench: graph artifact, speedup floor "
              f"{args.min_speedup:.2f}x")
    elif kind == "overlap":
        print(f"check_bench: overlap artifact, world-4 speedup floor "
              f"{args.min_overlap_speedup:.2f}x")
    elif kind == "monitor":
        print(f"check_bench: monitor artifact, hit-rate floor "
              f"{args.min_hit_rate:.2f}, cache-speedup floor "
              f"{args.min_cache_speedup:.2f}x, tolerance "
              f"{args.tolerance:.0%}")
    elif kind == "lowprec":
        print(f"check_bench: lowprec artifact, floors fp16 "
              f"{args.min_speedup_f16:.2f}x / int8 "
              f"{args.min_speedup_i8:.2f}x, floor slack "
              f"{args.floor_slack:.0%}")
    else:
        print(f"check_bench: {kind} artifact, tolerance {args.tolerance:.0%}")
    print(f"  baseline: {args.baseline}")
    print(f"  fresh   : {args.fresh}")
    if kind == "kernels":
        failures = check_kernels(baseline, fresh, args.tolerance)
    elif kind == "shard":
        failures = check_shard(baseline, fresh, args.tolerance)
    elif kind == "graph":
        failures = check_graph(fresh, args.min_speedup)
    elif kind == "lowprec":
        failures = check_lowprec(fresh, args)
    elif kind == "overlap":
        failures = check_overlap(fresh, args.min_overlap_speedup)
    elif kind == "monitor":
        failures = check_monitor(baseline, fresh, args.tolerance,
                                 args.min_hit_rate, args.min_cache_speedup)
    else:
        failures = check_serve(baseline, fresh, args.tolerance)

    if failures:
        if kind == "graph":
            print(f"check_bench: FAILED — {failures} graph invariant(s) "
                  f"violated (fused speedup floor "
                  f"{args.min_speedup:.2f}x).")
        elif kind == "lowprec":
            print(f"check_bench: FAILED — {failures} low-precision "
                  f"invariant(s) violated (speed floors fp16 "
                  f"{args.min_speedup_f16:.2f}x / int8 "
                  f"{args.min_speedup_i8:.2f}x, MS-SSIM floors "
                  f"{args.min_ms_ssim_half:.4f} / "
                  f"{args.min_ms_ssim_i8:.4f}).")
        elif kind == "monitor":
            print(f"check_bench: FAILED — {failures} monitoring "
                  f"invariant(s) or metric(s) violated (stale bits and "
                  f"delta accounting are hard; hit-rate floor "
                  f"{args.min_hit_rate:.2f}, speedup floor "
                  f"{args.min_cache_speedup:.2f}x).")
        else:
            print(f"check_bench: FAILED — {failures} metric(s) regressed "
                  f"more than {args.tolerance:.0%}.")
        print("If the regression is expected, regenerate the baseline and "
              "commit it (see EXPERIMENTS.md, 'Bench gate').")
        return 1
    print("check_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
