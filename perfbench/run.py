#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gnmt --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/astra_perfbench from
the checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload in a private plan store with the ASTRA_* environment
cleared, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer rollup with
--trace 1. Exits non-zero, printing no result, if the build or the
workload fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import rollup  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gnmt", "fleet_serve")
# Wall budget of the astra_perfbench processes of one run, after the build.
RUN_BUDGET_S = 170

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wire_s", "s"),
    ("whatif_wire_s", "s"),
    ("warm_wire_s", "s"),
    ("explore_minibatches", "count"),
    ("whatif_minibatches", "count"),
    ("step_sim_ms", "sim_ms"),
    ("step_host_p50_us", "us"),
    ("step_host_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("serve_p50_ms", "sim_ms"),
    ("serve_p99_ms", "sim_ms"),
    ("slo_attainment", "ratio"),
    ("max_load_at_slo", "x_capacity"),
    ("overload_goodput_rps", "sim_req/s"),
    ("serve_host_us_per_req", "us"),
)

# (name, unit, source, key) of every per-layer metric. Sources: a span
# rollup field ("span", "<name>.<field>"), an obs counter, a scalar the
# workload computed, the median of a sample series, or "derived".
PER_LAYER = (
    ("models.build_model.total_s", "s", "span", None),
    ("core.session_init.total_s", "s", "span", None),
    ("serve.fleet.init.total_s", "s", "span", None),
    ("enumerate_search_space.total_s", "s", "span", None),
    ("tensor_map.plan.count", "count", "span", None),
    ("tensor_map.plan.total_s", "s", "span", None),
    ("scheduler.build.count", "count", "span", None),
    ("scheduler.build.self_s", "s", "span", None),
    ("scheduler.build_units.count", "count", "span", None),
    ("scheduler.build_units.total_s", "s", "span", None),
    ("scheduler.stream_space.count", "count", "span", None),
    ("scheduler.stream_space.total_s", "s", "span", None),
    ("scheduler.plan_cache.hit_rate", "ratio", "derived", None),
    ("scheduler.plan_cache.lookups", "count", "derived", None),
    ("wirer.stage.chunks.total_s", "s", "span", None),
    ("wirer.stage.libs.total_s", "s", "span", None),
    ("wirer.stage.streams.total_s", "s", "span", None),
    ("wirer.strategy.total_s", "s", "span", None),
    ("wirer.explore.self_s", "s", "span", None),
    ("wire.minibatches", "count", "counter", "wire.minibatches"),
    ("dispatch_plan.count", "count", "span", None),
    ("dispatch_plan.total_s", "s", "span", None),
    ("wired.lower.count", "count", "span", None),
    ("wired.lower.total_s", "s", "span", None),
    ("wired.replay.count", "count", "span", None),
    ("wired.replay.total_s", "s", "span", None),
    ("wired.enqueue_p50_us", "us", "median", "enqueue_us"),
    ("sim.kernels_per_step", "count", "scalar", "sim.kernels_per_step"),
    ("sim.host_us_per_step", "us", "median", "step_minus_enqueue_us"),
    ("whatif.evals", "count", "scalar", "whatif.evals"),
    ("whatif.measured_configs", "count", "scalar", "whatif.measured_configs"),
    ("predictor.pruned", "count", "scalar", "predictor.pruned"),
    ("profile_index.records", "count", "counter", "profile_index.records"),
    ("profile_index.hits", "count", "counter", "profile_index.hits"),
    ("profile_index.misses", "count", "counter", "profile_index.misses"),
    ("plan_store.warm_tier", "rank", "scalar", "plan_store.warm_tier"),
    ("plan_store.warm_minibatches", "count", "scalar", "plan_store.warm_minibatches"),
    ("session.store_l1_hits", "count", "counter", "session.store_l1_hits"),
    ("session.store_drift_demotions", "count", "counter", "session.store_drift_demotions"),
    ("serve.generate_traffic.total_s", "s", "span", None),
    ("serve.fleet.optimize.total_s", "s", "span", None),
    ("serve.fleet.loop.self_s", "s", "span", None),
    ("serve.batch.count", "count", "span", None),
    ("serve.batch.total_s", "s", "span", None),
    ("serve.mean_batch_occupancy", "req/batch", "scalar", "serve.mean_batch_occupancy"),
    ("serve.padded_token_frac", "ratio", "scalar", "serve.padded_token_frac"),
    ("serve.rewire.count", "count", "span", None),
    ("serve.rewire.total_s", "s", "span", None),
    ("serve.swaps", "count", "counter", "serve.swaps"),
    ("serve.failover.retries", "count", "counter", "serve.failover.retries"),
    ("serve.failover.evicted", "count", "counter", "serve.failover.evicted"),
    ("serve.failover.shed", "count", "counter", "serve.failover.shed"),
    ("serve.failover.deaths", "count", "counter", "serve.failover.deaths"),
    ("serve.rejected", "count", "counter", "serve.rejected"),
    ("obs.trace_overhead_frac", "ratio", "derived", None),
    ("obs.unattributed_frac", "ratio", "derived", None),
    ("obs.dropped_kernel_spans", "count", "counter", "obs.dropped_kernel_spans"),
)

# Simulated-clock results that must not depend on tracing.
SIM_SCALARS = (
    "explore_minibatches", "whatif_minibatches", "step_sim_ms", "serve_p50_ms", "serve_p99_ms",
    "slo_attainment", "max_load_at_slo", "overload_goodput_rps",
    "whatif.evals", "whatif.measured_configs", "sim.kernels_per_step",
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build astra_perfbench; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "astra_perfbench"],
        check=True, stdout=sys.stderr, timeout=1200)
    return os.path.join(build_dir, "astra_perfbench")


def run_workload(exe, work_dir, args, trace, pass_only, deadline):
    """One astra_perfbench process in a fresh private store; returns its
    Record plus the host-noise context of the process."""
    store = os.path.join(work_dir, "store")
    out = os.path.join(work_dir, "out.tsv")
    shutil.rmtree(store, ignore_errors=True)
    # The library defaults read these; astra_perfbench pins them too.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASTRA_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--store", store, "--out", out]
    if pass_only:
        cmd.append("--pass-only")
    load_before = os.getloadavg()
    t0 = time.monotonic()
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    wall = time.monotonic() - t0
    load_after = os.getloadavg()
    with open(out) as f:
        rec = rollup.parse(f.read())
    context = {
        "trace": int(trace),
        "wall_s": round(wall, 3),
        "cpu_s": rec.scalars["cpu_s"],
        "loadavg_before": load_before[0],
        "loadavg_after": load_after[0],
    }
    return rec, context


def serve_host_us_per_req(rec):
    """Host wall of serving every load once, per request offered: the
    sum over loads of the fastest of that load's serve() calls, divided
    by the requests offered across the loads."""
    loads = sorted(k for k in rec.samples if k.startswith("serve_host_s.load"))
    wall_s = sum(min(rec.samples[k]) for k in loads)
    offered = sum(rec.scalars["serve.load%s.offered" % k.rsplit("load", 1)[1]]
                  for k in loads)
    return wall_s * 1e6 / offered


def end_to_end(rec):
    """Host times are the fastest sample of the run (percentiles of the
    fast windows for steady steps); setup_s is the median of the run's
    setups."""
    s, samples = rec.scalars, rec.samples
    steps, ends = samples["step_host_us"], samples["step_window_ends"]
    values = {
        "setup_s": rollup.median(samples["setup_s"]),
        "wire_s": min(samples["wire_s"]),
        "whatif_wire_s": min(samples["whatif_wire_s"]),
        "warm_wire_s": min(samples["warm_wire_s"]),
        "step_host_p50_us": rollup.fast_state_percentile(steps, ends, 50),
        "step_host_p90_us": rollup.fast_state_percentile(steps, ends, 90),
        "serve_host_us_per_req": serve_host_us_per_req(rec),
    }
    for name, _ in END_TO_END:
        if name not in values:
            values[name] = s[name]
    return values


def per_layer(traced, untraced):
    spans = rollup.rollup(traced.spans)
    c = traced.counters
    hits = c.get("scheduler.plan_cache.hits", 0)
    lookups = hits + c.get("scheduler.plan_cache.misses", 0)
    start, end = traced.scalars["pass_start_ns"], traced.scalars["pass_end_ns"]
    derived = {
        "scheduler.plan_cache.hit_rate": hits / lookups if lookups else 0.0,
        "scheduler.plan_cache.lookups": lookups,
        "obs.trace_overhead_frac": traced.scalars["pass_s"] / untraced.scalars["pass_s"] - 1.0,
        "obs.unattributed_frac": 1.0 - rollup.covered_ns(traced.spans, start, end) / (end - start),
    }
    values = {}
    for name, _, source, key in PER_LAYER:
        if source == "span":
            base, field = name.rsplit(".", 1)
            values[name] = spans.get(base, {}).get(field, 0)
        elif source == "counter":
            values[name] = c.get(key, 0)
        elif source == "scalar":
            values[name] = traced.scalars[key]
        elif source == "median":
            values[name] = rollup.median(traced.samples[key])
        else:
            values[name] = derived[name]
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work_dir = os.path.join(build_dir, "perfbench-run-%d" % os.getpid())
    try:
        exe = build(os.path.join(build_dir, "perfbench"))
        os.makedirs(work_dir)
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            # Untraced pass first: the base of the trace overhead and the
            # reference the traced simulated-clock results must equal.
            untraced, ctx0 = run_workload(exe, work_dir, args, False, True, deadline)
            traced, ctx1 = run_workload(exe, work_dir, args, True, True, deadline)
            recs, contexts = [untraced, traced], [ctx0, ctx1]
            metrics = per_layer(traced, untraced)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            same = all(untraced.scalars.get(k) == traced.scalars.get(k)
                       for k in SIM_SCALARS)
            extra_failures = [] if same else [("trace.sim_bit_identical", False, "")]
        else:
            rec, ctx = run_workload(exe, work_dir, args, False, False, deadline)
            recs, contexts = [rec], [ctx]
            metrics = end_to_end(rec)
            units = dict(END_TO_END)
            extra_failures = []
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [c for r in recs for c in r.failed_checks()] + extra_failures
    for name, _, detail in failures:
        log("perfbench: check failed: %s %s" % (name, detail))
    attempted = int(sum(r.scalars["attempted"] for r in recs))
    failed = int(sum(r.scalars["failed"] for r in recs)) + len(extra_failures)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host_context": contexts}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
