/**
 * @file
 * Trace-driven what-if engine (ROADMAP item 3, §5.13).
 *
 * The paper's premise is that mini-batches are predictable, so
 * measurements are reusable. This module takes the next step (after
 * Daydream, arXiv 2006.03318): the *schedule simulation itself* is
 * reusable. Given a candidate ScheduleConfig, the engine builds its
 * plan, compiles it to the same command stream the dispatcher would
 * issue (compile_plan, gated bit-identical in CI), and runs the
 * event-ordering simulation on the host with timing-only kernels —
 * ranking a candidate in microseconds instead of spending a measured
 * mini-batch on it. At base clock with faults disarmed this replay is
 * bit-exact against a real dispatch, which is what lets the wirer
 * replay its exploration walk without giving up its exhaustive-identical
 * answer.
 */
#pragma once

#include <map>
#include <string>

#include "core/scheduler.h"
#include "sim/gpu.h"

namespace astra {

/** Knobs for the what-if decision path (wirer `whatif` mode). */
struct WhatIfOptions
{
    /** Master switch; off keeps the wirer on measured exploration. */
    bool enabled = false;
};

/** Host-replay outcome: the same metrics a DispatchResult carries. */
struct ReplayResult
{
    double total_ns = 0.0;
    std::map<std::string, double> profile_ns;
};

/**
 * The evaluator: builds and simulates hypothetical configs on the
 * host. One engine per StrategyRun shard — it holds references to that
 * strategy's graph/tensor-map/scheduler and a sanitized device model
 * (faults disarmed, base clock, timing-only kernels).
 */
class WhatIfEngine
{
  public:
    WhatIfEngine(const Graph& graph, const TensorMap& tmap,
                 const Scheduler& scheduler, const GpuConfig& gpu);

    /** Rank one candidate: exact simulated metrics, no mini-batch. */
    ReplayResult evaluate(const ScheduleConfig& config) const;

  private:
    const Graph& graph_;
    const TensorMap& tmap_;
    const Scheduler& scheduler_;
    GpuConfig gpu_;
};

}  // namespace astra
