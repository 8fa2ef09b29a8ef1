#include "core/whatif.h"

#include <utility>

#include "obs/obs.h"
#include "runtime/dispatcher.h"
#include "runtime/executor.h"
#include "runtime/wired.h"

namespace astra {

namespace {

/**
 * Strip the device model down to a deterministic timing oracle: no
 * host compute, no fault draws, base clock. Replay exactness (and with
 * it the wirer's identity guarantee) holds against measurements taken
 * under the same conditions; the wirer's arming predicate enforces
 * that on the measuring side.
 */
GpuConfig
sanitize_device(const GpuConfig& gpu)
{
    GpuConfig g = gpu;
    g.execute_kernels = false;
    g.collect_trace = false;
    g.autoboost = false;
    g.forced_clock_multiplier = 0.0;
    g.faults = FaultPlan{};
    g.fault_salt = 0;
    return g;
}

ReplayResult
run_program(const WiredProgram& prog,
            const std::vector<KernelDesc>& kernels, const GpuConfig& cfg)
{
    SimGpu gpu(cfg);
    for (int s = 1; s < prog.num_streams; ++s)
        gpu.create_stream();
    std::vector<EventId> events(static_cast<size_t>(prog.num_events));
    for (int32_t e = 0; e < prog.num_events; ++e)
        events[static_cast<size_t>(e)] = gpu.create_event();
    // The exact command walk of replay_wired, which is gated
    // bit-identical to the generic dispatcher in CI — the replay and a
    // real dispatch diverge by construction nowhere.
    for (const WiredCmd& cmd : prog.cmds) {
        switch (cmd.op) {
          case WiredOp::Launch:
            gpu.launch(cmd.stream, kernels[static_cast<size_t>(cmd.arg)]);
            break;
          case WiredOp::Record:
            gpu.record_event(cmd.stream,
                             events[static_cast<size_t>(cmd.arg)]);
            break;
          case WiredOp::Wait:
            gpu.wait_event(cmd.stream,
                           events[static_cast<size_t>(cmd.arg)]);
            break;
        }
    }
    gpu.synchronize();

    DispatchResult dres;
    collect_wired_profiles(prog, events, gpu, dres);
    ReplayResult r;
    r.total_ns = gpu.now_ns();
    r.profile_ns = std::move(dres.profile_ns);
    return r;
}

}  // namespace

WhatIfEngine::WhatIfEngine(const Graph& graph, const TensorMap& tmap,
                           const Scheduler& scheduler,
                           const GpuConfig& gpu)
    : graph_(graph), tmap_(tmap), scheduler_(scheduler),
      gpu_(sanitize_device(gpu))
{
}

ReplayResult
WhatIfEngine::evaluate(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "whatif.evaluate");
    // The plan cache includes the profiling-key attachments in its
    // signature, so what-if sweeps that revisit a lowering (ambiguity
    // re-replays, co-varied walks) skip the scheduler entirely.
    const std::shared_ptr<const ExecutionPlan> plan =
        scheduler_.build_cached(config);
    const WiredProgram prog =
        compile_plan(*plan, graph_, /*profiling=*/true);
    std::vector<KernelDesc> kernels(plan->steps.size());
    for (size_t i = 0; i < plan->steps.size(); ++i)
        if (plan->steps[i].kind != StepKind::Barrier)
            kernels[i] = build_step_kernel(plan->steps[i], graph_,
                                           tmap_, gpu_);
    return run_program(prog, kernels, gpu_);
}

}  // namespace astra
