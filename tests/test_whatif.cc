/**
 * @file
 * What-if engine tests (§5.13): host replay must be bit-exact against
 * a real dispatch of the same configuration (that equivalence is what
 * lets the wirer rank candidates without spending mini-batches), and
 * the armed wirer must converge to the exhaustive wirer's configuration
 * — deterministically across thread counts — while reporting its
 * replay and measurement counters through JSON and CSV.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/astra.h"
#include "core/whatif.h"
#include "models/models.h"
#include "runtime/dispatcher.h"
#include "sim/memory.h"

namespace astra {
namespace {

/** Replay exactness is a base-clock, fault-free property. */
GpuConfig
pinned_gpu()
{
    GpuConfig g;
    g.execute_kernels = false;
    g.autoboost = false;
    g.faults = FaultPlan();
    return g;
}

BuiltModel
tiny_model()
{
    return build_model(ModelKind::Scrnn,
                       ModelConfig{.batch = 8, .seq_len = 4,
                                   .hidden = 32, .embed_dim = 32,
                                   .vocab = 50});
}

/** Everything one engine evaluation needs, wired like a StrategyRun. */
struct EngineRig
{
    BuiltModel model = tiny_model();
    SearchSpace space = enumerate_search_space(model.graph());
    Scheduler sched;
    SimMemory mem;
    TensorMap tmap;
    GpuConfig gpu = pinned_gpu();
    WhatIfEngine engine;

    EngineRig()
        : sched(model.graph(), space,
                [] {
                    SchedulerOptions o;
                    o.super_epoch_ns = 400000.0;
                    return o;
                }()),
          mem(graph_tensor_bytes(model.graph()) + (1 << 20), false),
          tmap(model.graph(), mem, space.strategies[0].runs),
          engine(model.graph(), tmap, sched, gpu)
    {
    }

    ScheduleConfig
    config(bool with_streams) const
    {
        ScheduleConfig cfg;
        cfg.strategy = 0;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (NodeId id : space.single_mms)
            cfg.single_lib[id] = GemmLib::Cublas;
        // Keyed steps exercise the profile-metric side of the replay.
        if (!space.groups.empty())
            cfg.group_keys[space.groups[0].id] = "t|g0";
        if (!space.single_mms.empty())
            cfg.single_keys[space.single_mms[0]] = "t|s0";
        cfg.use_streams = with_streams;
        return cfg;
    }
};

void
expect_replay_matches_dispatch(const EngineRig& rig,
                               const ScheduleConfig& cfg)
{
    const ReplayResult r = rig.engine.evaluate(cfg);
    const DispatchResult d =
        dispatch_plan(*rig.sched.build_cached(cfg), rig.model.graph(),
                      rig.tmap, rig.gpu);
    EXPECT_EQ(r.total_ns, d.total_ns);
    ASSERT_EQ(r.profile_ns.size(), d.profile_ns.size());
    for (const auto& [key, v] : d.profile_ns) {
        const auto it = r.profile_ns.find(key);
        ASSERT_NE(it, r.profile_ns.end()) << "missing key " << key;
        EXPECT_EQ(v, it->second) << "profile key " << key;
    }
}

// ---- replay exactness ----------------------------------------------------

TEST(WhatIf, SerialReplayBitExactAgainstDispatch)
{
    EngineRig rig;
    expect_replay_matches_dispatch(rig, rig.config(false));
}

TEST(WhatIf, StreamedReplayBitExactAgainstDispatch)
{
    EngineRig rig;
    expect_replay_matches_dispatch(rig, rig.config(true));
}

// ---- the armed wirer -----------------------------------------------------

TEST(WhatIf, ArmedWirerMatchesExhaustiveConfigWithFewerMinibatches)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;

    AstraSession off_session(model.graph(), opts);
    const WirerResult off = off_session.optimize();
    EXPECT_EQ(off.convergence.whatif_evals, 0);

    opts.whatif.enabled = true;
    AstraSession on_session(model.graph(), opts);
    const WirerResult on = on_session.optimize();

    EXPECT_EQ(config_to_string(on.best_config),
              config_to_string(off.best_config));
    EXPECT_EQ(on.best_ns, off.best_ns);
    EXPECT_GT(on.convergence.whatif_evals, 0);
    EXPECT_GT(on.convergence.measured_configs, 0);
    EXPECT_LT(on.minibatches, off.minibatches);
}

TEST(WhatIf, ArmedWirerDeterministicAcrossThreadCounts)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;
    opts.whatif.enabled = true;

    AstraSession serial(model.graph(), opts);
    const WirerResult one = serial.optimize();
    opts.wirer_threads = 4;
    AstraSession fanned(model.graph(), opts);
    const WirerResult four = fanned.optimize();

    EXPECT_EQ(config_to_string(four.best_config),
              config_to_string(one.best_config));
    EXPECT_EQ(four.minibatches, one.minibatches);
    EXPECT_EQ(four.convergence.whatif_evals,
              one.convergence.whatif_evals);
    EXPECT_EQ(four.convergence.measured_configs,
              one.convergence.measured_configs);
}

// ---- counter reporting ---------------------------------------------------

TEST(WhatIf, CountersSurfaceInJsonAndCsv)
{
    const BuiltModel model = tiny_model();
    AstraOptions opts;
    opts.gpu = pinned_gpu();
    opts.sched.super_epoch_ns = 400000.0;
    opts.whatif.enabled = true;
    AstraSession session(model.graph(), opts);
    const WirerResult r = session.optimize();
    ASSERT_GT(r.convergence.whatif_evals, 0);

    std::ostringstream js;
    r.convergence.write_json(js);
    const std::string json = js.str();
    EXPECT_NE(json.find("\"whatif_evals\":" +
                        std::to_string(r.convergence.whatif_evals)),
              std::string::npos);
    EXPECT_EQ(json.find("predictor_pruned"), std::string::npos);
    EXPECT_NE(json.find("\"measured_configs\":" +
                        std::to_string(r.convergence.measured_configs)),
              std::string::npos);

    std::ostringstream csv;
    r.convergence.write_csv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("whatif_evals,measured_configs\n"),
              std::string::npos);
}

}  // namespace
}  // namespace astra
