/**
 * @file
 * Randomized structural testing: generate random dataflow graphs
 * (seeded, reproducible), push them through the full pipeline —
 * enumerate, schedule under random configurations, dispatch with
 * values — and check the global invariants: every plan covers every
 * node exactly once in topological order, and every configuration is
 * bit-identical to the native dispatch. This is where grouping edge
 * cases the hand-written models never produce get caught.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "autodiff/autodiff.h"
#include "core/astra.h"
#include "graph/builder.h"
#include "models/data.h"
#include "tests/util.h"

namespace astra {
namespace {

/** Random layered DAG with fusable sibling GEMMs and add chains. */
GraphBuilder
random_graph(uint64_t seed)
{
    Rng rng(seed);
    GraphBuilder b;
    const int64_t dim = 8 << rng.next_below(2);  // 8 or 16
    const int64_t batch = 4;

    std::vector<NodeId> live;
    live.push_back(b.input({batch, dim}));
    live.push_back(b.input({batch, dim}));

    const int layers = 3 + static_cast<int>(rng.next_below(3));
    for (int layer = 0; layer < layers; ++layer) {
        GraphBuilder::Scoped scope(b, "L" + std::to_string(layer));
        const NodeId x =
            live[rng.next_below(live.size())];
        switch (rng.next_below(4)) {
          case 0: {  // sibling GEMMs off one operand (batch-fusable)
            const int n = 2 + static_cast<int>(rng.next_below(3));
            for (int i = 0; i < n; ++i)
                live.push_back(
                    b.sigmoid(b.matmul(x, b.param({dim, dim}))));
            break;
          }
          case 1: {  // accumulation ladder (ladder-fusable)
            const int n = 2 + static_cast<int>(rng.next_below(3));
            NodeId acc = b.matmul(x, b.param({dim, dim}));
            for (int i = 1; i < n; ++i)
                acc = b.add(acc, b.matmul(
                                     live[rng.next_below(live.size())],
                                     b.param({dim, dim})));
            live.push_back(acc);
            break;
          }
          case 2: {  // elementwise chain
            NodeId t = b.tanh(x);
            t = b.mul(t, x);
            t = b.scale(t, 0.5f);
            live.push_back(t);
            break;
          }
          default: {  // binary mix of two live values
            const NodeId y = live[rng.next_below(live.size())];
            live.push_back(b.add(x, y));
            break;
          }
        }
        if (live.size() > 6)
            live.erase(live.begin(),
                       live.begin() + static_cast<long>(live.size()) - 6);
    }
    // Loss head so autodiff applies.
    const NodeId logits = b.matmul(live.back(), b.param({dim, 24}));
    const NodeId labels = b.input_ids(batch, 24);
    const NodeId loss = b.cross_entropy(logits, labels);
    b.graph().mark_output(loss);
    append_backward(b, loss);
    return b;
}

class FuzzPipeline : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzPipeline, EveryConfigurationIsValueIdentical)
{
    GraphBuilder gb = random_graph(GetParam());
    const Graph& g = gb.graph();
    g.validate();

    // Native reference values.
    testutil::Runner native(g);
    Rng data_rng(GetParam() ^ 0xabcdef);
    bind_all(g, native.tmap(), data_rng);
    native.run_native();
    NodeId loss = kInvalidNode;
    for (const Node& n : g.nodes())
        if (n.kind == OpKind::CrossEntropy)
            loss = n.id;
    ASSERT_NE(loss, kInvalidNode);
    const float expect = native.scalar(loss);
    ASSERT_TRUE(std::isfinite(expect));

    const SearchSpace space = enumerate_search_space(g);
    SchedulerOptions sopts;
    sopts.super_epoch_ns = 50000.0;
    const Scheduler sched(g, space, sopts);

    Rng cfg_rng(GetParam() * 31 + 7);
    for (int trial = 0; trial < 6; ++trial) {
        ScheduleConfig cfg;
        cfg.strategy = static_cast<int>(
            cfg_rng.next_below(space.strategies.size()));
        cfg.elementwise_fusion = cfg_rng.next_below(2) == 0;
        cfg.use_streams = cfg_rng.next_below(2) == 0;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (const FusionGroup& grp : space.groups) {
            cfg.group_chunk[static_cast<size_t>(grp.id)] =
                grp.chunk_options[cfg_rng.next_below(
                    grp.chunk_options.size())];
            cfg.group_lib[static_cast<size_t>(grp.id)] =
                static_cast<GemmLib>(cfg_rng.next_below(kNumGemmLibs));
        }

        // Coverage + order invariant.
        const auto units = sched.build_units(cfg);
        std::set<NodeId> covered;
        for (const PlanStep& u : units)
            for (NodeId id : u.nodes) {
                ASSERT_FALSE(covered.count(id));
                covered.insert(id);
            }
        for (const Node& n : g.nodes())
            if (!op_is_source(n.kind)) {
                ASSERT_TRUE(covered.count(n.id)) << "node %" << n.id;
            }

        // Value invariant, on the strategy's own layout.
        testutil::Runner cand(
            g, space.strategies[static_cast<size_t>(cfg.strategy)].runs);
        Rng data_rng2(GetParam() ^ 0xabcdef);
        bind_all(g, cand.tmap(), data_rng2);
        cand.run(sched.build(cfg));
        ASSERT_EQ(cand.scalar(loss), expect)
            << "seed " << GetParam() << " trial " << trial;
    }
}

/**
 * Differential check of the scheduler's staged memo: one Scheduler
 * builds a random config sequence (strategies, fusion, libraries,
 * profile keys, stream counts, epoch choices and keys) and every plan
 * must equal a fresh Scheduler's, down to the simulated time.
 */
TEST_P(FuzzPipeline, MemoizedBuildMatchesFreshScheduler)
{
    GraphBuilder gb = random_graph(GetParam());
    const Graph& g = gb.graph();
    const SearchSpace space = enumerate_search_space(g);
    SchedulerOptions sopts;
    sopts.super_epoch_ns = 50000.0;
    const Scheduler shared(g, space, sopts);

    std::vector<NodeId> matmuls;
    for (const Node& n : g.nodes())
        if (n.is_matmul())
            matmuls.push_back(n.id);

    Rng cfg_rng(GetParam() * 131 + 17);
    auto pick = [&cfg_rng](size_t n) {
        return static_cast<int>(cfg_rng.next_below(n));
    };
    auto draw_binding = [&](ScheduleConfig& cfg) {
        cfg.strategy = pick(space.strategies.size());
        cfg.elementwise_fusion = pick(4) != 0;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (const FusionGroup& grp : space.groups) {
            cfg.group_chunk[static_cast<size_t>(grp.id)] =
                grp.chunk_options[static_cast<size_t>(
                    pick(grp.chunk_options.size()))];
            cfg.group_lib[static_cast<size_t>(grp.id)] =
                static_cast<GemmLib>(pick(kNumGemmLibs));
        }
        cfg.single_lib.clear();
        for (NodeId id : matmuls)
            if (pick(2) == 0)
                cfg.single_lib[id] =
                    static_cast<GemmLib>(pick(kNumGemmLibs));
    };
    auto draw_group_keys = [&](ScheduleConfig& cfg) {
        const std::string tag = "#" + std::to_string(pick(3));
        cfg.group_keys.clear();
        for (const FusionGroup& grp : space.groups)
            if (pick(2) == 0)
                cfg.group_keys[grp.id] = "g" + std::to_string(grp.id) + tag;
    };
    auto draw_single_keys = [&](ScheduleConfig& cfg) {
        const std::string tag = "#" + std::to_string(pick(3));
        cfg.single_keys.clear();
        for (NodeId id : matmuls)
            if (pick(2) == 0)
                cfg.single_keys[id] = "m" + std::to_string(id) + tag;
    };

    // Each trial changes one thing about the previous config, so the
    // sequence walks the memo through hits and every kind of miss.
    ScheduleConfig cfg;
    draw_binding(cfg);
    draw_group_keys(cfg);
    draw_single_keys(cfg);
    for (int trial = 0; trial < 24; ++trial) {
        switch (pick(8)) {
          case 0: draw_binding(cfg); break;
          case 1: cfg.strategy = pick(space.strategies.size()); break;
          case 2: draw_group_keys(cfg); break;
          case 3: draw_single_keys(cfg); break;
          case 4: cfg.elementwise_fusion = !cfg.elementwise_fusion; break;
          case 5: cfg.use_streams = !cfg.use_streams; break;
          case 6: cfg.num_streams = 1 + pick(3); break;
          default: break;  // stream fields only
        }
        cfg.epoch_choice.clear();
        cfg.epoch_keys.clear();
        // Epoch choices over this binding's real stream space; the
        // last value of each draw is out of range, which build()
        // clamps.
        const Scheduler fresh(g, space, sopts);
        const StreamSpace ss = fresh.stream_space(
            fresh.build_units(cfg), cfg.num_streams);
        for (const EpochInfo& e : ss.epochs) {
            const std::pair<int, int> key{e.super_epoch, e.level};
            cfg.epoch_choice[key] = pick(e.options.size() + 1);
            if (pick(2) == 0)
                cfg.epoch_keys[key] = "e" + std::to_string(e.super_epoch) +
                                      "." + std::to_string(e.level);
        }

        const ExecutionPlan expect = fresh.build(cfg);
        const ExecutionPlan got = shared.build(cfg);
        ASSERT_TRUE(testutil::same_plan(got, expect))
            << "seed " << GetParam() << " trial " << trial;

        const auto& runs =
            space.strategies[static_cast<size_t>(cfg.strategy)].runs;
        testutil::Runner a(g, runs);
        testutil::Runner b(g, runs);
        a.config().execute_kernels = false;
        b.config().execute_kernels = false;
        EXPECT_EQ(a.run(got).total_ns, b.run(expect).total_ns)
            << "seed " << GetParam() << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace astra
