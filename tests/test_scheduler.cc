/**
 * @file
 * Scheduler tests: unit building (chunked fusion, elementwise chains,
 * coverage exactly-once, topological validity), super-epoch/epoch
 * partitioning, equivalence-class stream options, and full streamed
 * plans that remain value-preserving.
 */
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/scheduler.h"
#include "models/data.h"
#include "models/models.h"
#include "tests/util.h"

namespace astra {
namespace {

using testutil::Runner;

/** Small LSTM-ish workload with real fusion opportunities. */
BuiltModel
small_model()
{
    return build_model(ModelKind::SubLstm,
                       {.batch = 8, .seq_len = 4, .hidden = 32,
                        .embed_dim = 32, .vocab = 50});
}

ScheduleConfig
default_config(const SearchSpace& space, int chunk_option = 0)
{
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups) {
        const size_t pick = std::min<size_t>(
            static_cast<size_t>(chunk_option),
            g.chunk_options.size() - 1);
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options[pick];
    }
    return cfg;
}

void
check_cover_and_order(const std::vector<PlanStep>& units, const Graph& g)
{
    std::vector<int> covered(static_cast<size_t>(g.size()), -1);
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes) {
            ASSERT_EQ(covered[static_cast<size_t>(id)], -1)
                << "node %" << id << " covered twice";
            covered[static_cast<size_t>(id)] = static_cast<int>(i);
        }
    for (const Node& n : g.nodes()) {
        if (op_is_source(n.kind))
            continue;
        ASSERT_GE(covered[static_cast<size_t>(n.id)], 0)
            << "node %" << n.id << " (" << op_name(n.kind)
            << ") uncovered";
    }
    // Each step's external inputs must be produced by earlier steps.
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes)
            for (NodeId in : g.node(id).inputs) {
                const int p = covered[static_cast<size_t>(in)];
                if (p >= 0 && static_cast<size_t>(p) != i) {
                    ASSERT_LT(p, static_cast<int>(i));
                }
            }
}

TEST(Scheduler, UnfusedUnitsCoverEachNodeOnce)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    ScheduleConfig cfg = default_config(space);
    cfg.elementwise_fusion = false;
    const auto units = sched.build_units(cfg);
    check_cover_and_order(units, m.graph());
    for (const PlanStep& u : units)
        EXPECT_EQ(u.kind, StepKind::Single);
}

TEST(Scheduler, MaxChunkUnitsCoverEachNodeOnce)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    for (size_t chunk_opt = 0; chunk_opt < 4; ++chunk_opt) {
        const auto units = sched.build_units(
            default_config(space, static_cast<int>(chunk_opt)));
        check_cover_and_order(units, m.graph());
    }
}

TEST(Scheduler, FusionReducesUnitCount)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    ScheduleConfig unfused = default_config(space, 0);
    unfused.elementwise_fusion = false;
    ScheduleConfig fused = default_config(space, 3);
    const size_t n_unfused = sched.build_units(unfused).size();
    const size_t n_fused = sched.build_units(fused).size();
    EXPECT_LT(n_fused, n_unfused * 0.6);
}

TEST(Scheduler, PlanCacheHitsOnEqualConfigs)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const int64_t hits0 = sched.plan_cache_hits();
    const int64_t misses0 = sched.plan_cache_misses();

    const ScheduleConfig cfg = default_config(space, 1);
    const auto first = sched.build_cached(cfg);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(sched.plan_cache_misses() - misses0, 1);
    EXPECT_EQ(sched.plan_cache_hits() - hits0, 0);

    // An equal (even if separately constructed) config reuses the
    // lowered plan object itself.
    const auto again = sched.build_cached(default_config(space, 1));
    EXPECT_EQ(again.get(), first.get());
    EXPECT_EQ(sched.plan_cache_hits() - hits0, 1);
    EXPECT_EQ(sched.plan_cache_misses() - misses0, 1);

    // The cached plan is the same lowering build() produces.
    EXPECT_TRUE(testutil::same_plan(*first, sched.build(cfg)));
}

/** Standalone MatMuls: those outside every fusion group. */
std::vector<NodeId>
standalone_matmuls(const Graph& g, const SearchSpace& space)
{
    std::set<NodeId> grouped;
    for (const FusionGroup& grp : space.groups)
        grouped.insert(grp.mms.begin(), grp.mms.end());
    std::vector<NodeId> out;
    for (const Node& n : g.nodes())
        if (n.is_matmul() && !grouped.count(n.id))
            out.push_back(n.id);
    return out;
}

/**
 * The i-th config of a sequence that walks the staged memo through
 * every transition. Every 12 configs the chunking and libraries
 * change. Within them the strategy alternates, so each strategy's
 * memo slot sees every other config. From one of its configs to its
 * next, exactly one of these changes: the group keys are renamed, the
 * single keys are renamed, or elementwise fusion switches. Along the
 * way num_streams cycles 1/2/3, streams switch off and on, and the
 * epoch choices and keys vary.
 */
ScheduleConfig
interleaved_config(const Graph& g, const SearchSpace& space, int i)
{
    const int phase = i / 12;
    const int s = (i % 12) / 2;  // step within the strategy's slot
    ScheduleConfig cfg = default_config(space, phase % 4);
    cfg.elementwise_fusion = s != 5;
    cfg.strategy = i % std::min<int>(
                           2, static_cast<int>(space.strategies.size()));
    cfg.use_streams = i % 5 != 2;
    cfg.num_streams = 1 + (i / 4) % 3;
    const std::string group_tag = "#" + std::to_string(std::min(s, 4) / 2);
    const std::string single_tag =
        "#" + std::to_string((std::min(s, 4) + 1) / 2);
    for (const FusionGroup& grp : space.groups)
        if ((grp.id + phase) % 2 == 0)
            cfg.group_keys[grp.id] =
                "g" + std::to_string(grp.id) + group_tag;
    for (NodeId id : standalone_matmuls(g, space)) {
        cfg.single_lib[id] =
            static_cast<GemmLib>((id + phase) % kNumGemmLibs);
        cfg.single_keys[id] = "m" + std::to_string(id) + single_tag;
    }
    for (int se = 0; se < 3; ++se)
        for (int lv = 0; lv < 3; ++lv) {
            cfg.epoch_choice[{se, lv}] = (i + se + lv) % 5;
            if ((i + se) % 3 == 0)
                cfg.epoch_keys[{se, lv}] =
                    "e" + std::to_string(se) + "." + std::to_string(lv);
        }
    return cfg;
}

TEST(Scheduler, InterleavedBuildsMatchFreshScheduler)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler shared(m.graph(), space, opts);
    std::vector<ExecutionPlan> expect;
    for (int i = 0; i < 48; ++i) {
        const ScheduleConfig cfg = interleaved_config(m.graph(), space, i);
        expect.push_back(Scheduler(m.graph(), space, opts).build(cfg));
        EXPECT_TRUE(testutil::same_plan(shared.build(cfg), expect.back()))
            << "config " << i;
        EXPECT_TRUE(
            testutil::same_plan(*shared.build_cached(cfg), expect.back()))
            << "config " << i;
    }
    // The same walk backwards, after the memo moved on.
    for (int i = 47; i >= 0; --i)
        EXPECT_TRUE(testutil::same_plan(
            shared.build(interleaved_config(m.graph(), space, i)),
            expect[static_cast<size_t>(i)]))
            << "config " << i << " revisited";
}

TEST(Scheduler, StagedMemoKeepsOneBindingPerStrategy)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    ScheduleConfig cfg = default_config(space, 2);
    const auto first = sched.cached_stream_space(cfg, 2);

    // Stream fields are not part of the units signature: the space is
    // shared.
    ScheduleConfig streamed = cfg;
    streamed.use_streams = true;
    streamed.epoch_choice[{0, 0}] = 1;
    streamed.epoch_keys[{0, 0}] = "e0";
    EXPECT_EQ(sched.cached_stream_space(streamed, 2).get(), first.get());
    EXPECT_NE(sched.cached_stream_space(cfg, 3).get(), first.get());
    EXPECT_EQ(sched.cached_stream_space(cfg, 2).get(), first.get());

    // Another strategy has its own slot.
    if (space.strategies.size() > 1) {
        ScheduleConfig other = cfg;
        other.strategy = 1;
        sched.cached_stream_space(other, 2);
        EXPECT_EQ(sched.cached_stream_space(cfg, 2).get(), first.get());
    }

    // Profile keys are part of it: a renamed key replaces the slot's
    // binding, so the memo holds one binding per strategy.
    ASSERT_FALSE(space.groups.empty());
    ScheduleConfig keyed = cfg;
    keyed.group_keys[space.groups[0].id] = "g0";
    const auto rekeyed = sched.cached_stream_space(keyed, 2);
    EXPECT_NE(rekeyed.get(), first.get());
    EXPECT_NE(sched.cached_stream_space(cfg, 2).get(), first.get());

    // A memoized space equals the uncached reference.
    const StreamSpace ref =
        sched.stream_space(sched.build_units(cfg), 2);
    const auto again = sched.cached_stream_space(cfg, 2);
    EXPECT_EQ(again->num_super_epochs, ref.num_super_epochs);
    ASSERT_EQ(again->epochs.size(), ref.epochs.size());
    for (size_t e = 0; e < ref.epochs.size(); ++e) {
        EXPECT_EQ(again->epochs[e].units, ref.epochs[e].units);
        EXPECT_EQ(again->epochs[e].options, ref.epochs[e].options);
    }
}

TEST(Scheduler, ConcurrentBuildCachedMatchesSerial)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    constexpr int kConfigs = 24;
    std::vector<ScheduleConfig> cfgs;
    std::vector<ExecutionPlan> expect;
    for (int i = 0; i < kConfigs; ++i) {
        cfgs.push_back(interleaved_config(m.graph(), space, i));
        expect.push_back(Scheduler(m.graph(), space, opts).build(cfgs.back()));
    }

    // Every thread walks all configs from its own offset, so threads
    // hit the same strategy slots with different bindings at once.
    const Scheduler shared(m.graph(), space, opts);
    constexpr int kThreads = 4;
    std::vector<std::vector<std::shared_ptr<const ExecutionPlan>>> got(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            got[static_cast<size_t>(t)].resize(kConfigs);
            for (int k = 0; k < kConfigs; ++k) {
                const int i = (k + t * 5) % kConfigs;
                got[static_cast<size_t>(t)][static_cast<size_t>(i)] =
                    shared.build_cached(cfgs[static_cast<size_t>(i)]);
            }
        });
    for (std::thread& th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kConfigs; ++i)
            EXPECT_TRUE(testutil::same_plan(
                *got[static_cast<size_t>(t)][static_cast<size_t>(i)],
                expect[static_cast<size_t>(i)]))
                << "thread " << t << " config " << i;
}

TEST(Scheduler, PlanCacheDistinguishesConfigs)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const int64_t misses0 = sched.plan_cache_misses();

    // Every field of the signature must keep distinct configurations
    // apart: chunking, library, elementwise fusion and streaming each
    // produce a different plan object.
    const auto base = sched.build_cached(default_config(space, 0));
    ScheduleConfig chunked = default_config(space, 3);
    const auto with_chunks = sched.build_cached(chunked);
    ScheduleConfig libbed = default_config(space, 0);
    libbed.group_lib.assign(space.groups.size(), GemmLib::Oai1);
    const auto with_lib = sched.build_cached(libbed);
    ScheduleConfig unfused = default_config(space, 0);
    unfused.elementwise_fusion = false;
    const auto without_ew = sched.build_cached(unfused);
    ScheduleConfig streamed = default_config(space, 0);
    streamed.use_streams = true;
    streamed.num_streams = 2;
    const auto with_streams = sched.build_cached(streamed);

    const std::set<const ExecutionPlan*> distinct{
        base.get(), with_chunks.get(), with_lib.get(), without_ew.get(),
        with_streams.get()};
    EXPECT_EQ(distinct.size(), 5u);
    EXPECT_EQ(sched.plan_cache_misses() - misses0, 5);
}

TEST(Scheduler, DisabledGroupsForcedUnfused)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    // Find a strategy under which some group is disabled.
    int sid = -1, gid = -1;
    for (const AllocStrategy& s : space.strategies)
        for (const FusionGroup& g : space.groups)
            if (!s.group_enabled[static_cast<size_t>(g.id)] &&
                g.chunk_options.back() > 1) {
                sid = s.id;
                gid = g.id;
            }
    if (sid < 0)
        GTEST_SKIP() << "no disabled group in this space";
    ScheduleConfig cfg = default_config(space, 3);
    cfg.strategy = sid;
    const auto units = sched.build_units(cfg);
    // The disabled group itself must not fuse: no fused step may be a
    // contiguous chunk of its member list. (Members may still appear
    // inside *other* enabled groups' fused steps — 2-D fusion sets
    // share GEMMs across groups.)
    const FusionGroup& g = space.groups[static_cast<size_t>(gid)];
    for (const PlanStep& u : units) {
        if (u.kind != StepKind::FusedGemm && u.kind != StepKind::LadderGemm)
            continue;
        for (size_t lo = 0; lo + 1 < g.mms.size(); ++lo) {
            if (u.nodes.size() > g.mms.size() - lo)
                continue;
            bool matches = true;
            for (size_t j = 0; j < u.nodes.size() && matches; ++j)
                matches = g.mms[lo + j] == u.nodes[j];
            EXPECT_FALSE(matches && u.nodes.size() >= 2)
                << "disabled group g" << gid << " fused anyway";
        }
    }
}

TEST(Scheduler, ElementwiseChainsFormed)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const auto units = sched.build_units(default_config(space));
    int chains = 0;
    for (const PlanStep& u : units)
        if (u.kind == StepKind::FusedElementwise) {
            ++chains;
            EXPECT_GE(u.nodes.size(), 2u);
            EXPECT_LE(u.nodes.size(), 10u);
        }
    EXPECT_GT(chains, 0);
}

TEST(Scheduler, StreamSpaceStructure)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;  // force several super-epochs
    const Scheduler sched(m.graph(), space, opts);
    const auto units = sched.build_units(default_config(space, 2));
    const StreamSpace ss = sched.stream_space(units);
    EXPECT_GT(ss.num_super_epochs, 1);
    std::set<size_t> seen;
    for (const EpochInfo& e : ss.epochs) {
        EXPECT_FALSE(e.options.empty());
        // Every option assigns a stream in {0,1} to every unit.
        for (const auto& opt : e.options) {
            ASSERT_EQ(opt.size(), e.units.size());
            for (int s : opt)
                EXPECT_TRUE(s == 0 || s == 1);
        }
        // Default option (index 0) is the near-balanced split.
        for (size_t u : e.units) {
            EXPECT_FALSE(seen.count(u));
            seen.insert(u);
        }
        EXPECT_LE(e.options.size(), 24u);
    }
    EXPECT_EQ(seen.size(), units.size());
}

TEST(Scheduler, EpochUnitsAreMutuallyIndependent)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const auto units = sched.build_units(default_config(space, 2));
    const StreamSpace ss = sched.stream_space(units);
    // Producer map.
    std::vector<int> producer(static_cast<size_t>(m.graph().size()), -1);
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes)
            producer[static_cast<size_t>(id)] = static_cast<int>(i);
    for (const EpochInfo& e : ss.epochs) {
        std::set<size_t> in_epoch(e.units.begin(), e.units.end());
        for (size_t u : e.units)
            for (NodeId id : units[u].nodes)
                for (NodeId in : m.graph().node(id).inputs) {
                    const int p = producer[static_cast<size_t>(in)];
                    if (p >= 0 && static_cast<size_t>(p) != u) {
                        EXPECT_FALSE(in_epoch.count(
                            static_cast<size_t>(p)))
                            << "dependent units share an epoch";
                    }
                }
    }
}

TEST(Scheduler, StreamedPlanHasBarriersAndTwoStreams)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler sched(m.graph(), space, opts);
    ScheduleConfig cfg = default_config(space, 2);
    cfg.use_streams = true;
    const ExecutionPlan plan = sched.build(cfg);
    EXPECT_EQ(plan.num_streams, 2);
    int barriers = 0;
    std::set<int> streams_used;
    for (const PlanStep& s : plan.steps) {
        if (s.kind == StepKind::Barrier)
            ++barriers;
        else
            streams_used.insert(s.stream);
    }
    EXPECT_GT(barriers, 0);
    EXPECT_EQ(streams_used.size(), 2u);
}

/**
 * The central invariant: EVERY configuration the scheduler can produce
 * computes exactly the same values as the native dispatch.
 */
class SchedulerValuePreservation
    : public ::testing::TestWithParam<std::tuple<int, bool, int>>
{};

TEST_P(SchedulerValuePreservation, MatchesNative)
{
    const auto [chunk_opt, streams, strategy] = GetParam();
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    if (strategy >= static_cast<int>(space.strategies.size()))
        GTEST_SKIP() << "fewer strategies in this space";
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler sched(m.graph(), space, opts);

    // Reference: native single-stream execution.
    Runner native(m.graph());
    Rng rng(1234);
    bind_all(m.graph(), native.tmap(), rng);
    native.run_native();

    // Candidate: scheduled under the parameterized configuration, on
    // the strategy's own memory layout.
    ScheduleConfig cfg = default_config(space, chunk_opt);
    cfg.strategy = strategy;
    cfg.use_streams = streams;
    // Vary kernel libraries too: they must not change values.
    for (size_t g = 0; g < cfg.group_lib.size(); ++g)
        cfg.group_lib[g] = static_cast<GemmLib>(g % kNumGemmLibs);
    Runner cand(m.graph(),
                space.strategies[static_cast<size_t>(strategy)].runs);
    Rng rng2(1234);
    bind_all(m.graph(), cand.tmap(), rng2);
    cand.run(sched.build(cfg));

    for (NodeId out : m.graph().outputs()) {
        EXPECT_EQ(testutil::max_abs_diff(native.values(out),
                                         cand.values(out)), 0.0)
            << "output %" << out << " diverged";
    }
    EXPECT_EQ(native.scalar(m.loss), cand.scalar(m.loss));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SchedulerValuePreservation,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Bool(),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace astra
