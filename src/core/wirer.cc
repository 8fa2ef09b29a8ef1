#include "core/wirer.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "obs/obs.h"
#include "support/logging.h"

namespace astra {

namespace {

/**
 * Saturating product, for exhaustive state-space sizes (Table 7).
 * The cap is far below INT64_MAX so that report consumers can sum
 * saturated sizes across epochs without overflowing.
 */
int64_t
sat_mul(int64_t a, int64_t b)
{
    constexpr int64_t kCap = 1000000000000000;  // 1e15
    if (a > 0 && b > kCap / a)
        return kCap;
    return a * b;
}

/**
 * Worst per-key coefficient of variation among a stage's variables'
 * measured choices: the stage's observed noise floor for reporting.
 */
double
stage_max_cv(const UpdateNode& stage, const ProfileIndex& index)
{
    double worst = 0.0;
    stage.for_each_var([&](AdaptiveVariable& v) {
        for (int c = 0; c < v.num_options(); ++c)
            if (const ProfileStats* s = index.stats(v.profile_key_for(c)))
                worst = std::max(worst, s->cov());
    });
    return worst;
}

}  // namespace

AstraFeatures
features_f()
{
    AstraFeatures f;
    f.kernel_choice = false;
    f.streams = false;
    f.alloc = false;
    return f;
}

AstraFeatures
features_fk()
{
    AstraFeatures f;
    f.streams = false;
    f.alloc = false;
    return f;
}

AstraFeatures
features_fks()
{
    AstraFeatures f;
    f.alloc = false;
    return f;
}

AstraFeatures
features_all()
{
    return AstraFeatures{};
}

const char*
wirer_termination_name(WirerTermination t)
{
    switch (t) {
      case WirerTermination::Complete:
        return "complete";
      case WirerTermination::Budget:
        return "budget";
      case WirerTermination::FaultQuarantine:
        return "fault_quarantine";
      case WirerTermination::Resume:
        return "resume";
    }
    return "?";
}

/**
 * One allocation strategy's private exploration state (see wirer.h).
 * Everything a trial mutates lives here; distinct strategies' runs
 * share nothing, so the pipelines may execute concurrently and still
 * merge into the exact serial result.
 */
struct CustomWirer::StrategyRun
{
    StrategyRun(int sid_in, std::string sctx_in, int64_t quota_in,
                const MeasurementPolicy& policy, const GpuConfig& gpu)
        : sid(sid_in), sctx(std::move(sctx_in)), quota(quota_in),
          index(policy), clock(gpu, static_cast<uint64_t>(sid_in) + 1)
    {
    }

    int sid;           ///< allocation-strategy index
    std::string sctx;  ///< strategy context prefix for profile keys

    /** This strategy's share of the mini-batch safety valve. */
    int64_t quota;

    /** Private profile shard (keys disjoint across strategies). */
    ProfileIndex index;

    /**
     * Private boost-draw sequence: the i-th mini-batch of this
     * strategy always runs at the i-th draw, regardless of which
     * thread dispatches it or what other strategies are doing.
     */
    ClockDomain clock;

    int64_t minibatches = 0;
    bool truncated = false;

    /** Best end-to-end mini-batch time seen in this strategy (ns). */
    double best_seen_ns = -1.0;

    /** Stage history with strategy-local best/totals (merged later). */
    std::vector<ConvergenceEpoch> epochs;

    /** The strategy's bound best configuration and its measured time. */
    ScheduleConfig best_config;
    double final_stat = 0.0;

    /**
     * Per-dispatch fault-salt sequence: the i-th dispatch of this
     * strategy always draws the i-th salt, so the faults it sees are a
     * function of the strategy's measurement history alone (the same
     * invariant the clock domain provides for boost draws).
     */
    uint64_t fault_seq = 0;

    /** Measurement journal (raw results, in dispatch order). */
    std::vector<DispatchRecord> journal;

    /** Resume journal to replay before dispatching live, if any. */
    const std::vector<DispatchRecord>* resume = nullptr;
    size_t replay_pos = 0;
    int64_t replayed = 0;

    /** Fault accounting, accumulated across this strategy's dispatches. */
    int64_t faults_seen = 0;
    int64_t fault_attempts = 0;
    int64_t straggler_events = 0;
    int64_t faulted_minibatches = 0;
    int64_t wirer_retries = 0;
    double backoff_ns = 0.0;

    /** A trial exhausted the measurement policy's fault budget. */
    bool fault_exhausted = false;

    // ---- plan-store warm-start accounting (WirerOptions::warm) -----------

    /** Variables pre-bound from a transferred L2 configuration. */
    int64_t transferred = 0;

    /** Profile keys seeded from the neighbor's stored statistics. */
    int64_t seeded_keys = 0;

    // ---- what-if engine (WirerOptions::whatif, §5.13) ---------------------

    /** Armed evaluator, or null when the mode is off or ineligible. */
    std::unique_ptr<WhatIfEngine> whatif;

    /** Host replays performed (exploration trials and re-replays). */
    int64_t whatif_evals = 0;

    /** dispatch_batch calls that dispatched >= 1 live mini-batch. */
    int64_t measured_configs = 0;
};

CustomWirer::~CustomWirer() = default;

CustomWirer::CustomWirer(const Graph& graph, const SearchSpace& space,
                         const Scheduler& scheduler,
                         const std::vector<const TensorMap*>& tensor_maps,
                         WirerOptions opts)
    : graph_(graph), space_(space), scheduler_(scheduler),
      tensor_maps_(tensor_maps), opts_(std::move(opts))
{
    ASTRA_ASSERT(tensor_maps_.size() == space_.strategies.size(),
                 "one tensor map per allocation strategy");
}

std::vector<DispatchResult>
CustomWirer::dispatch_batch(StrategyRun& run, const ScheduleConfig& config,
                            int repeats, const BindFn& bind)
{
    std::vector<DispatchResult> results;
    if (repeats <= 0)
        return results;
    results.resize(static_cast<size_t>(repeats));
    const TensorMap& tmap = *tensor_maps_[static_cast<size_t>(run.sid)];

    // Pre-draw the boost multipliers in repeat order: the clock a
    // mini-batch sees is a function of the strategy's measurement
    // history, never of which thread runs the repeat.
    std::vector<double> forced(static_cast<size_t>(repeats));
    for (double& m : forced)
        m = run.clock.draw();

    // Pre-draw per-dispatch fault salts under the same rule (|1 keeps
    // them nonzero so the dispatcher never substitutes its own
    // process-wide counter). Replayed repeats consume their draws too —
    // the live dispatches that follow must land on the same salts an
    // uninterrupted run would have used.
    const bool fault_armed = !opts_.gpu.faults.empty();
    std::vector<uint64_t> salts(static_cast<size_t>(repeats), 0);
    if (fault_armed)
        for (uint64_t& s : salts)
            s = fault_mix(static_cast<uint64_t>(run.sid) + 1,
                          ++run.fault_seq) |
                1;

    // Resume: the first n_replay repeats are satisfied from the journal
    // instead of dispatching. The split is decided here, before any
    // fan-out, so it cannot depend on thread interleaving.
    const int n_replay =
        run.resume == nullptr
            ? 0
            : static_cast<int>(std::min<size_t>(
                  static_cast<size_t>(repeats),
                  run.resume->size() - run.replay_pos));

    // Warm fetch on the calling thread: the (at most one) miss and its
    // lowering happen here, so the per-dispatch fetches below always
    // hit — the cache tally is identical at every thread count.
    scheduler_.build_cached(config);

    auto dispatch_one = [&](int64_t i) {
        if (i < n_replay) {
            // Replay performs the same cache fetch a live dispatch
            // would (tallies must match the uninterrupted run) and
            // copies the journaled raw measurement in.
            scheduler_.build_cached(config);
            const DispatchRecord& rec =
                (*run.resume)[run.replay_pos + static_cast<size_t>(i)];
            DispatchResult& res = results[static_cast<size_t>(i)];
            res.total_ns = rec.total_ns;
            res.clock_multiplier = rec.clock_multiplier;
            res.faulted = rec.faulted;
            res.fault_attempts = rec.fault_attempts;
            res.faults_seen = rec.faults_seen;
            res.straggler_events = rec.straggler_events;
            res.backoff_ns = rec.backoff_ns;
            for (const auto& [key, ns] : rec.profile)
                res.profile_ns.emplace(key, ns);
            return;
        }
        if (bind)
            bind(tmap, run.minibatches + i);
        GpuConfig gpu = opts_.gpu;
        if (forced[static_cast<size_t>(i)] > 0.0)
            gpu.forced_clock_multiplier = forced[static_cast<size_t>(i)];
        gpu.fault_salt = salts[static_cast<size_t>(i)];
        const std::shared_ptr<const ExecutionPlan> plan =
            scheduler_.build_cached(config);
        results[static_cast<size_t>(i)] =
            dispatch_plan(*plan, graph_, tmap, gpu);
    };
    // Repeats may fan out only when a dispatch touches nothing shared:
    // no bind callback mutating tensors, and a timing-only device (real
    // kernel execution writes the strategy's tensors). The rule depends
    // only on the options, so serial and parallel runs take the same
    // branch.
    const bool concurrent = pool_ != nullptr && !bind &&
                            !opts_.gpu.execute_kernels && repeats > 1;
    if (concurrent) {
        pool_->parallel_for(repeats, dispatch_one);
    } else {
        for (int64_t i = 0; i < repeats; ++i)
            dispatch_one(i);
    }
    // A "measured config" is a batch that cost real mini-batches — the
    // denominator of the what-if engine's savings claim. Journal
    // replays count too: they were live dispatches in the process that
    // wrote the journal, and a resumed run's report must be
    // bit-identical to the uninterrupted one. (What-if replays never
    // enter dispatch_batch, so they cannot inflate this.)
    ++run.measured_configs;

    // Accounting and profile recording happen sequentially in repeat
    // order, so the shard accumulates the exact serial sequence.
    for (DispatchResult& result : results) {
        // Journal the raw result first — before clock normalization —
        // so replaying the record reproduces this exact accounting
        // pass (and re-journals identically on a resumed run).
        DispatchRecord rec;
        rec.total_ns = result.total_ns;
        rec.clock_multiplier = result.clock_multiplier;
        rec.faulted = result.faulted;
        rec.fault_attempts = result.fault_attempts;
        rec.faults_seen = result.faults_seen;
        rec.straggler_events = result.straggler_events;
        rec.backoff_ns = result.backoff_ns;
        rec.profile.assign(result.profile_ns.begin(),
                           result.profile_ns.end());
        run.journal.push_back(std::move(rec));

        if (opts_.measurement.normalize_clock) {
            // DVFS compensation: the device reports the clock it ran
            // this mini-batch at; scaling by it converts every
            // measurement to base-clock-equivalent time (§7, measured
            // instead of pinned).
            result.total_ns *= result.clock_multiplier;
            for (auto& [key, ns] : result.profile_ns)
                ns *= result.clock_multiplier;
        }
        ++run.minibatches;
        run.faults_seen += result.faults_seen;
        run.fault_attempts += result.fault_attempts;
        run.straggler_events += result.straggler_events;
        run.backoff_ns += result.backoff_ns;
        static obs::Counter& trials = obs::counter("wire.minibatches");
        trials.add();
        obs::observe("wire.minibatch_ns", result.total_ns);
        if (result.faulted) {
            // The dispatcher's retry budget ran dry: timing and values
            // are suspect. Mark the keys (quarantine) instead of
            // recording samples, and leave best-seen untouched — a
            // faulted measurement must never win a binding.
            ++run.faulted_minibatches;
            for (const auto& [key, ns] : result.profile_ns)
                run.index.record_fault(key);
            continue;
        }
        if (run.best_seen_ns < 0.0 || result.total_ns < run.best_seen_ns)
            run.best_seen_ns = result.total_ns;
        // All profile keys are fully context-mangled by construction,
        // so the result entries drop straight into the shard (§4.6).
        for (const auto& [key, ns] : result.profile_ns)
            run.index.record(key, ns);
    }
    if (n_replay > 0) {
        run.replay_pos += static_cast<size_t>(n_replay);
        run.replayed += n_replay;
    }
    return results;
}

void
CustomWirer::measure_trial(
    StrategyRun& run, const std::function<ScheduleConfig()>& make_cfg,
    const BindFn& bind)
{
    const int k = std::max(1, opts_.measurement.min_samples);
    for (int attempt = 0;; ++attempt) {
        const int64_t avail =
            std::max<int64_t>(0, run.quota - run.minibatches);
        const int r = static_cast<int>(std::min<int64_t>(k, avail));
        if (r < k)
            run.truncated = true;
        const std::vector<DispatchResult> results =
            dispatch_batch(run, make_cfg(), r, bind);
        if (results.empty())
            return;
        bool any_clean = false;
        for (const DispatchResult& result : results)
            any_clean = any_clean || !result.faulted;
        if (any_clean)
            return;
        // Every repeat of the trial came back faulted even after the
        // dispatcher's own replays: re-measure the whole trial (fresh
        // fault salts) up to the policy budget, then quarantine — the
        // keys stay marked, sample-free, and can never be bound.
        if (run.truncated || attempt >= opts_.measurement.fault_budget) {
            run.fault_exhausted = true;
            return;
        }
        ++run.wirer_retries;
    }
}

void
CustomWirer::replay_trial(StrategyRun& run, const ScheduleConfig& config)
{
    const ReplayResult r = run.whatif->evaluate(config);
    ++run.whatif_evals;
    // Replayed samples drop into the shard exactly like dispatched
    // ones. Epoch-span metrics couple across super-epochs through
    // host launch pipelining, so a candidate must be evaluated at the
    // precise co-varied state the walk would have dispatched — which
    // is what `config` is — not in isolation; only then is the sample
    // (and every ranking downstream of it) bit-identical to the
    // measured run's.
    for (const auto& [key, ns] : r.profile_ns)
        run.index.record(key, ns);
}

int64_t
CustomWirer::resolve_ambiguity(
    StrategyRun& run, UpdateNode& stage,
    const std::function<ScheduleConfig()>& make_cfg, const BindFn& bind,
    const std::function<bool(const AdaptiveVariable&)>& eligible)
{
    const MeasurementPolicy& mp = opts_.measurement;
    const int rounds = std::max(0, mp.max_repeats - 1);
    int64_t extra = 0;
    for (int round = 0; round < rounds; ++round) {
        bool ambiguous = false;
        stage.for_each_var([&](AdaptiveVariable& v) {
            if (v.num_options() < 2)
                return;
            if (eligible && !eligible(v))
                return;
            const ChoiceDecision d = v.decide(run.index);
            if (d.choice < 0 || d.decisive)
                return;
            // Steer the next mini-batch at whichever of the top two
            // contenders has fewer samples, so their intervals tighten
            // at the same rate.
            const int64_t n_best =
                run.index.samples(v.profile_key_for(d.choice));
            const int64_t n_run =
                run.index.samples(v.profile_key_for(d.runner_up));
            v.set(n_run < n_best ? d.runner_up : d.choice);
            ambiguous = true;
        });
        if (!ambiguous)
            break;
        if (run.whatif) {
            // Armed: the re-measurement is replayed like any other
            // trial — same config sequence, same samples, no budget.
            replay_trial(run, make_cfg());
        } else {
            if (run.minibatches >= run.quota) {
                run.truncated = true;
                break;
            }
            dispatch_batch(run, make_cfg(), 1, bind);
        }
        ++extra;
    }
    if (extra > 0) {
        static obs::Counter& remeasured =
            obs::counter("wire.remeasure_minibatches");
        remeasured.add(extra);
    }
    return extra;
}

void
CustomWirer::measure_final(StrategyRun& run, const ScheduleConfig& config,
                           const BindFn& bind, double* stat_ns)
{
    const MeasurementPolicy& mp = opts_.measurement;
    const int k = std::max(1, mp.min_samples);
    // Only clean dispatches may define the strategy's end-to-end time;
    // if the whole batch faulted, re-measure up to the fault budget.
    std::vector<double> clean;
    for (int attempt = 0;; ++attempt) {
        // The first dispatch is unconditional — a truncated result must
        // still carry an end-to-end time — and only the k-1 extra
        // repeats are gated on the remaining quota.
        const int64_t avail = run.quota - run.minibatches;
        const int extra = static_cast<int>(
            std::min<int64_t>(k - 1, std::max<int64_t>(0, avail - 1)));
        const int r = 1 + extra;
        const std::vector<DispatchResult> results =
            dispatch_batch(run, config, r, bind);
        for (const DispatchResult& result : results)
            if (!result.faulted)
                clean.push_back(result.total_ns);
        if (!clean.empty() || attempt >= mp.fault_budget)
            break;
        ++run.wirer_retries;
    }
    if (clean.empty()) {
        // Unmeasurable under persistent faults: quarantine the
        // strategy by giving it a time no real measurement can beat.
        run.fault_exhausted = true;
        *stat_ns = 1e300;
        return;
    }
    // End-to-end times are single scalars (no profile key), so the
    // policy's k-repeat applies here directly rather than via the
    // index.
    double sum = 0.0;
    double mn = clean.front();
    for (double ns : clean) {
        sum += ns;
        mn = std::min(mn, ns);
    }
    *stat_ns = mp.statistic == Statistic::Mean
                   ? sum / static_cast<double>(clean.size())
                   : mn;
}

void
CustomWirer::run_strategy(StrategyRun& run, const BindFn& bind)
{
    const int sid = run.sid;
    const AllocStrategy& strat =
        space_.strategies[static_cast<size_t>(sid)];
    obs::ScopedSpan strategy_span(obs::Category::Wire,
                                  "wirer.strategy." + strat.key);
    const std::string& sctx = run.sctx;

    // ---- what-if arming (replay, then measure; §5.13) --------------------
    // Arm only when host replay is provably exact against a dispatch:
    // fault injection perturbs timing beyond the model, and autoboost
    // is admissible only when measurements are normalized back to the
    // base clock the replay simulates at.
    if (opts_.whatif.enabled && opts_.gpu.faults.empty() &&
        (!opts_.gpu.autoboost || opts_.measurement.normalize_clock)) {
        run.whatif = std::make_unique<WhatIfEngine>(
            graph_, *tensor_maps_[static_cast<size_t>(sid)], scheduler_,
            opts_.gpu);
    }

    // One convergence epoch per update-tree stage: trials actually
    // dispatched vs the exhaustive size of the stage's subspace, with
    // the saving attributed to the stage's exploration mode (§4.5),
    // plus the stage's measurement-noise accounting. best_ns and
    // minibatches_total are recorded strategy-local here; explore()
    // rewrites them into the global running values when it merges the
    // runs in strategy order.
    struct StageMark
    {
        int64_t trials = 0;
        int64_t samples = 0;
        int64_t rejected = 0;
        int64_t whatif_evals = 0;
        int64_t measured_configs = 0;
    };
    auto mark = [&]() {
        StageMark m;
        m.trials = run.minibatches;
        m.samples = run.index.total_samples();
        m.rejected = run.index.total_rejected();
        m.whatif_evals = run.whatif_evals;
        m.measured_configs = run.measured_configs;
        return m;
    };
    auto record_epoch = [&](const char* stage, const char* mode,
                            const StageMark& before, int64_t exhaustive,
                            int64_t remeasured, double max_cv) {
        ConvergenceEpoch e;
        e.strategy = sid;
        e.stage = stage;
        e.mode = mode;
        e.trials = run.minibatches - before.trials;
        e.exhaustive = exhaustive;
        e.pruned = std::max<int64_t>(0, exhaustive - e.trials);
        e.best_ns = run.best_seen_ns;
        e.minibatches_total = run.minibatches;
        e.remeasure_trials = remeasured;
        e.samples = run.index.total_samples() - before.samples;
        e.outliers_rejected =
            run.index.total_rejected() - before.rejected;
        e.max_cv = max_cv;
        e.whatif_evals = run.whatif_evals - before.whatif_evals;
        e.measured_configs =
            run.measured_configs - before.measured_configs;
        obs::observe("wire.stage_max_cv", max_cv);
        run.epochs.push_back(std::move(e));
    };

    // ---- plan-store warm start (WirerOptions::warm) ----------------------
    // Pre-bound variables are created with the transferred choice as
    // their default, kept out of the stage trees (so stage exhaustive
    // sizes count only the residual space and pruning attribution
    // stays honest) and never given profile keys — §5.1's discipline:
    // instrument only what is being explored. Seeded statistics are
    // therefore informative (reports, dumps) but can never win a
    // ranking for a residual variable: the neighbor measured a
    // different graph, and its absolute times must not compete with
    // this graph's.
    const WirerWarmStart& warm = opts_.warm;
    std::set<const AdaptiveVariable*> prebound;
    int64_t prebound_space = 1;
    auto seed_stats = [&](const AdaptiveVariable& v) {
        for (int c = 0; c < v.num_options(); ++c) {
            const std::string key = v.profile_key_for(c);
            if (const ProfileStats* s = warm.stats.stats(key)) {
                run.index.restore_entry(key, *s);
                ++run.seeded_keys;
            }
        }
    };
    const int l3_lib =
        warm.preferred_lib >= 0 && warm.preferred_lib < kNumGemmLibs
            ? warm.preferred_lib
            : 0;

    // ---- replay, then measure (§5.13) ------------------------------------
    // While armed, every exploration trial of every stage is ranked on
    // the host: the walk advances over replayed samples that are
    // bit-identical to what a dispatch of the same co-varied config
    // would have measured, so freezes and binds land exactly where the
    // exhaustive sweep's would — without spending the mini-batches.
    // The device still gets the last word: each stage's bound winner
    // is dispatched once for real after bind_best, and the
    // best-of-strategy runs are always measured.
    auto trial = [&](const std::function<ScheduleConfig()>& make_cfg) {
        if (run.whatif)
            replay_trial(run, make_cfg());
        else
            measure_trial(run, make_cfg, bind);
    };

    // ---- variables ------------------------------------------------------
    // Chunk variables for groups fusable under this strategy.
    std::vector<VarPtr> chunk_vars(space_.groups.size());
    std::vector<std::unique_ptr<UpdateNode>> chunk_leaves;
    int64_t chunk_exhaustive = 1;
    if (opts_.features.fusion) {
        for (const FusionGroup& g : space_.groups) {
            if (!strat.group_enabled[static_cast<size_t>(g.id)] ||
                g.chunk_options.size() < 2)
                continue;
            // Transfer the neighbor's chunk if this graph offers the
            // same value; otherwise the variable is residual.
            int warm_idx = -1;
            if (warm.has_config &&
                static_cast<size_t>(g.id) <
                    warm.config.group_chunk.size()) {
                const auto it = std::find(
                    g.chunk_options.begin(), g.chunk_options.end(),
                    warm.config.group_chunk[static_cast<size_t>(g.id)]);
                if (it != g.chunk_options.end())
                    warm_idx = static_cast<int>(
                        it - g.chunk_options.begin());
            }
            auto v = std::make_shared<AdaptiveVariable>(
                g.key + "|chunk",
                static_cast<int>(g.chunk_options.size()),
                warm_idx >= 0 ? warm_idx : 0);
            v->set_context(sctx);
            chunk_vars[static_cast<size_t>(g.id)] = v;
            // While the what-if engine is armed, a transferred choice
            // stays *residual*: exploring it costs host replays, not
            // mini-batches, so the neighbor's plan is verified on this
            // graph instead of trusted.
            if (warm_idx >= 0 && !run.whatif) {
                prebound.insert(v.get());
                ++run.transferred;
                prebound_space = sat_mul(
                    prebound_space,
                    static_cast<int64_t>(g.chunk_options.size()));
                seed_stats(*v);
            } else {
                chunk_leaves.push_back(UpdateNode::leaf(v));
                chunk_exhaustive = sat_mul(
                    chunk_exhaustive,
                    static_cast<int64_t>(g.chunk_options.size()));
            }
        }
    }

    // Library variables: per enabled group and per standalone GEMM.
    // Disabled groups are forced unfused by the scheduler and are
    // owned by a conflicting enabled group under this strategy, so
    // a library variable for them would only inflate the state
    // space (Table 7) without affecting the schedule.
    std::vector<VarPtr> lib_vars(space_.groups.size());
    std::map<NodeId, VarPtr> single_vars;
    std::vector<std::unique_ptr<UpdateNode>> lib_leaves;
    int64_t lib_exhaustive = 1;
    if (opts_.features.kernel_choice) {
        for (const FusionGroup& g : space_.groups) {
            if (!strat.group_enabled[static_cast<size_t>(g.id)])
                continue;
            const int warm_lib =
                warm.has_config &&
                        static_cast<size_t>(g.id) <
                            warm.config.group_lib.size()
                    ? static_cast<int>(
                          warm.config
                              .group_lib[static_cast<size_t>(g.id)])
                    : -1;
            auto v = std::make_shared<AdaptiveVariable>(
                g.key + "|lib", kNumGemmLibs,
                warm_lib >= 0 ? warm_lib : l3_lib);
            v->set_context(sctx);
            lib_vars[static_cast<size_t>(g.id)] = v;
            if (warm_lib >= 0 && !run.whatif) {
                prebound.insert(v.get());
                ++run.transferred;
                prebound_space = sat_mul(prebound_space, kNumGemmLibs);
                // Seed under the context stage B would have used, when
                // the chunk half of that context is already settled.
                const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
                if (!cv || prebound.count(cv.get())) {
                    const int chunk =
                        cv ? g.chunk_options[static_cast<size_t>(
                                 cv->current())]
                           : 1;
                    v->set_context(sctx + g.key + "|ch" +
                                   std::to_string(chunk) + "|");
                    seed_stats(*v);
                }
            } else {
                lib_leaves.push_back(UpdateNode::leaf(v));
                lib_exhaustive = sat_mul(lib_exhaustive, kNumGemmLibs);
            }
        }
        for (NodeId id : space_.single_mms) {
            int warm_lib = -1;
            if (warm.has_config) {
                const auto it = warm.config.single_lib.find(id);
                if (it != warm.config.single_lib.end())
                    warm_lib = static_cast<int>(it->second);
            }
            auto v = std::make_shared<AdaptiveVariable>(
                "n" + std::to_string(id) + "|lib", kNumGemmLibs,
                warm_lib >= 0 ? warm_lib : l3_lib);
            v->set_context(sctx);
            single_vars[id] = v;
            if (warm_lib >= 0 && !run.whatif) {
                prebound.insert(v.get());
                ++run.transferred;
                prebound_space = sat_mul(prebound_space, kNumGemmLibs);
                seed_stats(*v);
            } else {
                lib_leaves.push_back(UpdateNode::leaf(v));
                lib_exhaustive = sat_mul(lib_exhaustive, kNumGemmLibs);
            }
        }
    }

    // ---- config assembly -------------------------------------------------
    auto current_config = [&](bool with_streams) {
        ScheduleConfig cfg;
        cfg.strategy = sid;
        cfg.elementwise_fusion = opts_.features.elementwise_fusion;
        cfg.group_chunk.assign(space_.groups.size(), 1);
        cfg.group_lib.assign(space_.groups.size(), GemmLib::Cublas);
        for (const FusionGroup& g : space_.groups) {
            const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
            if (cv)
                cfg.group_chunk[static_cast<size_t>(g.id)] =
                    g.chunk_options[static_cast<size_t>(
                        cv->current())];
            const auto& lv = lib_vars[static_cast<size_t>(g.id)];
            if (lv)
                cfg.group_lib[static_cast<size_t>(g.id)] =
                    static_cast<GemmLib>(lv->current());
        }
        for (const auto& [id, v] : single_vars)
            cfg.single_lib[id] = static_cast<GemmLib>(v->current());
        cfg.use_streams = with_streams;
        cfg.num_streams = opts_.num_streams;
        return cfg;
    };

    // ---- transfer priming (plan store, L2) -------------------------------
    // Measure the transferred configuration once before exploring the
    // residual space: it seeds best-so-far (the neighbor's winner is
    // the bar every residual trial must beat) and gives the journal a
    // concrete measurement of the inherited plan. No profile keys — the
    // pre-bound variables are settled, not explored.
    if (warm.has_config) {
        const StageMark before = mark();
        measure_trial(
            run, [&]() { return current_config(false); }, bind);
        record_epoch("transfer", "store", before,
                     prebound_space > 1 ? prebound_space : 0, 0, 0.0);
    }

    // ---- stage A: fusion chunks (Parallel, §4.5.1) -----------------------
    if (!chunk_leaves.empty()) {
        obs::ScopedSpan stage_span(obs::Category::Wire,
                                   "wirer.stage.chunks");
        const StageMark before = mark();
        auto stage = UpdateNode::composite(
            UpdateNode::Mode::Parallel, std::move(chunk_leaves));
        auto chunk_cfg = [&]() {
            ScheduleConfig cfg = current_config(false);
            for (const FusionGroup& g : space_.groups) {
                const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
                if (cv && !prebound.count(cv.get()))
                    cfg.group_keys[g.id] = cv->profile_key();
            }
            return cfg;
        };
        stage->initialize();
        while (true) {
            trial(chunk_cfg);
            if (run.truncated || stage->finished())
                break;
            stage->advance(run.index);
        }
        const int64_t extra =
            resolve_ambiguity(run, *stage, chunk_cfg, bind);
        stage->bind_best(run.index);
        if (run.whatif)  // measure the stage's bound winner
            measure_trial(run, chunk_cfg, bind);
        record_epoch("chunks", "parallel", before, chunk_exhaustive,
                     extra, stage_max_cv(*stage, run.index));
    }

    // ---- stage B: kernel libraries (context = bound chunks, §4.6) -------
    if (!lib_leaves.empty()) {
        obs::ScopedSpan stage_span(obs::Category::Wire,
                                   "wirer.stage.libs");
        const StageMark before = mark();
        for (const FusionGroup& g : space_.groups) {
            const auto& lv = lib_vars[static_cast<size_t>(g.id)];
            if (!lv)
                continue;
            const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
            const int chunk =
                cv ? g.chunk_options[static_cast<size_t>(
                         cv->current())]
                   : 1;
            lv->set_context(sctx + g.key + "|ch" +
                            std::to_string(chunk) + "|");
        }
        auto stage = UpdateNode::composite(
            UpdateNode::Mode::Parallel, std::move(lib_leaves));
        auto lib_cfg = [&]() {
            ScheduleConfig cfg = current_config(false);
            for (const FusionGroup& g : space_.groups) {
                const auto& lv = lib_vars[static_cast<size_t>(g.id)];
                if (lv && !prebound.count(lv.get()))
                    cfg.group_keys[g.id] = lv->profile_key();
            }
            for (const auto& [id, v] : single_vars)
                if (!prebound.count(v.get()))
                    cfg.single_keys[id] = v->profile_key();
            return cfg;
        };
        stage->initialize();
        while (true) {
            trial(lib_cfg);
            if (run.truncated || stage->finished())
                break;
            stage->advance(run.index);
        }
        const int64_t extra =
            resolve_ambiguity(run, *stage, lib_cfg, bind);
        stage->bind_best(run.index);
        if (run.whatif)  // measure the stage's bound winner
            measure_trial(run, lib_cfg, bind);
        record_epoch("libs", "parallel", before, lib_exhaustive, extra,
                     stage_max_cv(*stage, run.index));
    }

    // ---- stage C: stream scheduling (§4.5.3-4.5.5) ------------------------
    std::map<std::pair<int, int>, VarPtr> epoch_vars;
    if (opts_.features.streams) {
        obs::ScopedSpan stage_span(obs::Category::Wire,
                                   "wirer.stage.streams");
        const StageMark before = mark();
        int64_t stream_exhaustive = 1;
        const std::shared_ptr<const StreamSpace> ss =
            scheduler_.cached_stream_space(current_config(false),
                                           opts_.num_streams);

        // Parallel over super-epochs; Prefix over epochs within.
        std::map<int, std::vector<const EpochInfo*>> by_se;
        for (const EpochInfo& e : ss->epochs)
            by_se[e.super_epoch].push_back(&e);

        // Warm stream transfer is all-or-nothing: a Prefix freeze
        // mangles later epochs' contexts, so a partially pre-bound
        // stream stage would explore its residual epochs under
        // contexts no measurement can ever share. Either every epoch
        // of this graph's stream space has a valid transferred choice
        // (pre-bind them all, skip the stage) or none does (explore
        // the full stage as residual). The neighbor choosing serial
        // (use_streams=false) transfers nothing: this graph may still
        // profit from streams.
        bool warm_streams = warm.has_config && warm.config.use_streams;
        if (warm_streams)
            for (const auto& [se, epochs] : by_se)
                for (const EpochInfo* e : epochs) {
                    const auto it =
                        warm.config.epoch_choice.find({se, e->level});
                    if (it == warm.config.epoch_choice.end() ||
                        it->second < 0 ||
                        it->second >=
                            static_cast<int>(e->options.size()))
                        warm_streams = false;
                }
        if (warm_streams) {
            int64_t stream_space = 1;
            for (const auto& [se, epochs] : by_se)
                for (const EpochInfo* e : epochs) {
                    auto v = std::make_shared<AdaptiveVariable>(
                        "se" + std::to_string(se) + "e" +
                            std::to_string(e->level) + "|split",
                        static_cast<int>(e->options.size()),
                        warm.config.epoch_choice.at({se, e->level}));
                    v->set_context(sctx);
                    epoch_vars[{se, e->level}] = v;
                    prebound.insert(v.get());
                    ++run.transferred;
                    stream_space = sat_mul(
                        stream_space,
                        static_cast<int64_t>(e->options.size()));
                }
            record_epoch("streams", "store", before, stream_space, 0,
                         0.0);
        } else {

        // Epoch variables frozen by their Prefix node. A frozen
        // epoch's binding extends later epochs' contexts, so it
        // must never change again — and its span is no longer
        // profiled: post-freeze samples are taken while *later*
        // epochs vary, and the cross-epoch stream interference
        // they carry would pollute the frozen key's statistics
        // (harmless for min, ruinous for mean). Not instrumenting
        // settled spans is also the paper's overhead discipline
        // (§5.1: profile only what is being explored).
        std::set<const AdaptiveVariable*> frozen;

        std::vector<std::unique_ptr<UpdateNode>> se_nodes;
        for (const auto& [se, epochs] : by_se) {
            std::vector<std::unique_ptr<UpdateNode>> epoch_leaves;
            std::vector<VarPtr> se_vars;
            for (const EpochInfo* e : epochs) {
                auto v = std::make_shared<AdaptiveVariable>(
                    "se" + std::to_string(se) + "e" +
                        std::to_string(e->level) + "|split",
                    static_cast<int>(e->options.size()), 0);
                v->set_context(sctx);
                epoch_vars[{se, e->level}] = v;
                se_vars.push_back(v);
                epoch_leaves.push_back(UpdateNode::leaf(v));
                stream_exhaustive = sat_mul(
                    stream_exhaustive,
                    static_cast<int64_t>(e->options.size()));
            }
            auto prefix = UpdateNode::composite(
                UpdateNode::Mode::Prefix, std::move(epoch_leaves));
            // History-awareness: once an epoch is frozen, its
            // binding becomes part of later epochs' contexts.
            prefix->set_on_child_bound(
                [se_vars, &frozen](int idx) {
                    frozen.insert(
                        se_vars[static_cast<size_t>(idx)].get());
                    const std::string suffix =
                        se_vars[static_cast<size_t>(idx)]->key() +
                        "b" +
                        std::to_string(
                            se_vars[static_cast<size_t>(idx)]
                                ->current()) +
                        "|";
                    for (size_t j = static_cast<size_t>(idx) + 1;
                         j < se_vars.size(); ++j)
                        se_vars[j]->set_context(
                            se_vars[j]->context() + suffix);
                });
            se_nodes.push_back(std::move(prefix));
        }
        auto stage = UpdateNode::composite(
            UpdateNode::Mode::Parallel, std::move(se_nodes));
        auto stream_cfg = [&]() {
            ScheduleConfig cfg = current_config(true);
            for (const auto& [key, v] : epoch_vars) {
                cfg.epoch_choice[key] = v->current();
                if (!frozen.count(v.get()))
                    cfg.epoch_keys[key] = v->profile_key();
            }
            return cfg;
        };
        // Ambiguity must be resolved *before* a Prefix freeze, not
        // after the sweep: once an epoch is frozen its binding is
        // baked into later epochs' contexts. So each loop step
        // re-measures any fully-swept, not-yet-frozen epoch whose
        // top two contenders are still inside the noise floor, and
        // only then lets advance() freeze it.
        auto about_to_freeze = [&](const AdaptiveVariable& v) {
            return v.finished() && !frozen.count(&v);
        };
        // The stream walk must never skip a trial (§5.13): an epoch
        // span is a wall-clock barrier-to-barrier duration, and host
        // launch pipelining couples it to the co-varied walk state of
        // every *other* super-epoch — skipping trials in one SE shifts
        // its partners' trial states and can flip their near-tie
        // freezes. So while armed the stage keeps the exhaustive
        // walk's exact trial sequence and replays it instead (trial()
        // above): the index evolves bit-identically, every freeze
        // lands where the measured sweep's would, and the mini-batches
        // stay unspent.
        int64_t extra = 0;
        stage->initialize();
        while (true) {
            trial(stream_cfg);
            if (run.truncated)
                break;
            extra += resolve_ambiguity(run, *stage, stream_cfg, bind,
                                       about_to_freeze);
            if (run.truncated || stage->finished())
                break;
            stage->advance(run.index);
        }
        stage->bind_best(run.index);
        if (run.whatif)  // measure the stage's bound winner
            measure_trial(run, stream_cfg, bind);
        record_epoch("streams", "prefix", before, stream_exhaustive,
                     extra, stage_max_cv(*stage, run.index));
        }
    }

    // ---- best-of-strategy run ---------------------------------------------
    // Always measured, even when the safety valve already tripped:
    // the caller needs an end-to-end time for the bound best to be
    // usable (the valve may overshoot by the final k repeats).
    const StageMark final_before = mark();
    ScheduleConfig best = current_config(opts_.features.streams);
    for (const auto& [key, v] : epoch_vars)
        best.epoch_choice[key] = v->current();
    double final_stat = 0.0;
    measure_final(run, best, bind, &final_stat);
    if (opts_.features.streams) {
        // Streams are themselves an optimization choice: compare
        // the streamed winner against the same binding without
        // streams and keep whichever measures faster (dynamic
        // adaptation can turn any optimization off, §6.6). The
        // comparison uses the policy statistic over k repeats so
        // clock jitter cannot flip it.
        ScheduleConfig serial = best;
        serial.use_streams = false;
        serial.epoch_choice.clear();
        double serial_stat = 0.0;
        measure_final(run, serial, bind, &serial_stat);
        if (serial_stat < final_stat) {
            best = serial;
            final_stat = serial_stat;
        }
    }
    run.best_config = std::move(best);
    run.final_stat = final_stat;
    const int64_t final_trials = run.minibatches - final_before.trials;
    record_epoch("final", "hierarchical", final_before, final_trials, 0,
                 0.0);
}

WirerResult
CustomWirer::explore(const BindFn& bind)
{
    obs::ScopedSpan explore_span(obs::Category::Wire, "wirer.explore");
    WirerResult out;

    const int num_strategies =
        opts_.features.alloc
            ? static_cast<int>(space_.strategies.size())
            : 1;
    out.strategy_ns.assign(space_.strategies.size(), -1.0);

    // An L2 warm start transfers the neighbor's allocation-strategy
    // decision too: only that strategy's residual space is explored.
    // Resume journals are indexed by strategy position, so a journal
    // recorded without the warm restriction cannot replay under it —
    // warm start wins and the journal is dropped (with a warning; the
    // combination indicates a driver mixing two recovery mechanisms).
    std::vector<int> sids;
    if (opts_.warm.has_config && opts_.warm.config.strategy >= 0 &&
        opts_.warm.config.strategy < num_strategies)
        sids.push_back(opts_.warm.config.strategy);
    else
        for (int sid = 0; sid < num_strategies; ++sid)
            sids.push_back(sid);
    if (opts_.warm.has_config && !resume_.empty()) {
        warn("wirer: ignoring resume journal under plan-store warm "
             "start (journals are positional; the warm restriction "
             "changes the strategy set)");
        resume_ = WirerCheckpoint{};
    }

    // The exploration's share of the scheduler's process-lifetime
    // plan-cache tallies.
    const int64_t cache_hits0 = scheduler_.plan_cache_hits();
    const int64_t cache_misses0 = scheduler_.plan_cache_misses();

    // Deterministic budget partition: each strategy owns its share of
    // the safety valve up front (see WirerOptions::max_minibatches), so
    // truncation decisions never depend on how concurrent pipelines
    // interleave. The runs live in a member so their journals survive
    // an exception thrown out of a pipeline — checkpoint() can then
    // persist everything that was measured before the crash.
    runs_.clear();
    runs_.reserve(sids.size());
    const int64_t budget = std::max<int64_t>(0, opts_.max_minibatches);
    const int64_t num_runs = static_cast<int64_t>(sids.size());
    for (int64_t i = 0; i < num_runs; ++i) {
        const int sid = sids[static_cast<size_t>(i)];
        const int64_t quota =
            budget / num_runs + (i < budget % num_runs ? 1 : 0);
        runs_.push_back(std::make_unique<StrategyRun>(
            sid,
            opts_.context_prefix +
                space_.strategies[static_cast<size_t>(sid)].key + "|",
            quota, opts_.measurement, opts_.gpu));
        if (static_cast<size_t>(i) < resume_.strategies.size())
            runs_.back()->resume =
                &resume_.strategies[static_cast<size_t>(i)];
    }

    // Fan out one pipeline per strategy. threads=1 constructs a pool
    // with no workers, and parallel_for degenerates to the serial loop
    // — one code path for both regimes. parallel_for completes the
    // whole batch before rethrowing a pipeline's exception, so no
    // other strategy's work leaks past the unwind.
    ThreadPool pool(std::max(1, opts_.threads));
    pool_ = &pool;
    try {
        pool.parallel_for(num_runs, [&](int64_t i) {
            run_strategy(*runs_[static_cast<size_t>(i)], bind);
        });
    } catch (...) {
        pool_ = nullptr;
        throw;
    }
    pool_ = nullptr;

    // ---- deterministic merge (strategy order) -----------------------------
    // Reproduces exactly what the serial wirer accumulated when it ran
    // the strategies one after another: epochs concatenate in strategy
    // order, local mini-batch totals shift by the running offset, local
    // best-so-far times fold into a global running minimum, and the
    // cross-strategy argmin breaks ties toward the lowest strategy
    // index (strict <).
    double best_ns = -1.0;
    double best_seen = -1.0;
    int64_t mb_offset = 0;
    bool fault_exhausted = false;
    bool cut_mid_replay = false;
    out.index = ProfileIndex(opts_.measurement);
    for (const std::unique_ptr<StrategyRun>& runp : runs_) {
        StrategyRun& run = *runp;
        for (ConvergenceEpoch e : run.epochs) {
            if (e.best_ns >= 0.0)
                best_seen = best_seen < 0.0
                                ? e.best_ns
                                : std::min(best_seen, e.best_ns);
            e.best_ns = best_seen;
            e.minibatches_total += mb_offset;
            out.convergence.epochs.push_back(std::move(e));
        }
        mb_offset += run.minibatches;
        out.minibatches += run.minibatches;
        out.truncated = out.truncated || run.truncated;
        out.replayed_minibatches += run.replayed;
        fault_exhausted = fault_exhausted || run.fault_exhausted;
        cut_mid_replay =
            cut_mid_replay ||
            (run.truncated && run.resume != nullptr &&
             run.replay_pos < run.resume->size());
        out.convergence.faults.injected_kernel_faults += run.faults_seen;
        out.convergence.faults.straggler_events += run.straggler_events;
        out.convergence.faults.faulted_minibatches +=
            run.faulted_minibatches;
        out.convergence.faults.dispatch_retries += run.fault_attempts;
        out.convergence.faults.wirer_retries += run.wirer_retries;
        out.convergence.faults.backoff_ns += run.backoff_ns;
        out.convergence.store_transferred_bindings += run.transferred;
        out.convergence.store_seeded_keys += run.seeded_keys;
        out.convergence.whatif_evals += run.whatif_evals;
        out.convergence.measured_configs += run.measured_configs;
        out.index.merge(run.index);
        out.strategy_ns[static_cast<size_t>(run.sid)] = run.final_stat;
        if (best_ns < 0.0 || run.final_stat < best_ns) {
            best_ns = run.final_stat;
            out.best_config = run.best_config;
        }
    }
    out.convergence.faults.quarantined_keys = static_cast<int64_t>(
        out.index.quarantined_keys().size());

    // Termination reason, in increasing priority. "resume" surfaces
    // only when the budget cut exploration while a journal was still
    // replaying; a resumed run that completes reports exactly what the
    // uninterrupted run would (bit-identical reports).
    out.termination = WirerTermination::Complete;
    if (out.truncated)
        out.termination = WirerTermination::Budget;
    if (cut_mid_replay)
        out.termination = WirerTermination::Resume;
    if (fault_exhausted)
        out.termination = WirerTermination::FaultQuarantine;
    out.convergence.termination = wirer_termination_name(out.termination);

    out.best_ns = best_ns;
    out.convergence.best_ns = best_ns;
    out.convergence.minibatches = out.minibatches;
    out.convergence.plan_cache_hits =
        scheduler_.plan_cache_hits() - cache_hits0;
    out.convergence.plan_cache_misses =
        scheduler_.plan_cache_misses() - cache_misses0;
    obs::counter("wire.explorations").add();
    if (out.truncated)
        obs::counter("wire.truncations").add();
    if (out.convergence.faults.faulted_minibatches > 0)
        obs::counter("wire.faulted_minibatches")
            .add(out.convergence.faults.faulted_minibatches);
    if (fault_exhausted)
        obs::counter("wire.fault_quarantines").add();
    return out;
}

void
CustomWirer::checkpoint(std::ostream& os) const
{
    WirerCheckpoint cp;
    cp.strategies.reserve(runs_.size());
    for (const std::unique_ptr<StrategyRun>& run : runs_)
        cp.strategies.push_back(run->journal);
    write_checkpoint(os, cp);
}

void
CustomWirer::resume(WirerCheckpoint cp)
{
    resume_ = std::move(cp);
}

}  // namespace astra
