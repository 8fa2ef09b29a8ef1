/**
 * @file
 * The custom wirer (paper §4.7): online, work-conserving exploration of
 * the enumerated state space.
 *
 * Every trial is a real training mini-batch dispatched on the device;
 * fine-grained cudaEvent measurements land in the profile index under
 * context-mangled keys, and the update tree advances. The exploration
 * is phased exactly like the paper's update tree:
 *
 *   for each allocation strategy (hierarchical fork, §4.5.2):
 *     stage A: Parallel over fusion-group chunk variables
 *     stage B: Parallel over kernel-library variables
 *              (context: the bound chunk of stage A)
 *     stage C: Parallel over super-epochs; Prefix over epochs inside
 *              each; flattened Exhaustive within an epoch
 *     best-of-strategy run (end-to-end measurement)
 *   pick the fastest strategy's configuration.
 */
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/adaptive.h"
#include "core/config_io.h"
#include "core/scheduler.h"
#include "core/whatif.h"
#include "obs/convergence.h"
#include "runtime/dispatcher.h"
#include "support/thread_pool.h"

namespace astra {

/** Which adaptation dimensions are active (Astra_F / FK / FKS / all). */
struct AstraFeatures
{
    bool fusion = true;          ///< GEMM fusion chunk adaptation (F)
    bool kernel_choice = true;   ///< GEMM library adaptation (K)
    bool streams = true;         ///< multi-stream scheduling (S)
    bool alloc = true;           ///< allocation-strategy fork (all)
    bool elementwise_fusion = true;
};

/** Feature presets matching the paper's evaluation columns. */
AstraFeatures features_f();
AstraFeatures features_fk();
AstraFeatures features_fks();
AstraFeatures features_all();

/**
 * Knowledge transferred from the plan store (core/plan_store.h) into an
 * exploration. With a config (an L2 shape-neighbor's winner) the wirer
 * restricts itself to the neighbor's allocation strategy, pre-binds
 * every variable whose transferred choice is valid in this graph's
 * space (pre-bound variables are excluded from stage exploration *and*
 * from profiling — §5.1: instrument only what is being explored),
 * measures the transferred configuration once up front to seed
 * best-so-far, seeds the profile shard with the neighbor's statistics
 * for the pre-bound keys, and explores only the residual space. With
 * only a preferred library (L3 priors) the library variables start at
 * the fleet-wide favorite — a biased ordering, not a binding, so the
 * converged configuration is unchanged.
 */
struct WirerWarmStart
{
    /** True when `config` carries an L2 neighbor's winner. */
    bool has_config = false;

    /** The neighbor's winning configuration. */
    ScheduleConfig config;

    /** The neighbor's measurement statistics (seeds pre-bound keys). */
    ProfileIndex stats;

    /** L3 prior: fleet-favorite library, or -1 for none. */
    int preferred_lib = -1;
};

/** Options for the custom wirer. */
struct WirerOptions
{
    AstraFeatures features;
    GpuConfig gpu;
    SchedulerOptions sched;
    int num_streams = 2;

    /** Plan-store knowledge to start from (none by default). */
    WirerWarmStart warm;

    /**
     * Prefix mangled into every profile key (bucketed profiling adds
     * the bucket id here, §5.5).
     */
    std::string context_prefix;

    /**
     * Safety valve on total exploration mini-batches. Exhausting it
     * never aborts: exploration stops, everything measured so far is
     * bound to its best, and WirerResult::truncated is set. The budget
     * is partitioned evenly across allocation strategies up front
     * (each strategy owns its share), so which trials the valve cuts
     * is a deterministic function of the options — never of how
     * concurrent strategies happen to interleave.
     */
    int64_t max_minibatches = 200000;

    /**
     * Host threads for exploration (1 = fully serial). Allocation
     * strategies explore on worker threads, each with its own profile
     * shard, clock domain and simulated device; independent repeat
     * measurements of one configuration batch across workers too. Any
     * value produces bit-identical results to threads=1: every ordered
     * reduction (profile merge, convergence report, cross-strategy
     * argmin with lowest-index ties) happens after the join, in
     * strategy order. With a BindFn, trials that mutate tensors stay
     * sequential within a strategy, but distinct strategies' binds run
     * concurrently — the callback must tolerate that (the tensor maps
     * are disjoint per strategy).
     */
    int threads = 1;

    /**
     * How measurements accumulate and when rankings are decisive
     * (MeasurementPolicy{} reproduces the paper's one-measurement
     * regime; MeasurementPolicy::noise_robust() survives autoboost).
     */
    MeasurementPolicy measurement;

    /**
     * What-if decision path (§5.13): replay every exploration trial on
     * the host, then measure each stage's winner. Off (the default)
     * measures every trial. The engine only arms when its replay is
     * provably exact against a dispatch: no fault injection, and either
     * autoboost off or measurements normalized to base clock.
     */
    WhatIfOptions whatif;
};

/**
 * Called before each exploration mini-batch so the caller can load the
 * next real training batch into the strategy's tensor map (work
 * conservation). May be empty for timing-only sweeps. `minibatch`
 * numbers the trials *within the strategy* owning the tensor map
 * (0, 1, 2, ... per strategy): strategy pipelines may run on separate
 * threads, so a global sequence number would depend on scheduling.
 * With threads > 1 the callback runs concurrently for different
 * strategies and must be thread-safe across distinct tensor maps.
 */
using BindFn = std::function<void(const TensorMap&, int64_t minibatch)>;

/**
 * Machine-readable reason the exploration ended the way it did.
 * A resumed run that then completes normally reports Complete — resume
 * is only surfaced when the budget cut exploration short while the
 * journal was still replaying, because an uninterrupted run must be
 * indistinguishable (bit-identical report included) from a resumed one.
 */
enum class WirerTermination
{
    Complete,         ///< full sweep, everything bound from measurements
    Budget,           ///< the mini-batch safety valve tripped
    FaultQuarantine,  ///< a config exhausted its fault-retry budget
    Resume,           ///< truncated while still replaying a checkpoint
};

/** Stable string name ("complete", "budget", ...), for reports. */
const char* wirer_termination_name(WirerTermination t);

/** Outcome of one full exploration. */
struct WirerResult
{
    /** The winning configuration (strategy, chunks, libs, streams). */
    ScheduleConfig best_config;

    /** Measured end-to-end time of the winning configuration (ns). */
    double best_ns = 0.0;

    /** Mini-batches used for exploration (Table 7's "configs"). */
    int64_t minibatches = 0;

    /**
     * True when the mini-batch safety valve cut exploration short;
     * best_config is then the best of what was actually measured.
     */
    bool truncated = false;

    /** Why exploration stopped (refines `truncated` into a reason). */
    WirerTermination termination = WirerTermination::Complete;

    /**
     * Mini-batches satisfied from a resume journal instead of being
     * dispatched (0 when exploration started fresh).
     */
    int64_t replayed_minibatches = 0;

    /** Per-strategy best end-to-end times, indexed by strategy id. */
    std::vector<double> strategy_ns;

    /** Final profile index (for inspection/tests). */
    ProfileIndex index;

    /**
     * Per-stage exploration history: best-so-far time, trials spent,
     * and pruning attribution by exploration mode (obs/convergence.h).
     */
    ConvergenceReport convergence;
};

/** Runs the online exploration for one graph + search space. */
class CustomWirer
{
  public:
    /**
     * @param tensor_maps one TensorMap per allocation strategy, realized
     *        with that strategy's adjacency runs.
     */
    CustomWirer(const Graph& graph, const SearchSpace& space,
                const Scheduler& scheduler,
                const std::vector<const TensorMap*>& tensor_maps,
                WirerOptions opts);
    ~CustomWirer();

    /** Explore; every trial dispatches a real mini-batch. */
    WirerResult explore(const BindFn& bind = {});

    /**
     * Serialize the measurement journal of the most recent explore()
     * call — including one that exited by exception: per-strategy
     * journals survive the unwind, so a crashed exploration can still
     * checkpoint everything its dispatches measured. (Dispatches whose
     * batch was interrupted before accounting are simply absent; a
     * resume re-runs them live.)
     */
    void checkpoint(std::ostream& os) const;

    /**
     * Arm the next explore() call to replay `cp` before dispatching
     * anything new: each strategy's first journal-length mini-batches
     * are satisfied from the journal (consuming the same clock draws,
     * fault salts and plan-cache fetches a live dispatch would), then
     * exploration continues live. The resumed result is bit-identical
     * to an uninterrupted run over the same options.
     */
    void resume(WirerCheckpoint cp);

  private:
    /**
     * All mutable state of one allocation strategy's exploration
     * pipeline. Each strategy owns a StrategyRun exclusively for the
     * duration of explore(): a private ProfileIndex shard (strategy
     * context prefixes make the key sets disjoint), its own mini-batch
     * accounting against a pre-partitioned budget share, a ClockDomain
     * whose boost draws depend only on this strategy's measurement
     * sequence, and the stage history for the convergence report. The
     * shards are merged deterministically (strategy order) after the
     * join — concurrent pipelines share nothing mutable.
     */
    struct StrategyRun;

    /**
     * Dispatch `repeats` mini-batches of one configuration, recording
     * results (profiles, best-seen, counters) in repeat order. The
     * plan is fetched through the scheduler's cache — once up front on
     * the calling thread, then per dispatch — so repeats never
     * re-lower and concurrent fetches always hit. Repeats run
     * concurrently on the pool when nothing mutates shared tensors
     * (no BindFn, timing-only device); otherwise they stay sequential
     * — the same rule at every thread count, so results are identical.
     * No budget logic here: callers reserve first.
     *
     * @return the dispatch results, in repeat order.
     */
    std::vector<DispatchResult>
    dispatch_batch(StrategyRun& run, const ScheduleConfig& config,
                   int repeats, const BindFn& bind);

    /**
     * One exploration trial: measure the current assignment
     * `min_samples` times (once under the default policy), so that
     * binding decisions taken mid-sweep — Prefix-mode freezes, §4.5.4
     * — already see averaged statistics. Sets the run's truncated flag
     * when its budget share cannot cover the repeats.
     */
    void measure_trial(StrategyRun& run,
                       const std::function<ScheduleConfig()>& make_cfg,
                       const BindFn& bind);

    /**
     * One *replayed* exploration trial (§5.13): evaluate the
     * exact co-varied configuration the walk is about to dispatch on
     * the host instead, and drop the replayed profile samples into the
     * shard as if they had been measured. Replay is bit-exact against
     * a dispatch of the same config at base clock (the arming
     * predicate), so the profile index — and with it every later
     * freeze, bind and decision — evolves identically to the
     * exhaustive run while the mini-batch stays unspent. Requires
     * run.whatif armed.
     */
    void replay_trial(StrategyRun& run, const ScheduleConfig& config);

    /**
     * k-repeat re-measurement (measurement policy): while any variable
     * in the stage has a non-decisive ranking, set every ambiguous
     * variable to its least-sampled top-2 contender and dispatch one
     * more mini-batch (all ambiguous variables re-measure in parallel,
     * §4.5.1). Stops when all rankings are decisive, the policy's
     * repeat budget is spent, or the safety valve trips.
     *
     * @param make_cfg builds the stage's config with profile keys for
     *        the variables' current choices.
     * @param eligible optional filter; variables failing it are never
     *        re-measured (the stream stage uses it to target only the
     *        variable about to be frozen by Prefix mode — frozen
     *        variables can no longer change, so re-measuring them
     *        would burn budget without converging).
     * @return extra mini-batches spent.
     */
    int64_t resolve_ambiguity(
        StrategyRun& run, UpdateNode& stage,
        const std::function<ScheduleConfig()>& make_cfg,
        const BindFn& bind,
        const std::function<bool(const AdaptiveVariable&)>& eligible = {});

    /**
     * Measure a bound configuration end-to-end, repeating up to the
     * policy's min_samples and reducing with the policy statistic (one
     * run under the default policy). The first dispatch is
     * unconditional — the valve may overshoot by the final repeats so
     * a truncated result is still dispatchable.
     *
     * @param[out] stat_ns the policy-reduced end-to-end time.
     */
    void measure_final(StrategyRun& run, const ScheduleConfig& config,
                       const BindFn& bind, double* stat_ns);

    /** One strategy's full pipeline: stages A-C + best-of-strategy. */
    void run_strategy(StrategyRun& run, const BindFn& bind);

    const Graph& graph_;
    const SearchSpace& space_;
    const Scheduler& scheduler_;
    std::vector<const TensorMap*> tensor_maps_;
    WirerOptions opts_;

    /** Fan-out pool, alive only during explore(). */
    ThreadPool* pool_ = nullptr;

    /**
     * Per-strategy state of the most recent explore(). A member (not a
     * local) so the journals survive an exception thrown out of the
     * exploration — checkpoint() reads them afterwards.
     */
    std::vector<std::unique_ptr<StrategyRun>> runs_;

    /** Journal armed by resume() for the next explore(). */
    WirerCheckpoint resume_;
};

}  // namespace astra
