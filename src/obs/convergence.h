/**
 * @file
 * Convergence reporting for the custom wirer's online exploration.
 *
 * The wirer (paper §4.7) walks the update tree stage by stage; each
 * stage is one "exploration epoch" of the report: how many real
 * mini-batch trials it spent, how large the exhaustive subspace it
 * covered would have been, and the best end-to-end mini-batch time
 * seen so far when the stage finished. The difference between the
 * exhaustive size and the trials actually run is the pruning won by
 * that stage's exploration mode (Parallel / Prefix / Hierarchical —
 * §4.5), which is what Table 7's state-space reduction quantifies.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace astra {

/** One exploration stage of one allocation strategy. */
struct ConvergenceEpoch
{
    /** Allocation-strategy index (hierarchical fork, §4.5.2). */
    int strategy = 0;

    /** Stage label: "chunks", "libs", "streams", or "final". */
    std::string stage;

    /** Exploration mode that pruned it: "parallel", "prefix", ... */
    std::string mode;

    /** Real mini-batches this stage dispatched. */
    int64_t trials = 0;

    /** Exhaustive size of the stage's subspace (product of choices). */
    int64_t exhaustive = 0;

    /** Configurations skipped thanks to the mode (exhaustive-trials). */
    int64_t pruned = 0;

    /** Best end-to-end mini-batch time seen so far (ns; -1 if none). */
    double best_ns = -1.0;

    /** Cumulative mini-batches dispatched when the stage ended. */
    int64_t minibatches_total = 0;

    // ---- measurement-noise accounting (statistics-bearing index) ---------

    /** Extra mini-batches spent re-measuring non-decisive rankings. */
    int64_t remeasure_trials = 0;

    /** Profile-index samples accepted during the stage. */
    int64_t samples = 0;

    /** Samples the index's MAD outlier test rejected in the stage. */
    int64_t outliers_rejected = 0;

    /**
     * Worst per-key coefficient of variation among the stage's
     * variables' measured choices (0 at base clock; grows with
     * autoboost-style jitter, §7).
     */
    double max_cv = 0.0;

    // ---- what-if accounting (core/whatif.h, §5.13) -----------------------

    /** Host replays the stage spent (replayed exploration trials). */
    int64_t whatif_evals = 0;

    /** Dispatched configurations (>= 1 live mini-batch each). */
    int64_t measured_configs = 0;
};

/**
 * Fault-injection and fault-tolerance accounting for one exploration
 * (all zeros on a fault-free run). Distinguishes the two retry layers:
 * dispatch_retries are the dispatcher's own abort-and-replay attempts
 * inside a mini-batch transaction; wirer_retries are whole-trial
 * re-measurements after every repeat of a trial came back faulted.
 */
struct FaultReport
{
    /** Transient kernel faults injected across all dispatch attempts. */
    int64_t injected_kernel_faults = 0;

    /** Straggler latency spikes injected. */
    int64_t straggler_events = 0;

    /** Mini-batches still faulted after the dispatcher's retries. */
    int64_t faulted_minibatches = 0;

    /** Dispatcher-level abort-and-replay attempts. */
    int64_t dispatch_retries = 0;

    /** Wirer-level whole-trial re-measurements. */
    int64_t wirer_retries = 0;

    /** Profile keys quarantined (only ever faulted, never sampled). */
    int64_t quarantined_keys = 0;

    /** Simulated exponential-backoff time between retry attempts. */
    double backoff_ns = 0.0;
};

/** Full exploration history, retrievable from WirerResult. */
struct ConvergenceReport
{
    std::vector<ConvergenceEpoch> epochs;

    /** Final best end-to-end time (matches WirerResult::best_ns). */
    double best_ns = -1.0;

    /** Total exploration mini-batches. */
    int64_t minibatches = 0;

    /**
     * Why exploration stopped: "complete", "budget" (safety valve),
     * "fault_quarantine" (a config exhausted its fault-retry budget),
     * or "resume" (the valve tripped while a checkpoint journal was
     * still replaying). See core/wirer.h's WirerTermination.
     */
    std::string termination = "complete";

    /** Fault-injection / fault-tolerance accounting. */
    FaultReport faults;

    // ---- plan-store accounting (core/plan_store.h) -----------------------

    /**
     * Which rung of the knowledge-base ladder answered this job:
     * "miss" (cold), "l3" (library priors), "l2" (shape-neighbor
     * transfer), "l1" (exact hit, wiring skipped), or "" when no store
     * was configured.
     */
    std::string store_tier;

    /** Variables pre-bound from a transferred L2 configuration. */
    int64_t store_transferred_bindings = 0;

    /** Profile keys seeded from a neighbor's stored statistics. */
    int64_t store_seeded_keys = 0;

    /**
     * Diagnoses of store entries that were present but rejected
     * (corrupt, truncated, wrong version) during lookup — a decaying
     * store is visible here instead of silently cold-starting.
     */
    std::vector<std::string> store_errors;

    /**
     * L1 exact hits whose verification mini-batch drifted beyond
     * MeasurementPolicy::store_drift_rel of the stored timing and were
     * demoted to L2 warm starts instead of being adopted outright.
     */
    int64_t store_drift_demotions = 0;

    // ---- coverage diagnostics --------------------------------------------

    /**
     * Data-parallel degrees measure_scaling() skipped (degree does not
     * divide the global batch), one human-readable diagnosis each — a
     * sweep that silently measured fewer points than asked is visible
     * here.
     */
    std::vector<std::string> dp_skipped;

    /**
     * Mini-batch lengths that overflowed the largest profiling bucket
     * and were clamped (BucketedAstra::bucket_for). A nonzero tally
     * means steady-state dispatches ran on a plan wired for a shorter
     * sequence.
     */
    int64_t bucket_overflows = 0;

    // ---- what-if accounting (core/whatif.h, §5.13) -----------------------

    /** Total host replays across the exploration (0 when off). */
    int64_t whatif_evals = 0;

    /**
     * Always 0: the cost predictor that masked options is gone, and no
     * writer emits this field. Kept only because the benchmark harness
     * still reads it; delete it at the next change to the benchmark.
     */
    int64_t predictor_pruned = 0;

    /** Total configurations that cost at least one live mini-batch. */
    int64_t measured_configs = 0;

    // ---- plan-cache accounting (Scheduler::build_cached) -----------------

    /** Dispatches that reused an already-lowered ExecutionPlan. */
    int64_t plan_cache_hits = 0;

    /** Dispatches that had to lower their configuration. */
    int64_t plan_cache_misses = 0;

    /** Hit fraction, 0 when nothing went through the cache. */
    double plan_cache_hit_rate() const
    {
        const int64_t total = plan_cache_hits + plan_cache_misses;
        return total > 0
                   ? static_cast<double>(plan_cache_hits) /
                         static_cast<double>(total)
                   : 0.0;
    }

    /** Sum of `pruned` over epochs with the given mode. */
    int64_t pruned_by(const std::string& mode) const;

    /** Sum of `exhaustive` over all epochs. */
    int64_t exhaustive_total() const;

    /** Machine-readable dump: {"epochs":[...],"best_ns":...}. */
    void write_json(std::ostream& os) const;

    /** Spreadsheet-friendly dump, one epoch per row. */
    void write_csv(std::ostream& os) const;
};

}  // namespace astra
