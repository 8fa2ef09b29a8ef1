/**
 * @file
 * Workload program of the repository benchmark (see perfbench/README.md).
 *
 * Runs one workload through the public API of models, core, runtime
 * and serve, checks its outputs, and writes raw measurements — host
 * wall samples, simulated-clock results, check verdicts and, when
 * traced, every host span and obs counter — as tab-separated records.
 * perfbench/run.py turns them into the benchmark's metrics; all
 * statistics (medians, percentiles, span self-time) live there.
 *
 * Every workload is the same four-phase pipeline on its own subject:
 *
 *   setup   build the model(s), construct the session or the fleet,
 *           generate the request traces;
 *   wire    a cold optimize() into a fresh, empty plan store, then a
 *           second sighting that must be answered by an L1 store hit,
 *           and a cold wiring with the what-if engine on;
 *   step    steady-state wired replays of the converged configuration;
 *   serve   the seeded request trace through a 3-replica ReplicaFleet
 *           at four offered loads.
 *
 * gnmt wires GNMT (batch 16, seq 8, hidden 256, vocab 1000 — the
 * astra_cli defaults) with the what-if engine off and on, and serves
 * the converged plan from a calm fleet. fleet_serve wires SC-RNN length
 * buckets for a fleet that loses replica 1 mid-burst and has its
 * replica 2 clock stepped to 0.8x, forcing a drift re-wire through the
 * store.
 *
 * Usage:
 *   astra_perfbench --workload W --seed N --seconds S --trace 0|1
 *                   --store DIR --out FILE [--pass-only]
 *
 * The "pass" is the fixed work every run does once (one setup, the three
 * wirings, the checks, kPassSteps steady steps, one serving sweep). A
 * traced run does only the pass; an untraced run then spends --seconds
 * on more steady steps and serving sweeps, interleaved with more
 * setups, and gnmt wires cold once more. perfbench/run.py reports
 * the fastest sample of each host time (percentiles of the fast windows
 * for steady steps) and the median of setup_s.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/astra.h"
#include "models/models.h"
#include "obs/obs.h"
#include "runtime/wired.h"
#include "serve/router.h"
#include "serve/traffic.h"

using namespace astra;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/** Offered loads of the serving sweep, x nominal capacity. */
constexpr double kLoads[] = {0.5, 0.8, 1.0, 1.3};

/** Sweep index whose latency/attainment the end-to-end metrics report. */
constexpr int kReportLoad = 1;

/** Sweep index whose goodput is the overload metric. */
constexpr int kOverloadLoad = 3;

/** Attainment a load must reach to count as "within the SLO". */
constexpr double kSloTarget = 0.99;

constexpr int kReplicas = 3;

/** SLO, in largest-bucket batch times. */
constexpr double kSloBatches = 12.0;

/** Per-bucket admission-queue bound, in batches. */
constexpr int kQueueBatches = 32;

/**
 * Setups (and second sightings) per untraced run; setup_s and
 * warm_wire_s are their medians. A fleet of SC-RNN buckets sets up and
 * wires in tens of milliseconds, so it takes more samples.
 */
constexpr int kGnmtSetupReps = 5;
constexpr int kFleetSetupReps = 25;

/** Interleaving rounds of an untraced run, at least. */
constexpr int kMinRounds = 16;

/** Steady-state steps inside the pass (traced and untraced alike). */
constexpr int kPassSteps = 100;

/** Upper bound on steady-state steps per run (over 10 s of the fastest). */
constexpr size_t kMaxSteps = 1 << 18;

/**
 * The GNMT configuration both GNMT workloads must converge to, as
 * pinned values: FNV-1a of config_to_string and the simulated
 * mini-batch time. Every optimisation the ROADMAP plans must keep the
 * converged configuration bit-identical; a deliberate change to the
 * simulated device or the search space updates these two constants.
 */
constexpr uint64_t kGnmtConfigFnv = 0x3d622167a1fcd7abULL;
constexpr double kGnmtStepNs = 0x1.e1b38dfb461adp+23;  // 15.784391 ms

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Plan-store tier as a number: miss 0, l3 1, l2 2, l1 3. */
double
tier_rank(const std::string& tier)
{
    return tier == "l1" ? 3.0 : tier == "l2" ? 2.0 : tier == "l3" ? 1.0 : 0.0;
}

/** Exact (hexfloat) text of a simulated time, for check details. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Raw measurements of one run, written for perfbench/run.py. */
class Sink
{
  public:
    /**
     * Sample series grow with the host's speed; reserving the longest
     * one up front keeps peak_rss_mb from following it in steps of a
     * vector reallocation.
     */
    Sink() { samples_["step_host_us"].reserve(kMaxSteps); }

    void
    scalar(const std::string& name, double v)
    {
        scalars_[name] = v;
    }

    void
    sample(const std::string& name, double v)
    {
        samples_[name].push_back(v);
    }

    /** Record a check verdict (a failure also goes to stderr). */
    void
    check(const std::string& name, bool ok, const std::string& detail = "")
    {
        checks_.push_back({name, ok, detail});
        if (!ok) {
            ++failed_checks_;
            std::fprintf(stderr, "CHECK FAILED: %s %s\n", name.c_str(),
                         detail.c_str());
        }
    }

    int64_t failed_checks() const { return failed_checks_; }

    void
    write(std::ostream& out) const
    {
        char buf[64];
        const auto num = [&](double v) {
            std::snprintf(buf, sizeof buf, "%.17g", v);
            return std::string(buf);
        };
        for (const auto& [name, v] : scalars_)
            out << "scalar\t" << name << '\t' << num(v) << '\n';
        for (const auto& [name, vs] : samples_) {
            out << "samples\t" << name;
            for (double v : vs)
                out << '\t' << num(v);
            out << '\n';
        }
        for (const Check& c : checks_)
            out << "check\t" << c.name << '\t' << (c.ok ? "ok" : "FAIL")
                << '\t' << c.detail << '\n';
        if (!obs::enabled())
            return;
        for (const obs::Span& s : obs::host_spans())
            out << "span\t" << s.name << '\t' << s.tid << '\t'
                << num(s.start_ns) << '\t' << num(s.end_ns) << '\n';
        for (const auto& [name, v] : obs::counter_values())
            out << "counter\t" << name << '\t' << v << '\n';
        out << "counter\tobs.dropped_kernel_spans\t"
            << obs::dropped_kernel_spans() << '\n';
    }

  private:
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    std::map<std::string, double> scalars_;
    std::map<std::string, std::vector<double>> samples_;
    std::vector<Check> checks_;
    int64_t failed_checks_ = 0;
};

/**
 * Session options with the environment pinned: the library defaults
 * read ASTRA_SIM_AUTOBOOST, ASTRA_FAULTS and ASTRA_PLAN_STORE, which CI
 * jobs export and which would silently change the workload. Kernels
 * are timed, not executed, as in astra_cli.
 */
AstraOptions
pinned_options(const std::string& store)
{
    AstraOptions o;
    o.gpu.execute_kernels = false;
    o.gpu.autoboost = false;
    o.gpu.faults = FaultPlan();
    o.plan_store = store;
    return o;
}

ModelConfig
gnmt_config(int seq_len)
{
    ModelConfig cfg;
    cfg.batch = 16;
    cfg.seq_len = seq_len;
    cfg.hidden = 256;
    cfg.embed_dim = 256;
    cfg.vocab = 1000;
    return cfg;
}

BuiltModel
traced_build(ModelKind kind, const ModelConfig& cfg)
{
    obs::ScopedSpan span(obs::Category::Enumerate, "models.build_model");
    return build_model(kind, cfg);
}

/** A LengthGraphFn over build_model, spanned like every other build. */
LengthGraphFn
length_builder(ModelKind kind, ModelConfig cfg)
{
    return [kind, cfg](GraphBuilder& b, int length) {
        ModelConfig c = cfg;
        c.seq_len = length;
        b = std::move(*traced_build(kind, c).builder);
    };
}

// ---- serving ---------------------------------------------------------

/** What a workload serves, and whether the fleet is faulted. */
struct ServeSubject
{
    std::vector<int> buckets;
    LengthGraphFn build;
    int max_batch = 8;

    /** PTB length divisor: sampled lengths never exceed the last bucket. */
    int length_div = 5;

    /** Trace horizon, in largest-bucket batch times. */
    double trace_batches = 1200.0;

    /** Wiring features of every bucket session. */
    AstraFeatures features;

    /**
     * The traces carry a 2x diurnal burst over 40-60% of the horizon,
     * replica 1 dies mid-burst and replica 2 steps to a 0.8x clock.
     * Off: flat Poisson arrivals on a calm fleet.
     */
    bool chaos = false;
};

/** Seeded times of the injected fleet faults, fractions of the trace. */
struct ChaosTimes
{
    double death_frac = 0.0;
    double drift_frac = 0.0;
};

ChaosTimes
chaos_times(uint64_t seed)
{
    // splitmix64 draws: the seed picks the death inside the burst
    // window and the clock step in the first third of the trace.
    uint64_t x = seed;
    const auto next = [&x]() {
        uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
    };
    ChaosTimes t;
    t.death_frac = 0.42 + 0.14 * next();
    t.drift_frac = 0.15 + 0.15 * next();
    return t;
}

serve::FleetOptions
fleet_options(const ServeSubject& s, const std::string& store)
{
    serve::FleetOptions f;
    f.base.bucket_lengths = s.buckets;
    f.base.build = s.build;
    f.base.astra = pinned_options(store);
    f.base.astra.features = s.features;
    f.base.max_batch = s.max_batch;
    f.replicas = kReplicas;
    f.queue_capacity = static_cast<size_t>(kQueueBatches * s.max_batch);
    f.queue_policy = serve::QueuePolicy::EdfShed;
    return f;
}

/** Arm the subject's replica faults for a trace of `duration_ns`. */
void
arm_chaos(const ServeSubject& s, uint64_t seed, double duration_ns,
          serve::FleetOptions* f)
{
    if (!s.chaos)
        return;
    const ChaosTimes t = chaos_times(seed);
    ReplicaFaultSpec death;
    death.replica = 1;
    death.at_ns = t.death_frac * duration_ns;
    f->faults.replica_faults.push_back(death);
    f->replica_clocks.resize(kReplicas);
    f->replica_clocks[2] = {{t.drift_frac * duration_ns, 0.8}};
}

serve::TrafficConfig
traffic_config(const ServeSubject& s, double batch_ns, double load,
               uint64_t seed)
{
    serve::TrafficConfig cfg;
    cfg.duration_ns = s.trace_batches * batch_ns;
    // Nominal capacity: every replica running full batches of the
    // largest bucket back to back.
    cfg.base_rps = load * kReplicas * s.max_batch * 1e9 / batch_ns;
    cfg.slo_ns = kSloBatches * batch_ns;
    cfg.length_div = s.length_div;
    cfg.min_length = 2;
    cfg.seed = seed;
    if (s.chaos)
        cfg.bursts.push_back(
            {0.4 * cfg.duration_ns, 0.6 * cfg.duration_ns, 2.0});
    return cfg;
}

std::vector<std::vector<serve::ServeRequest>>
generate_traces(const ServeSubject& s, double batch_ns, uint64_t seed)
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.generate_traffic");
    std::vector<std::vector<serve::ServeRequest>> traces;
    for (double load : kLoads)
        traces.push_back(
            serve::generate_traffic(traffic_config(s, batch_ns, load, seed)));
    return traces;
}

std::unique_ptr<serve::ReplicaFleet>
make_fleet(serve::FleetOptions opts)
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.fleet.init");
    return std::make_unique<serve::ReplicaFleet>(std::move(opts));
}

/** Requests that did not complete: refused, dropped or lost. */
int64_t
unserved(const serve::FleetReport& r)
{
    return r.total.rejected + r.shed + r.evicted + r.failed +
           r.total.dropped;
}

/** Requests completed by their deadline, over requests offered. */
double
attainment(const serve::FleetReport& r)
{
    return static_cast<double>(r.total.served - r.total.deadline_misses) /
           static_cast<double>(r.total.offered);
}

/** Simulated-clock outcome of one load, for bit-identity checks. */
std::vector<double>
sim_fingerprint(const serve::FleetReport& r)
{
    return {static_cast<double>(r.total.served),
            static_cast<double>(unserved(r)),
            static_cast<double>(r.total.deadline_misses),
            static_cast<double>(r.total.batches),
            static_cast<double>(r.retries),
            static_cast<double>(r.total.swaps),
            r.total.p50_ns,
            r.total.p99_ns,
            r.total.goodput_rps,
            r.total.makespan_ns};
}

struct SweepOutcome
{
    std::vector<serve::FleetReport> reports;

    /** Host wall of each load's serve() call (s). */
    std::vector<double> serve_host_s;
    int64_t offered = 0;
};

/**
 * Serve every load's trace. A faulted fleet's replicas keep their
 * clock steps and deaths, so each load gets a fresh fleet whose store
 * starts as a copy of the pristine post-wiring store (a drift re-wire
 * writes back to the store, so sharing one would leak it into later
 * loads). A calm fleet serves every load in turn and is kept in `calm`
 * for the run's later sweeps.
 */
SweepOutcome
serve_sweep(const ServeSubject& s, const fs::path& pristine,
            const fs::path& work, uint64_t seed, double batch_ns,
            const std::vector<std::vector<serve::ServeRequest>>& traces,
            std::unique_ptr<serve::ReplicaFleet>* calm, Sink* sink)
{
    SweepOutcome out;
    std::unique_ptr<serve::ReplicaFleet> faulted;
    std::unique_ptr<serve::ReplicaFleet>& fleet = s.chaos ? faulted : *calm;
    for (size_t i = 0; i < traces.size(); ++i) {
        if (!fleet || s.chaos) {
            fleet.reset();
            fs::remove_all(work);
            fs::copy(pristine, work, fs::copy_options::recursive);
            serve::FleetOptions opts = fleet_options(s, work.string());
            arm_chaos(s, seed, s.trace_batches * batch_ns, &opts);
            fleet = make_fleet(opts);
            fleet->optimize();
        }

        const Clock::time_point t0 = Clock::now();
        serve::FleetReport r = fleet->serve(traces[i]);
        out.serve_host_s.push_back(seconds_since(t0));

        const std::string at = "serve.load" + std::to_string(i);
        const int64_t offered = r.total.offered;
        sink->check(at + ".no_drops",
                    r.total.dropped == 0 && r.double_served == 0,
                    "dropped " + std::to_string(r.total.dropped) +
                        ", double-served " +
                        std::to_string(r.double_served));
        sink->check(at + ".accounting",
                    r.total.served + unserved(r) == offered &&
                        offered == static_cast<int64_t>(traces[i].size()),
                    "served " + std::to_string(r.total.served) +
                        " + unserved " + std::to_string(unserved(r)) +
                        " vs offered " + std::to_string(offered));
        out.offered += offered;
        out.reports.push_back(std::move(r));
    }
    return out;
}

/** End-to-end serving metrics of the first sweep (simulated clock). */
void
report_sweep(const SweepOutcome& o, Sink* sink)
{
    std::optional<double> max_load;
    for (size_t i = 0; i < o.reports.size(); ++i) {
        const double a = attainment(o.reports[i]);
        const std::string at = "serve.load" + std::to_string(i);
        sink->scalar(at + ".attainment", a);
        sink->scalar(at + ".offered",
                     static_cast<double>(o.reports[i].total.offered));
        if (a >= kSloTarget)
            max_load = kLoads[i];
    }
    const serve::FleetReport& at = o.reports[kReportLoad];
    sink->scalar("serve_p50_ms", at.total.p50_ns / 1e6);
    sink->scalar("serve_p99_ms", at.total.p99_ns / 1e6);
    sink->scalar("slo_attainment", attainment(at));
    sink->scalar("max_load_at_slo", max_load.value_or(0.0));
    sink->scalar("overload_goodput_rps",
                 o.reports[kOverloadLoad].total.goodput_rps);
    sink->scalar("serve.mean_batch_occupancy", at.total.mean_batch_occupancy);
    sink->scalar("serve.padded_token_frac", at.total.padded_token_frac);
    sink->check("serve.p99_supported", at.total.p99_supported);
}

// ---- the pipeline ----------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool pass_only = false;
    std::string store;
    std::string out;
};

/**
 * One workload run. The subject is either a GNMT session (gnmt) or
 * an SC-RNN serving fleet (fleet_serve); each phase method dispatches
 * on which.
 */
class Pipeline
{
  public:
    Pipeline(const Args& args, Sink* sink);

    void run();

  private:
    bool gnmt() const { return args_.workload == "gnmt"; }

    /** Build the subject; returns its host seconds (a setup_s part). */
    double setup();
    void wire_gnmt();
    void check_gnmt_wiring(const WirerResult& cold, bool whatif);
    WirerResult rewire_gnmt(const std::string& dir, bool whatif,
                            const std::string& sample);
    void wire_fleet();
    int64_t whatif_fleet(const fs::path& dir);
    void repeat_setup();
    void steady_steps(int n, double budget_s);
    void serve_once(bool first);

    const Args& args_;
    Sink* sink_;
    fs::path store_;
    ServeSubject subject_;

    // gnmt: the model, its cold session and the second sighting.
    std::optional<BuiltModel> model_;
    std::unique_ptr<AstraSession> session_;
    std::unique_ptr<AstraSession> warm_session_;
    AstraOptions gnmt_options_;  ///< the cold session's options
    ScheduleConfig best_;

    // fleet_serve: the cold fleet and its second sighting.
    std::unique_ptr<serve::ReplicaFleet> fleet_;
    std::unique_ptr<serve::ReplicaFleet> warm_fleet_;

    // gnmt: the calm serving fleet, kept across sweeps.
    std::unique_ptr<serve::ReplicaFleet> calm_fleet_;

    std::function<DispatchResult()> step_;
    double batch_ns_ = 0.0;  ///< largest served bucket's wired batch time
    std::vector<std::vector<serve::ServeRequest>> traces_;
    std::vector<double> first_sweep_;

    size_t step_count_ = 0;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

Pipeline::Pipeline(const Args& args, Sink* sink)
    : args_(args), sink_(sink), store_(args.store)
{
    if (gnmt()) {
        subject_.buckets = {8};
        subject_.build = length_builder(ModelKind::Gnmt, gnmt_config(8));
        subject_.max_batch = 16;
        subject_.length_div = 10;
        subject_.trace_batches = 60.0;
    } else {
        ModelConfig cfg;
        cfg.batch = 8;
        subject_.buckets = {4, 8, 12, 16};
        subject_.build = length_builder(ModelKind::Scrnn, cfg);
        subject_.max_batch = 8;
        subject_.length_div = 5;
        subject_.features = features_fk();
        subject_.chaos = true;
    }
}

double
Pipeline::setup()
{
    const Clock::time_point t0 = Clock::now();
    const std::string plans = (store_ / "plans").string();
    if (gnmt()) {
        model_.emplace(traced_build(ModelKind::Gnmt, gnmt_config(8)));
        AstraOptions o = pinned_options(plans);
        o.grads = &model_->grads;  // arms the OOM ladder, as astra_cli
        obs::ScopedSpan span(obs::Category::Enumerate, "core.session_init");
        session_ = std::make_unique<AstraSession>(model_->graph(), o);
    } else {
        fleet_ = make_fleet(fleet_options(subject_, plans));
    }
    return seconds_since(t0);
}

/** Checks every cold GNMT wiring must pass, what-if engine on or off. */
void
Pipeline::check_gnmt_wiring(const WirerResult& cold, bool whatif)
{
    const ConvergenceReport& c = cold.convergence;
    const uint64_t fnv = serve::config_fingerprint(cold.best_config);
    attempted_ += cold.minibatches;
    failed_ += c.faults.faulted_minibatches;
    sink_->check("wire.cold_store_miss", c.store_tier == "miss",
                 "tier " + c.store_tier);
    sink_->check("wire.complete", !cold.truncated, c.termination);
    sink_->check("wire.whatif_armed", (c.whatif_evals > 0) == whatif,
                 std::to_string(c.whatif_evals) + " what-if evaluations");
    sink_->check("wire.config_fnv", fnv == kGnmtConfigFnv,
                 hex64(fnv) + " vs pinned " + hex64(kGnmtConfigFnv));
    sink_->check("wire.best_ns", cold.best_ns == kGnmtStepNs,
                 exact(cold.best_ns) + " vs pinned " + exact(kGnmtStepNs));
}

/**
 * The measured cold wiring (what-if engine off, the library default),
 * its L1 second sighting, and the what-if wiring of the same graph.
 */
void
Pipeline::wire_gnmt()
{
    const Clock::time_point t0 = Clock::now();
    const WirerResult cold = session_->optimize();
    sink_->sample("wire_s", seconds_since(t0));
    check_gnmt_wiring(cold, /*whatif=*/false);
    best_ = cold.best_config;
    const uint64_t fnv = serve::config_fingerprint(best_);
    sink_->scalar("explore_minibatches", static_cast<double>(cold.minibatches));
    sink_->scalar("step_sim_ms", cold.best_ns / 1e6);

    // Second sighting: a new session with compiled dispatch must be an
    // L1 store hit (a read) answering with the same configuration.
    AstraOptions o = session_->options();
    o.compiled_dispatch = true;
    warm_session_ = std::make_unique<AstraSession>(model_->graph(), o);
    const Clock::time_point t1 = Clock::now();
    const WirerResult warm = warm_session_->optimize();
    sink_->sample("warm_wire_s", seconds_since(t1));
    attempted_ += warm.minibatches;
    failed_ += warm.convergence.faults.faulted_minibatches;
    sink_->scalar("plan_store.warm_tier", tier_rank(warm.convergence.store_tier));
    sink_->scalar("plan_store.warm_minibatches",
                  static_cast<double>(warm.minibatches));
    sink_->check("warm.tier_l1", warm.convergence.store_tier == "l1",
                 "tier " + warm.convergence.store_tier);
    sink_->check("warm.same_config",
                 serve::config_fingerprint(warm.best_config) == fnv);

    // One generic dispatch of the converged config against its wired
    // replay: the compiled path promises bit-identical results.
    const DispatchResult generic = session_->run(best_);
    const DispatchResult wired = warm_session_->run(best_);
    attempted_ += 2;
    sink_->check(
        "dispatch.generic_eq_wired",
        generic.total_ns == wired.total_ns &&
            generic.stats.kernels_launched == wired.stats.kernels_launched &&
            generic.stats.events_recorded == wired.stats.events_recorded &&
            generic.profile_ns == wired.profile_ns,
        std::to_string(generic.total_ns) + " vs " +
            std::to_string(wired.total_ns));
    sink_->check("dispatch.step_eq_best", wired.total_ns == cold.best_ns);

    // The later wirings start from fresh sessions; the cold one's
    // memory would only add to theirs in peak_rss_mb.
    gnmt_options_ = session_->options();
    session_.reset();
    batch_ns_ = cold.best_ns;
    step_ = [this] { return warm_session_->run(best_); };

    // The what-if engine replays candidates on the host instead of
    // measuring them, and must land on the same configuration.
    const WirerResult w =
        rewire_gnmt("whatif", /*whatif=*/true, "whatif_wire_s");
    const ConvergenceReport& c = w.convergence;
    sink_->scalar("whatif_minibatches", static_cast<double>(w.minibatches));
    sink_->scalar("whatif.evals", static_cast<double>(c.whatif_evals));
    sink_->scalar("whatif.measured_configs",
                  static_cast<double>(c.measured_configs));
    sink_->scalar("predictor.pruned", static_cast<double>(c.predictor_pruned));
}

/**
 * Another cold wiring of the GNMT subject, into its own empty store
 * `dir`, sampled as `sample`. wire_s is the fastest of two measured
 * wirings; a GNMT cold wiring takes 10-18 s of host time, so a run
 * takes the second one halfway through its rounds.
 */
WirerResult
Pipeline::rewire_gnmt(const std::string& dir, bool whatif,
                      const std::string& sample)
{
    const fs::path plans = store_ / dir;
    fs::remove_all(plans);
    fs::create_directories(plans);
    AstraOptions o = gnmt_options_;
    o.plan_store = plans.string();
    o.whatif.enabled = whatif;
    AstraSession session(model_->graph(), o);
    const Clock::time_point t0 = Clock::now();
    WirerResult cold = session.optimize();
    sink_->sample(sample, seconds_since(t0));
    check_gnmt_wiring(cold, whatif);
    return cold;
}

void
Pipeline::wire_fleet()
{
    // Store tiers of every bucket ("miss,l3,..."); the lowest rank
    // among them is the fleet's warm tier. Tallies faulted mini-batches.
    double warm_rank = 3.0;
    const auto tiers = [&](serve::ReplicaFleet& f) {
        const BucketedAstra& router = f.prototype().router();
        std::string out;
        warm_rank = 3.0;
        for (int i = 0; i < router.num_buckets(); ++i) {
            const ConvergenceReport& c = router.bucket_result(i).convergence;
            out += (i ? "," : "") + c.store_tier;
            warm_rank = std::min(warm_rank, tier_rank(c.store_tier));
            failed_ += c.faults.faulted_minibatches;
        }
        return out;
    };

    const Clock::time_point t0 = Clock::now();
    const int64_t cold = fleet_->optimize();
    sink_->sample("wire_s", seconds_since(t0));
    sink_->scalar("explore_minibatches", static_cast<double>(cold));
    attempted_ += cold;
    const std::string cold_tiers = tiers(*fleet_);
    // The first bucket's write leaves library priors (L3) for the rest.
    sink_->check("wire.cold_store_miss", cold_tiers == "miss,l3,l3,l3",
                 cold_tiers);
    const BucketedAstra& router = fleet_->prototype().router();
    for (int i = 0; i < router.num_buckets(); ++i) {
        const WirerResult& r = router.bucket_result(i);
        sink_->check("wire.complete", !r.truncated, r.convergence.termination);
    }
    sink_->scalar("whatif_minibatches",
                  static_cast<double>(whatif_fleet(store_ / "whatif")));

    warm_fleet_ =
        make_fleet(fleet_options(subject_, (store_ / "plans").string()));
    const Clock::time_point t1 = Clock::now();
    const int64_t warm = warm_fleet_->optimize();
    sink_->sample("warm_wire_s", seconds_since(t1));
    attempted_ += warm;
    const std::string warm_tiers = tiers(*warm_fleet_);
    sink_->scalar("plan_store.warm_tier", warm_rank);
    sink_->scalar("plan_store.warm_minibatches", static_cast<double>(warm));
    sink_->check("warm.tier_l1", warm_tiers == "l1,l1,l1,l1", warm_tiers);

    const int last = static_cast<int>(subject_.buckets.size()) - 1;
    bool same = true;
    for (int b = 0; b <= last; ++b)
        same &= fleet_->replica(0).plan(b).config_fnv ==
                warm_fleet_->replica(0).plan(b).config_fnv;
    sink_->check("warm.same_config", same);

    // The step subject: the largest bucket's installed wired binary,
    // replayed exactly as the serving loop replays it per batch.
    const serve::BucketedServer::BucketPlan plan =
        warm_fleet_->replica(0).plan(last);
    const GpuConfig gpu = pinned_options("").gpu;
    batch_ns_ = plan.baseline_ns;
    sink_->scalar("step_sim_ms", plan.baseline_ns / 1e6);
    step_ = [plan, gpu] { return replay_wired(*plan.binary, gpu); };
    const DispatchResult r = step_();
    ++attempted_;
    sink_->check("dispatch.step_eq_best", r.total_ns == plan.baseline_ns,
                 std::to_string(r.total_ns) + " vs " +
                     std::to_string(plan.baseline_ns));
}

/**
 * A cold wiring of the fleet's buckets with the what-if engine on, into
 * the empty store `dir`; returns its mini-batches.
 */
int64_t
Pipeline::whatif_fleet(const fs::path& dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    serve::FleetOptions opts = fleet_options(subject_, dir.string());
    opts.base.astra.whatif.enabled = true;
    std::unique_ptr<serve::ReplicaFleet> fleet = make_fleet(opts);
    const Clock::time_point t0 = Clock::now();
    const int64_t minibatches = fleet->optimize();
    sink_->sample("whatif_wire_s", seconds_since(t0));
    attempted_ += minibatches;
    int64_t evals = 0, measured = 0, pruned = 0;
    const BucketedAstra& router = fleet->prototype().router();
    for (int i = 0; i < router.num_buckets(); ++i) {
        const ConvergenceReport& c = router.bucket_result(i).convergence;
        failed_ += c.faults.faulted_minibatches;
        evals += c.whatif_evals;
        measured += c.measured_configs;
        pruned += c.predictor_pruned;
    }
    sink_->check("wire.whatif_armed", evals > 0,
                 std::to_string(evals) + " what-if evaluations");
    sink_->scalar("whatif.evals", static_cast<double>(evals));
    sink_->scalar("whatif.measured_configs", static_cast<double>(measured));
    sink_->scalar("predictor.pruned", static_cast<double>(pruned));
    return minibatches;
}

/**
 * One more setup sample, and a second sighting on it: the same
 * subject again, built on locals so the pass's converged state stays.
 * A fleet wires in milliseconds, so it also wires cold again, with the
 * what-if engine off and on, each into its own fresh store.
 */
void
Pipeline::repeat_setup()
{
    const Clock::time_point t0 = Clock::now();
    std::optional<BuiltModel> model;
    std::unique_ptr<AstraSession> session;
    std::unique_ptr<serve::ReplicaFleet> fleet;
    const fs::path rep = store_ / "repeat";
    if (gnmt()) {
        model.emplace(traced_build(ModelKind::Gnmt, gnmt_config(8)));
        AstraOptions o = warm_session_->options();
        o.grads = &model->grads;
        obs::ScopedSpan span(obs::Category::Enumerate, "core.session_init");
        session = std::make_unique<AstraSession>(model->graph(), o);
    } else {
        fs::remove_all(rep);
        fs::create_directories(rep);
        fleet = make_fleet(fleet_options(subject_, rep.string()));
    }
    double setup_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    traces_ = generate_traces(subject_, batch_ns_, args_.seed);
    setup_s += seconds_since(t1);
    sink_->sample("setup_s", setup_s);

    std::string tier;
    if (gnmt()) {
        const Clock::time_point t2 = Clock::now();
        const WirerResult warm = session->optimize();
        sink_->sample("warm_wire_s", seconds_since(t2));
        attempted_ += warm.minibatches;
        tier = warm.convergence.store_tier;
        sink_->check("warm.same_config",
                     serve::config_fingerprint(warm.best_config) ==
                         serve::config_fingerprint(best_));
    } else {
        const Clock::time_point t2 = Clock::now();
        attempted_ += fleet->optimize();
        sink_->sample("wire_s", seconds_since(t2));
        std::unique_ptr<serve::ReplicaFleet> warm =
            make_fleet(fleet_options(subject_, rep.string()));
        const Clock::time_point t3 = Clock::now();
        attempted_ += warm->optimize();
        sink_->sample("warm_wire_s", seconds_since(t3));
        whatif_fleet(store_ / "repeat-whatif");
        const BucketedAstra& router = warm->prototype().router();
        for (int i = 0; i < router.num_buckets(); ++i)
            tier += (i ? "," : "") +
                    router.bucket_result(i).convergence.store_tier;
        tier = tier == "l1,l1,l1,l1" ? "l1" : tier;
    }
    sink_->check("warm.tier_l1", tier == "l1", "tier " + tier);
}

/**
 * Steady steps, `n` at least and for `budget_s`. Each call is one
 * window of contiguous steps; its end is recorded so perfbench/run.py
 * can take percentiles per window.
 */
void
Pipeline::steady_steps(int n, double budget_s)
{
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < n || seconds_since(start) < budget_s; ++i) {
        if (step_count_ >= kMaxSteps)
            break;
        ++step_count_;
        const Clock::time_point t0 = Clock::now();
        const DispatchResult r = step_();
        const double wall_us = seconds_since(t0) * 1e6;
        sink_->sample("step_host_us", wall_us);
        if (args_.trace) {
            const double enqueue_us = r.host_enqueue_ns / 1e3;
            sink_->sample("enqueue_us", enqueue_us);
            sink_->sample("step_minus_enqueue_us", wall_us - enqueue_us);
        }
        sink_->scalar("sim.kernels_per_step",
                      static_cast<double>(r.stats.kernels_launched));
        ++attempted_;
        failed_ += r.faulted ? 1 : 0;
        if (r.total_ns != batch_ns_) {
            sink_->check("dispatch.steady_eq_best", false,
                         std::to_string(r.total_ns));
            break;
        }
    }
    sink_->sample("step_window_ends", static_cast<double>(step_count_));
}

void
Pipeline::serve_once(bool first)
{
    const SweepOutcome o =
        serve_sweep(subject_, store_ / "pristine", store_ / "serving",
                    args_.seed, batch_ns_, traces_, &calm_fleet_, sink_);
    for (size_t i = 0; i < o.serve_host_s.size(); ++i)
        sink_->sample("serve_host_s.load" + std::to_string(i), o.serve_host_s[i]);
    // Requests the fleet refuses, sheds or loses to the injected death
    // are serving outcomes (slo_attainment counts them as misses), not
    // failed operations; a dropped or double-served request fails a
    // check above.
    attempted_ += o.offered;
    std::vector<double> fp;
    for (const serve::FleetReport& r : o.reports)
        for (double v : sim_fingerprint(r))
            fp.push_back(v);
    if (first) {
        first_sweep_ = std::move(fp);
        report_sweep(o, sink_);
    } else {
        sink_->check("serve.repeat_bit_identical", fp == first_sweep_);
    }
}

void
Pipeline::run()
{
    fs::remove_all(store_);
    fs::create_directories(store_ / "plans");
    obs::reset();
    obs::set_enabled(args_.trace);
    sink_->scalar("pass_start_ns", obs::now_ns());
    const Clock::time_point pass0 = Clock::now();

    // ---- the pass: fixed work, identical traced and untraced ---------
    double setup_s = setup();
    if (gnmt())
        wire_gnmt();
    else
        wire_fleet();
    fs::copy(store_ / "plans", store_ / "pristine",
             fs::copy_options::recursive);
    // The traces are calibrated on the wired batch time, so their
    // generation (a part of setup) follows wiring.
    Clock::time_point t0 = Clock::now();
    traces_ = generate_traces(subject_, batch_ns_, args_.seed);
    setup_s += seconds_since(t0);
    sink_->sample("setup_s", setup_s);
    steady_steps(kPassSteps, 0.0);
    serve_once(/*first=*/true);
    sink_->scalar("pass_s", seconds_since(pass0));
    sink_->scalar("pass_end_ns", obs::now_ns());
    // Peak memory of the fixed work: the time-paced samples below would
    // otherwise make it depend on how fast the host ran.
    rusage pass_ru{};
    getrusage(RUSAGE_SELF, &pass_ru);
    sink_->scalar("peak_rss_mb",
                  static_cast<double>(pass_ru.ru_maxrss) / 1024.0);

    // ---- untraced: more samples of every host-time metric ------------
    // Rounds interleave setups, steady steps and serving sweeps, so
    // each metric samples the whole run rather than one stretch of a
    // shared host whose speed drifts within seconds. Steps and sweeps
    // are paced to --seconds/2 each over all rounds; the setups take
    // the first rounds.
    if (!args_.trace && !args_.pass_only) {
        const int setups = (gnmt() ? kGnmtSetupReps : kFleetSetupReps) - 1;
        const int rounds = std::max(setups, kMinRounds);
        const double share = args_.seconds / 2 / rounds;
        double steady_s = 0.0, serve_s = 0.0;
        for (int i = 1; i <= rounds; ++i) {
            if (i <= setups)
                repeat_setup();
            t0 = Clock::now();
            steady_steps(0, i * share - steady_s);
            steady_s += seconds_since(t0);
            while (serve_s < i * share) {
                t0 = Clock::now();
                serve_once(/*first=*/false);
                serve_s += seconds_since(t0);
            }
            // Halfway, so the rounds' samples span both measured wirings.
            if (gnmt() && i == rounds / 2)
                rewire_gnmt("cold", /*whatif=*/false, "wire_s");
        }
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    sink_->scalar("cpu_s", static_cast<double>(ru.ru_utime.tv_sec) +
                               ru.ru_utime.tv_usec / 1e6 +
                               static_cast<double>(ru.ru_stime.tv_sec) +
                               ru.ru_stime.tv_usec / 1e6);
    sink_->scalar("attempted", static_cast<double>(attempted_));
    sink_->scalar("failed",
                  static_cast<double>(failed_ + sink_->failed_checks()));
    fs::remove_all(store_);
}

bool
parse_args(int argc, char** argv, Args* a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--pass-only") {
            a->pass_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (flag == "--workload")
            a->workload = v;
        else if (flag == "--seed")
            a->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a->seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a->trace = v == "1";
        else if (flag == "--store")
            a->store = v;
        else if (flag == "--out")
            a->out = v;
        else
            return false;
    }
    return (a->workload == "gnmt" || a->workload == "fleet_serve") &&
           !a->store.empty() && !a->out.empty() && a->seconds > 0.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: astra_perfbench --workload "
                     "gnmt|fleet_serve --seed N "
                     "--seconds S --trace 0|1 --store DIR --out FILE "
                     "[--pass-only]\n");
        return 2;
    }
    Sink sink;
    Pipeline(args, &sink).run();
    std::ofstream out(args.out);
    sink.write(out);
    out.close();
    return out ? 0 : 1;
}
