#include "serve/server.h"

#include <string>
#include <utility>

#include "core/config_io.h"
#include "core/plan_store.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra::serve {

namespace {

/** Owns the graph + session a re-wired blob was lowered against. */
struct RewireState
{
    std::unique_ptr<GraphBuilder> builder;
    std::unique_ptr<AstraSession> session;
};

}  // namespace

uint64_t
config_fingerprint(const ScheduleConfig& config)
{
    return fnv1a64(config_to_string(config));
}

BucketedServer::BucketedServer(ServeOptions opts)
    : opts_(std::move(opts))
{
    ASTRA_ASSERT(!opts_.bucket_lengths.empty());
    ASTRA_ASSERT(opts_.max_batch > 0);
    ASTRA_ASSERT(opts_.batch_wait_frac >= 0.0);
    router_ = std::make_unique<BucketedAstra>(opts_.bucket_lengths,
                                              opts_.build, opts_.astra);
    router_->set_strict_overflow(opts_.strict_overflow);
}

BucketedServer::~BucketedServer() = default;

int64_t
BucketedServer::optimize()
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.optimize");
    const int64_t total = router_->optimize();
    plans_.clear();
    for (int i = 0; i < router_->num_buckets(); ++i) {
        const AstraSession& s = router_->session(i);
        const WirerResult& r = router_->bucket_result(i);
        BucketPlan p;
        // Lower through the scheduler's wired cache: verify_wired runs
        // inside, so an illegal lowering fails here, not mid-serve.
        p.binary = s.scheduler().wire_cached(
            r.best_config, s.tensor_map(r.best_config.strategy),
            opts_.astra.gpu);
        p.config = r.best_config;
        p.config_fnv = config_fingerprint(r.best_config);
        p.baseline_ns = r.best_ns;
        p.epoch = 0;
        // The router owns the session; no extra retention needed.
        plans_.push_back(std::move(p));
    }
    return total;
}

BucketedServer::BucketPlan
BucketedServer::plan(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(plans_.size()));
    return plans_[static_cast<size_t>(bucket)];
}

BucketedServer::BucketPlan
BucketedServer::rewire(int bucket, const GpuConfig& gpu) const
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.rewire");
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(opts_.bucket_lengths.size()));
    const int len =
        opts_.bucket_lengths[static_cast<size_t>(bucket)];

    auto state = std::make_shared<RewireState>();
    state->builder = std::make_unique<GraphBuilder>();
    opts_.build(*state->builder, len);

    AstraOptions o = opts_.astra;
    o.gpu = gpu;
    // Same §5.5 context prefix as the router's bucket, so the plan
    // store resolves the same workload identity: the stale entry
    // L1-hits (gpu_sig ignores the forced multiplier), its
    // verification mini-batch — measured on the *throttled* device —
    // drifts past store_drift_rel, and optimize() demotes into a
    // warm-started re-exploration whose winner is written back.
    o.context_prefix = opts_.astra.context_prefix + "b" +
                       std::to_string(len) + "|";
    state->session =
        std::make_unique<AstraSession>(state->builder->graph(), o);
    const WirerResult r = state->session->optimize();

    BucketPlan p;
    p.binary = state->session->scheduler().wire_cached(
        r.best_config,
        state->session->tensor_map(r.best_config.strategy), gpu);
    p.config = r.best_config;
    p.config_fnv = config_fingerprint(r.best_config);
    p.baseline_ns = r.best_ns;
    p.retain = std::move(state);
    return p;
}

}  // namespace astra::serve
