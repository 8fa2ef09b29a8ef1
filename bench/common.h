/**
 * @file
 * Shared helpers for the paper-table benchmark harnesses.
 *
 * Every bench binary reproduces one table or claim from the paper's
 * evaluation (§6), printing measured values next to the published
 * ones. Absolute times differ (our substrate is a simulator, not a
 * P100 testbed); the comparisons target the paper's *shape*: who wins,
 * by roughly what factor, and where the crossovers fall.
 */
#pragma once

#include <map>
#include <string>

#include "baselines/cudnn.h"
#include "baselines/xla.h"
#include "core/astra.h"
#include "models/models.h"
#include "obs/export.h"
#include "support/table.h"

namespace astra::bench {

/**
 * Observability hookup shared by every bench binary: consumes a
 * "--trace-out FILE" pair from argv (so later flag parsers never see
 * it), falling back to the ASTRA_TRACE environment variable. When
 * either is present, span/counter collection is enabled and a merged
 * Chrome trace is written to the file at process exit (obs::flush via
 * atexit).
 */
void init_observability(int* argc, char** argv);

/** Paper-like hyper-parameters for one model at one batch size. */
ModelConfig paper_config(ModelKind kind, int64_t batch,
                         bool embedding = true);

/** Device + scheduler settings shared by all benches. */
struct Env
{
    GpuConfig gpu;
    SchedulerOptions sched;

    Env()
    {
        gpu.execute_kernels = false;  // timing-only sweeps
        sched.super_epoch_ns = 400000.0;
        // Every bench constructs an Env, so ASTRA_TRACE alone is
        // enough to trace any table/ablation run.
        obs::init_from_env();
    }
};

/** One Astra optimization outcome. */
struct AstraOutcome
{
    double ns = 0.0;
    int64_t configs = 0;

    // What-if accounting (zeros when the engine is off).
    int64_t whatif_evals = 0;
    int64_t measured_configs = 0;

    /** Canonical text of the winning config (config_to_string). */
    std::string config_text;
};

/** Native-framework mini-batch time for a model. */
double native_ns(const BuiltModel& model, const Env& env);

/**
 * Run the full online exploration under a feature preset. `whatif`
 * arms the what-if decision path (off by default); `wirer_threads`
 * fans strategies out across host threads; `plan_store` names a plan
 * store directory (empty = no store).
 */
AstraOutcome astra_ns(const BuiltModel& model, const AstraFeatures& f,
                      const Env& env, const WhatIfOptions& whatif = {},
                      int wirer_threads = 1,
                      const std::string& plan_store = {});

/** cuDNN-path mini-batch time (model must carry cudnn_layers). */
double cudnn_ns(const BuiltModel& model, const Env& env);

/** XLA-path mini-batch time. */
double xla_ns(const BuiltModel& model, const Env& env);

/** The paper's batch-size sweep. */
inline const int64_t kBatches[] = {8, 16, 32, 64, 128, 256};

/**
 * Print one of the Tables 2-4 (speedup vs native PyTorch across
 * Astra feature presets) for the given model, next to paper values.
 *
 * @param paper per batch size: the paper's Astra_all speedup.
 */
void print_speedup_table(const std::string& title, ModelKind kind,
                         const std::map<int64_t, double>& paper,
                         const Env& env);

}  // namespace astra::bench
