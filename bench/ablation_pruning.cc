/**
 * @file
 * Ablation (DESIGN.md / paper §4.5.1): how much do Astra's pruning
 * techniques shrink the exploration state space?
 *
 * For each model we contrast three counts:
 *  - the naive product space a mutation-at-a-time tuner faces (one
 *    change per trial: the product of every variable's options —
 *    reported as log10, it is astronomically large);
 *  - the per-dimension additive bound Astra's parallel exploration
 *    achieves in theory (max options per stage, summed over stages);
 *  - the mini-batches Astra actually spends (measured).
 *
 * The paper's example: 5 fusion groups x (3 chunk x 2 kernel) options
 * = 7776 mutation trials vs 6 with fine-grained profiling.
 */
#include <cmath>
#include <filesystem>

#include "bench/common.h"
#include "core/plan_store.h"

using namespace astra;
using namespace astra::bench;

int
main(int argc, char** argv)
{
    // --smoke: two small models only, for CI-speed runs.
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;

    Env env;
    TextTable table(
        "Ablation: exploration-space pruning (paper §4.5.1: additive, "
        "not multiplicative, in the number of dimensions)");
    table.set_header({"Model", "log10(naive product)",
                      "additive bound", "measured mini-batches"});
    const std::vector<ModelKind> kinds =
        smoke ? std::vector<ModelKind>{ModelKind::Scrnn, ModelKind::Rhn}
              : std::vector<ModelKind>{ModelKind::Scrnn,
                                       ModelKind::SubLstm,
                                       ModelKind::StackedLstm,
                                       ModelKind::Rhn};
    for (ModelKind kind : kinds) {
        const BuiltModel model =
            build_model(kind, paper_config(kind, smoke ? 8 : 16));
        const SearchSpace space =
            enumerate_search_space(model.graph());

        // Naive product: every chunk and library variable multiplies.
        double log10_product = 0.0;
        int64_t additive = 0;
        int64_t max_chunk_opts = 1, lib_opts = 1;
        for (const FusionGroup& g : space.groups) {
            log10_product +=
                std::log10(static_cast<double>(g.chunk_options.size()));
            log10_product += std::log10(double(kNumGemmLibs));
            max_chunk_opts = std::max<int64_t>(
                max_chunk_opts,
                static_cast<int64_t>(g.chunk_options.size()));
            lib_opts = kNumGemmLibs;
        }
        for (size_t i = 0; i < space.single_mms.size(); ++i)
            log10_product += std::log10(double(kNumGemmLibs));
        additive = max_chunk_opts + lib_opts;

        WhatIfOptions wi;
        wi.enabled = true;
        const AstraOutcome run =
            astra_ns(model, features_fk(), env, wi);
        table.add_row({model.name, TextTable::fmt(log10_product, 1),
                       std::to_string(additive),
                       std::to_string(run.configs)});
        std::cerr << "  [" << model.name << " done]\n";
    }
    table.print();

    // ---- cold sighting vs plan-store warm start --------------------------
    // A plan-store neighbor (same shape class, different batch) hands
    // the wirer a transferred configuration. With the what-if engine
    // armed, the transferred choices stay residual and are re-verified
    // by host replay, so a warm start may spend one primed mini-batch
    // more than a cold one but must never replay more.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "astra_ablation_pruning_store";
    fs::remove_all(dir);
    fs::create_directories(dir);

    WhatIfOptions wi;
    wi.enabled = true;
    const ModelKind kind = ModelKind::Scrnn;
    const BuiltModel cold_model =
        build_model(kind, paper_config(kind, smoke ? 8 : 16));
    const BuiltModel warm_model =
        build_model(kind, paper_config(kind, smoke ? 12 : 24));
    const AstraOutcome cold =
        astra_ns(cold_model, features_fk(), env, wi, 1, dir.string());
    const AstraOutcome warm =
        astra_ns(warm_model, features_fk(), env, wi, 1, dir.string());
    fs::remove_all(dir);

    TextTable demo("Cold sighting vs warm start from a shape-class "
                   "neighbor (what-if armed)");
    demo.set_header({"sighting", "mini-batches", "replays", "config fnv"});
    demo.add_row({"cold (empty store)", std::to_string(cold.configs),
                  std::to_string(cold.whatif_evals),
                  hash_hex(fnv1a64(cold.config_text))});
    demo.add_row({"warm (neighbor entry)", std::to_string(warm.configs),
                  std::to_string(warm.whatif_evals),
                  hash_hex(fnv1a64(warm.config_text))});
    demo.print();
    if (warm.whatif_evals > cold.whatif_evals) {
        std::cerr << "FAIL: warm start spent " << warm.whatif_evals
                  << " replays, more than the cold sighting's "
                  << cold.whatif_evals << "\n";
        return 1;
    }
    return 0;
}
