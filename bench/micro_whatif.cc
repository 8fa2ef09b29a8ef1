/**
 * @file
 * Gate for the trace-driven what-if engine (core/whatif.h, §5.13):
 * across the five paper models, wiring with the engine armed must
 * converge to the *FNV-bit-identical* configuration the exhaustive
 * wirer finds, while cutting measured exploration mini-batches by at
 * least 3x in aggregate. Also gates the off-path (zero what-if
 * counters, same config) and thread-count determinism (wirer_threads=4
 * reproduces the serial counters and config exactly).
 *
 * Exit status is the gate: 0 = all invariants hold. CI runs
 * `micro_whatif --smoke` (smaller shapes, same checks).
 */
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/plan_store.h"

using namespace astra;
using namespace astra::bench;

int
main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;

    Env env;
    TextTable table(
        "micro_whatif: what-if engine vs exhaustive wiring "
        "(gate: identical FNV config, >= 3x aggregate mini-batch cut, "
        "thread-deterministic counters)");
    table.set_header({"Model", "exhaustive mb", "whatif mb", "cut",
                      "replays", "fnv match"});

    const ModelKind kinds[] = {ModelKind::Scrnn, ModelKind::StackedLstm,
                               ModelKind::MiLstm, ModelKind::SubLstm,
                               ModelKind::Gnmt};
    bool ok = true;
    int64_t total_off = 0, total_on = 0;
    for (ModelKind kind : kinds) {
        ModelConfig cfg = paper_config(kind, smoke ? 8 : 16);
        if (smoke) {
            // Same graphs, smaller shapes: every gate below is a
            // determinism property, not a scale property.
            cfg.hidden = std::min<int64_t>(cfg.hidden, 128);
            cfg.embed_dim = std::min<int64_t>(cfg.embed_dim, 128);
            cfg.vocab = std::min<int64_t>(cfg.vocab, 500);
        }
        const BuiltModel model = build_model(kind, cfg);

        const AstraOutcome off =
            astra_ns(model, features_all(), env);
        WhatIfOptions wi;
        wi.enabled = true;
        const AstraOutcome on =
            astra_ns(model, features_all(), env, wi);
        const AstraOutcome on4 =
            astra_ns(model, features_all(), env, wi, 4);

        const uint64_t fnv_off = fnv1a64(off.config_text);
        const uint64_t fnv_on = fnv1a64(on.config_text);
        const uint64_t fnv_on4 = fnv1a64(on4.config_text);

        bool model_ok = true;
        if (off.whatif_evals != 0) {
            std::cerr << model.name
                      << ": FAIL: what-if counters nonzero with the "
                         "engine off\n";
            model_ok = false;
        }
        if (fnv_on != fnv_off) {
            std::cerr << model.name
                      << ": FAIL: whatif config differs from "
                         "exhaustive (fnv " << hash_hex(fnv_on)
                      << " vs " << hash_hex(fnv_off) << ")\n";
            model_ok = false;
        }
        if (fnv_on4 != fnv_on || on4.configs != on.configs ||
            on4.whatif_evals != on.whatif_evals ||
            on4.measured_configs != on.measured_configs) {
            std::cerr << model.name
                      << ": FAIL: wirer_threads=4 is not "
                         "bit-identical to serial (config/counters)\n";
            model_ok = false;
        }
        if (on.configs >= off.configs) {
            std::cerr << model.name
                      << ": FAIL: what-if engine saved no "
                         "mini-batches (" << on.configs << " vs "
                      << off.configs << ")\n";
            model_ok = false;
        }
        ok = ok && model_ok;
        total_off += off.configs;
        total_on += on.configs;

        const double cut = on.configs > 0
                               ? static_cast<double>(off.configs) /
                                     static_cast<double>(on.configs)
                               : 0.0;
        table.add_row({model.name, std::to_string(off.configs),
                       std::to_string(on.configs),
                       TextTable::fmt(cut, 2) + "x",
                       std::to_string(on.whatif_evals),
                       fnv_on == fnv_off ? "yes" : "NO"});
        std::cerr << "  [" << model.name << " done]\n";
    }
    table.print();

    const double aggregate =
        total_on > 0 ? static_cast<double>(total_off) /
                           static_cast<double>(total_on)
                     : 0.0;
    std::cout << "aggregate mini-batch cut: " << total_off << " -> "
              << total_on << " (" << TextTable::fmt(aggregate, 2)
              << "x)\n";
    if (aggregate < 3.0) {
        std::cerr << "FAIL: aggregate cut " << TextTable::fmt(aggregate, 2)
                  << "x below the 3x gate\n";
        ok = false;
    }
    std::cout << (ok ? "micro_whatif: PASS\n" : "micro_whatif: FAIL\n");
    return ok ? 0 : 1;
}
