#include "bench/common.h"

#include <iostream>
#include <string>

#include "runtime/dispatcher.h"
#include "runtime/native.h"

namespace astra::bench {

void
init_observability(int* argc, char** argv)
{
    for (int i = 1; i + 1 < *argc; ++i) {
        if (std::string(argv[i]) != "--trace-out")
            continue;
        obs::set_trace_path(argv[i + 1]);
        for (int j = i; j + 2 < *argc; ++j)
            argv[j] = argv[j + 2];
        *argc -= 2;
        return;
    }
    obs::init_from_env();
}

ModelConfig
paper_config(ModelKind kind, int64_t batch, bool embedding)
{
    ModelConfig cfg;
    cfg.batch = batch;
    cfg.seq_len = 10;
    cfg.hidden = 512;
    cfg.embed_dim = 512;
    cfg.vocab = 4000;
    cfg.include_embedding = embedding;
    switch (kind) {
      case ModelKind::StackedLstm:
        // PTB "large" configuration: input/hidden size 1500 (§6.3).
        cfg.hidden = 1500;
        cfg.embed_dim = 1500;
        cfg.layers = 2;
        break;
      case ModelKind::Gnmt:
        cfg.hidden = 512;
        cfg.embed_dim = 512;
        cfg.seq_len = 6;   // 8x layers already multiply the graph
        cfg.layers = 1;    // -> 4 encoder + 4 decoder layers
        break;
      default:
        break;
    }
    return cfg;
}

double
native_ns(const BuiltModel& model, const Env& env)
{
    SimMemory mem(graph_tensor_bytes(model.graph()) + (1 << 20), false);
    TensorMap tmap(model.graph(), mem);
    return dispatch_plan(native_plan(model.graph()), model.graph(), tmap,
                         env.gpu).total_ns;
}

AstraOutcome
astra_ns(const BuiltModel& model, const AstraFeatures& f, const Env& env,
         const WhatIfOptions& whatif, int wirer_threads,
         const std::string& plan_store)
{
    AstraOptions opts;
    opts.features = f;
    opts.gpu = env.gpu;
    opts.sched = env.sched;
    opts.whatif = whatif;
    opts.wirer_threads = wirer_threads;
    opts.plan_store = plan_store;
    AstraSession session(model.graph(), opts);
    const WirerResult r = session.optimize();
    AstraOutcome out;
    out.ns = r.best_ns;
    out.configs = r.minibatches;
    out.whatif_evals = r.convergence.whatif_evals;
    out.measured_configs = r.convergence.measured_configs;
    out.config_text = config_to_string(r.best_config);
    return out;
}

double
cudnn_ns(const BuiltModel& model, const Env& env)
{
    SimMemory mem(graph_tensor_bytes(model.graph()) + (1 << 20), false);
    TensorMap tmap(model.graph(), mem);
    return dispatch_plan(cudnn_plan(model.graph(), model.cudnn_layers,
                                    env.gpu),
                         model.graph(), tmap, env.gpu).total_ns;
}

double
xla_ns(const BuiltModel& model, const Env& env)
{
    const SearchSpace space = enumerate_search_space(model.graph());
    SimMemory mem(graph_tensor_bytes(model.graph()) + (1 << 20), false);
    TensorMap tmap(model.graph(), mem, space.strategies[0].runs);
    return dispatch_plan(xla_plan(model.graph(), space), model.graph(),
                         tmap, env.gpu).total_ns;
}

void
print_speedup_table(const std::string& title, ModelKind kind,
                    const std::map<int64_t, double>& paper,
                    const Env& env)
{
    TextTable table(title);
    table.set_header({"Mini-batch", "PyT", "Astra_F", "Astra_FK",
                      "Astra_FKS", "Astra_all", "paper Astra_all"});
    for (int64_t batch : kBatches) {
        const BuiltModel model =
            build_model(kind, paper_config(kind, batch));
        const double base = native_ns(model, env);
        const double f = astra_ns(model, features_f(), env).ns;
        const double fk = astra_ns(model, features_fk(), env).ns;
        const double fks = astra_ns(model, features_fks(), env).ns;
        const double all = astra_ns(model, features_all(), env).ns;
        std::vector<double> row = {1.0, base / f, base / fk, base / fks,
                                   base / all};
        const auto it = paper.find(batch);
        if (it != paper.end())
            row.push_back(it->second);
        table.add_row(std::to_string(batch), row);
        std::cerr << "  [batch " << batch << " done]\n";
    }
    table.print();
}

}  // namespace astra::bench
