/**
 * @file
 * Shared helpers for the test suite: a minimal value-executing runner
 * over the native plan, and tolerance-based comparisons.
 */
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/astra.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"

namespace astra::testutil {

/** Owns memory + tensor map for one graph and runs the native plan. */
class Runner
{
  public:
    explicit Runner(const Graph& graph,
                    std::vector<AdjacencyRun> runs = {})
        : graph_(graph),
          mem_(graph_tensor_bytes(graph) + (1 << 20)),
          tmap_(graph, mem_, runs)
    {
        cfg_.execute_kernels = true;
    }

    const TensorMap& tmap() const { return tmap_; }
    GpuConfig& config() { return cfg_; }

    DispatchResult
    run_native()
    {
        return dispatch_plan(native_plan(graph_), graph_, tmap_, cfg_);
    }

    DispatchResult
    run(const ExecutionPlan& plan)
    {
        return dispatch_plan(plan, graph_, tmap_, cfg_);
    }

    /** Scalar value of a [1]-shaped node (e.g. the loss). */
    float
    scalar(NodeId id) const
    {
        return tmap_.f32(id)[0];
    }

    /** Copy of a node's buffer. */
    std::vector<float>
    values(NodeId id) const
    {
        const int64_t n = graph_.node(id).desc.shape.numel();
        const float* p = tmap_.f32(id);
        return std::vector<float>(p, p + n);
    }

  private:
    const Graph& graph_;
    SimMemory mem_;
    TensorMap tmap_;
    GpuConfig cfg_;
};

/** Max absolute difference between two equally-sized vectors. */
inline double
max_abs_diff(const std::vector<float>& a, const std::vector<float>& b)
{
    if (a.size() != b.size())
        return 1e30;
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst,
                         std::abs(static_cast<double>(a[i]) - b[i]));
    return worst;
}

/** Equal plans: same stream count and every PlanStep field equal. */
inline ::testing::AssertionResult
same_plan(const ExecutionPlan& a, const ExecutionPlan& b)
{
    if (a.num_streams != b.num_streams)
        return ::testing::AssertionFailure()
               << "num_streams " << a.num_streams << " vs "
               << b.num_streams;
    if (a.steps.size() != b.steps.size())
        return ::testing::AssertionFailure()
               << "step count " << a.steps.size() << " vs "
               << b.steps.size();
    for (size_t i = 0; i < a.steps.size(); ++i) {
        const PlanStep& x = a.steps[i];
        const PlanStep& y = b.steps[i];
        const char* field = nullptr;
        if (x.kind != y.kind)
            field = "kind";
        else if (x.nodes != y.nodes)
            field = "nodes";
        else if (x.lib != y.lib)
            field = "lib";
        else if (x.fused_axis != y.fused_axis)
            field = "fused_axis";
        else if (x.stream != y.stream)
            field = "stream";
        else if (x.profile != y.profile)
            field = "profile";
        else if (x.profile_key != y.profile_key)
            field = "profile_key";
        else if (x.epoch_metric != y.epoch_metric)
            field = "epoch_metric";
        else if (x.compound_cost.blocks != y.compound_cost.blocks ||
                 x.compound_cost.block_ns != y.compound_cost.block_ns ||
                 x.compound_cost.setup_ns != y.compound_cost.setup_ns ||
                 x.compound_cost.max_sms != y.compound_cost.max_sms)
            field = "compound_cost";
        else if (x.compound_name != y.compound_name)
            field = "compound_name";
        else if (x.extra_setup_ns != y.extra_setup_ns)
            field = "extra_setup_ns";
        if (field)
            return ::testing::AssertionFailure()
                   << "step " << i << " differs in " << field;
    }
    return ::testing::AssertionSuccess();
}

}  // namespace astra::testutil
