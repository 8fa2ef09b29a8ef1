/**
 * @file
 * Adaptive variables and the update tree (paper §4.4.2).
 *
 * An AdaptiveVariable is the basic unit of adaptation: a named choice
 * with a small option set, a context prefix for profile-index keying,
 * and the paper's interface (initialize / iterate / get_profile_value).
 * Variables are organized into an update tree whose interior nodes are
 * annotated with an exploration mode:
 *
 *  - Parallel:   all children explored simultaneously, one option per
 *                mini-batch each — fine-grained profiling makes their
 *                measurements independent, so total trials are the MAX
 *                over children, not the product (§4.5.1).
 *  - Exhaustive: cartesian product of the children (history-sensitive
 *                choices inside an epoch, §4.5.3).
 *  - Prefix:     children explored left to right; each child is frozen
 *                at its measured best before the next starts (§4.5.4).
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/profile_index.h"

namespace astra {

/** One adaptive choice explored by the custom wirer. */
class AdaptiveVariable
{
  public:
    /**
     * @param key stable identity, e.g. "g3|chunk".
     * @param num_options number of choices (>= 1).
     * @param default_option the choice used before/without exploration.
     */
    AdaptiveVariable(std::string key, int num_options,
                     int default_option = 0);

    // ---- the paper's interface -------------------------------------------

    /** Reset to the default choice and forget visit progress. */
    void initialize();

    /**
     * Advance to the next unvisited option.
     * @return false when every option has been visited.
     */
    bool iterate();

    /** Measured metric of the current choice, or NaN if unmeasured. */
    double get_profile_value(const ProfileIndex& index) const;

    // ---- wiring ------------------------------------------------------------

    const std::string& key() const { return key_; }

    /** Set the higher-level-binding prefix mangled into profile keys. */
    void set_context(std::string prefix) { context_ = std::move(prefix); }
    const std::string& context() const { return context_; }

    /** Full profile-index key for a given choice of this variable. */
    std::string profile_key_for(int choice) const;

    /** Full profile-index key for the current choice. */
    std::string profile_key() const { return profile_key_for(current_); }

    int current() const { return current_; }
    void set(int option);
    int num_options() const { return num_options_; }

    /** True once iterate() has walked every option. */
    bool finished() const { return visited_ >= num_options_; }

    /**
     * Bind to the best measured option under the current context.
     * @return false when nothing has been measured (default retained).
     */
    bool bind_best(const ProfileIndex& index);

    /**
     * Noise-aware ranking of this variable's options under the current
     * context (ProfileIndex::decide with this variable's key prefix).
     * A non-decisive result means the top two candidates are within
     * the index policy's noise floor and deserve re-measurement.
     */
    ChoiceDecision decide(const ProfileIndex& index) const;

  private:
    std::string key_;
    std::string context_;
    int num_options_;
    int default_;
    int current_;
    int visited_ = 1;
};

using VarPtr = std::shared_ptr<AdaptiveVariable>;

/** A node of the update tree. */
class UpdateNode
{
  public:
    enum class Mode
    {
        Leaf,
        Parallel,
        Exhaustive,
        Prefix,
    };

    /** Make a leaf holding one adaptive variable. */
    static std::unique_ptr<UpdateNode> leaf(VarPtr var);

    /** Make an interior node with the given exploration mode. */
    static std::unique_ptr<UpdateNode>
    composite(Mode mode, std::vector<std::unique_ptr<UpdateNode>> children);

    /**
     * Hook invoked by a Prefix node right after child `idx` is frozen
     * at its best; the custom wirer uses it to extend the contexts of
     * later children with the new binding (§4.6).
     */
    void
    set_on_child_bound(std::function<void(int)> hook)
    {
        on_child_bound_ = std::move(hook);
    }

    /** Reset the whole subtree to defaults. */
    void initialize();

    /** True when the subtree's exploration is complete. */
    bool finished() const;

    /**
     * Advance the exploration by one mini-batch step. Children that
     * complete are immediately bound to their measured best (the
     * exploration is work-conserving: finished parts run at their best
     * choice while the rest continues).
     */
    void advance(const ProfileIndex& index);

    /** Bind every variable in the subtree to its measured best. */
    void bind_best(const ProfileIndex& index);

    /** Upper bound on mini-batches this subtree needs (Table 7 math). */
    int64_t max_trials() const;

    /** Visit every variable in the subtree. */
    void
    for_each_var(const std::function<void(AdaptiveVariable&)>& fn) const;

    Mode mode() const { return mode_; }
    const std::vector<std::unique_ptr<UpdateNode>>& children() const
    {
        return children_;
    }
    const VarPtr& var() const { return var_; }

  private:
    UpdateNode() = default;

    Mode mode_ = Mode::Leaf;
    VarPtr var_;
    std::vector<std::unique_ptr<UpdateNode>> children_;
    std::function<void(int)> on_child_bound_;

    // Prefix state.
    size_t active_child_ = 0;
    // Exhaustive state.
    bool exhausted_ = false;
};

}  // namespace astra
