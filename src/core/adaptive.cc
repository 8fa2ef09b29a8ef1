#include "core/adaptive.h"

#include <cmath>
#include <limits>

#include "support/logging.h"

namespace astra {

AdaptiveVariable::AdaptiveVariable(std::string key, int num_options,
                                   int default_option)
    : key_(std::move(key)), num_options_(num_options),
      default_(default_option), current_(default_option)
{
    ASTRA_ASSERT(num_options_ >= 1);
    ASTRA_ASSERT(default_ >= 0 && default_ < num_options_);
}

void
AdaptiveVariable::initialize()
{
    current_ = default_;
    visited_ = 1;
}

bool
AdaptiveVariable::iterate()
{
    if (finished())
        return false;
    // Walk options in order, skipping the default (visited first).
    // visited_ counts distinct options seen so far; finished() bounds
    // the loop, so the walk can never spin with nothing left to visit.
    do {
        ++current_;
        if (current_ >= num_options_)
            current_ = 0;
    } while (current_ == default_);
    ++visited_;
    return !finished();
}

double
AdaptiveVariable::get_profile_value(const ProfileIndex& index) const
{
    const auto v = index.lookup(profile_key());
    return v ? *v : std::numeric_limits<double>::quiet_NaN();
}

std::string
AdaptiveVariable::profile_key_for(int choice) const
{
    return context_ + key_ + "=" + std::to_string(choice);
}

void
AdaptiveVariable::set(int option)
{
    ASTRA_ASSERT(option >= 0 && option < num_options_,
                 "option out of range for ", key_);
    current_ = option;
}

bool
AdaptiveVariable::bind_best(const ProfileIndex& index)
{
    const int best =
        index.best_choice(context_ + key_ + "=", num_options_);
    if (best < 0) {
        current_ = default_;
        return false;
    }
    current_ = best;
    return true;
}

ChoiceDecision
AdaptiveVariable::decide(const ProfileIndex& index) const
{
    return index.decide(context_ + key_ + "=", num_options_);
}

std::unique_ptr<UpdateNode>
UpdateNode::leaf(VarPtr var)
{
    ASTRA_ASSERT(var != nullptr);
    auto node = std::unique_ptr<UpdateNode>(new UpdateNode());
    node->mode_ = Mode::Leaf;
    node->var_ = std::move(var);
    return node;
}

std::unique_ptr<UpdateNode>
UpdateNode::composite(Mode mode,
                      std::vector<std::unique_ptr<UpdateNode>> children)
{
    ASTRA_ASSERT(mode != Mode::Leaf);
    auto node = std::unique_ptr<UpdateNode>(new UpdateNode());
    node->mode_ = mode;
    node->children_ = std::move(children);
    if (mode == Mode::Exhaustive) {
        // The generic odometer is implemented over leaf children; for
        // coupled metrics over larger subtrees, flatten the product
        // into one variable instead.
        for (const auto& c : node->children_)
            ASTRA_ASSERT(c->mode_ == Mode::Leaf,
                         "Exhaustive nodes take leaf children");
    }
    return node;
}

void
UpdateNode::initialize()
{
    active_child_ = 0;
    exhausted_ = false;
    if (mode_ == Mode::Leaf) {
        var_->initialize();
        return;
    }
    for (auto& c : children_)
        c->initialize();
    if (mode_ == Mode::Exhaustive) {
        bool all_single = true;
        for (const auto& c : children_)
            all_single &= c->var_->num_options() == 1;
        exhausted_ = children_.empty() || all_single;
    }
}

bool
UpdateNode::finished() const
{
    switch (mode_) {
      case Mode::Leaf:
        return var_->finished();
      case Mode::Parallel:
        for (const auto& c : children_)
            if (!c->finished())
                return false;
        return true;
      case Mode::Exhaustive:
        return exhausted_;
      case Mode::Prefix:
        return active_child_ >= children_.size();
    }
    return true;
}

void
UpdateNode::advance(const ProfileIndex& index)
{
    switch (mode_) {
      case Mode::Leaf:
        // Advance only; binding to the best happens on the *next* step
        // (via the parent or the wirer), after the final option's
        // measurement has landed in the index.
        var_->iterate();
        return;
      case Mode::Parallel:
        // Every unfinished child advances in the same mini-batch;
        // fine-grained profiling keeps their measurements independent.
        // Children that are done run at their measured best while the
        // rest continue (work conservation).
        for (auto& c : children_)
            if (c->finished())
                c->bind_best(index);
            else
                c->advance(index);
        return;
      case Mode::Exhaustive: {
        // Odometer over the children's options (brute force).
        if (exhausted_)
            return;
        for (size_t i = 0; i < children_.size(); ++i) {
            AdaptiveVariable& v = *children_[i]->var_;
            if (v.current() + 1 < v.num_options()) {
                v.set(v.current() + 1);
                for (size_t j = 0; j < i; ++j)
                    children_[j]->var_->set(0);
                return;
            }
        }
        exhausted_ = true;
        bind_best(index);
        return;
      }
      case Mode::Prefix: {
        if (active_child_ >= children_.size())
            return;
        UpdateNode& child = *children_[active_child_];
        if (child.finished()) {
            // The child's final option was measured in the trial that
            // just completed; freeze it at its best and move right. The
            // next trial measures the successor's default under the
            // extended context — binding must not race ahead of that.
            child.bind_best(index);
            if (on_child_bound_)
                on_child_bound_(static_cast<int>(active_child_));
            ++active_child_;
            // Skip successors with nothing to explore.
            while (active_child_ < children_.size() &&
                   children_[active_child_]->finished()) {
                children_[active_child_]->bind_best(index);
                if (on_child_bound_)
                    on_child_bound_(static_cast<int>(active_child_));
                ++active_child_;
            }
            return;
        }
        child.advance(index);
        return;
      }
    }
}

void
UpdateNode::bind_best(const ProfileIndex& index)
{
    if (mode_ == Mode::Leaf) {
        var_->bind_best(index);
        return;
    }
    for (auto& c : children_)
        c->bind_best(index);
}

int64_t
UpdateNode::max_trials() const
{
    switch (mode_) {
      case Mode::Leaf:
        return var_->num_options();
      case Mode::Parallel: {
        int64_t worst = 1;
        for (const auto& c : children_)
            worst = std::max(worst, c->max_trials());
        return worst;
      }
      case Mode::Exhaustive: {
        int64_t product = 1;
        for (const auto& c : children_)
            product *= c->max_trials();
        return product;
      }
      case Mode::Prefix: {
        int64_t total = 0;
        for (const auto& c : children_)
            total += c->max_trials();
        return std::max<int64_t>(total, 1);
      }
    }
    return 1;
}

void
UpdateNode::for_each_var(
    const std::function<void(AdaptiveVariable&)>& fn) const
{
    if (mode_ == Mode::Leaf) {
        fn(*var_);
        return;
    }
    for (const auto& c : children_)
        c->for_each_var(fn);
}

}  // namespace astra
