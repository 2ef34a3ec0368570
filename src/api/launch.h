/**
 * @file
 * The zero-allocation launch builder.
 *
 * The seed's issue path built a fresh TaskLaunch — one heap-allocated
 * requirement vector — per launch, and every consumer (front-end
 * buffering, the runtime) copied that vector again. LaunchBuilder
 * inverts the ownership: the requirements live in a caller-owned
 * arena that is *reused* across launches (capacity persists, so the
 * steady state allocates nothing), the token hash is folded in
 * incrementally as requirements are added, and consumers receive a
 * non-owning rt::TaskLaunchView. Only a consumer that must *hold* the
 * launch past the call (Apophenia buffering a candidate's tasks, the
 * runtime's operation log) materializes it.
 *
 *     api::LaunchBuilder builder;           // long-lived, reused
 *     builder.Start("stencil", shard, 80.0)
 *         .Add(u.Read(g))
 *         .Add(u.Read(g - 1))
 *         .Add(out.Write(g))
 *         .LaunchOn(frontend);
 *
 * The view returned by View() (and passed by LaunchOn) is valid until
 * the next Start() on the same builder.
 */
#ifndef APOPHENIA_API_LAUNCH_H
#define APOPHENIA_API_LAUNCH_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "api/frontend.h"
#include "runtime/task.h"

namespace apo::api {

/** See file comment. */
class LaunchBuilder {
  public:
    /** Begin a new launch, discarding the previous one. The arena's
     * capacity is kept. */
    LaunchBuilder& Start(rt::TaskId task, std::uint32_t shard = 0,
                         double execution_us = 100.0)
    {
        requirements_.clear();
        view_.task = task;
        view_.shard = shard;
        view_.execution_us = execution_us;
        view_.blocking = false;
        view_.traceable = true;
        hash_ = rt::HashTaskId(task);
        return *this;
    }

    LaunchBuilder& Start(std::string_view name, std::uint32_t shard = 0,
                         double execution_us = 100.0)
    {
        return Start(rt::TaskIdOf(name), shard, execution_us);
    }

    /** Append one region requirement; folds it into the token. */
    LaunchBuilder& Add(const rt::RegionRequirement& req)
    {
        requirements_.push_back(req);
        hash_ = rt::HashRequirement(hash_, req);
        return *this;
    }

    /** The application blocks on this launch's result. */
    LaunchBuilder& Blocking(bool blocking = true)
    {
        view_.blocking = blocking;
        return *this;
    }

    /** Mark the launch non-memoizable (see TaskLaunch::traceable). */
    LaunchBuilder& Traceable(bool traceable)
    {
        view_.traceable = traceable;
        return *this;
    }

    LaunchBuilder& Shard(std::uint32_t shard)
    {
        view_.shard = shard;
        return *this;
    }

    LaunchBuilder& ExecutionUs(double execution_us)
    {
        view_.execution_us = execution_us;
        return *this;
    }

    /** The assembled launch as a view over this builder's arena.
     * Valid until the next Start(). */
    const rt::TaskLaunchView& View()
    {
        view_.requirements = requirements_.data();
        view_.requirement_count = requirements_.size();
        view_.token = hash_;
        return view_;
    }

    /** Issue the assembled launch. The builder stays reusable. */
    void LaunchOn(Frontend& frontend) { frontend.ExecuteTask(View()); }

  private:
    std::vector<rt::RegionRequirement> requirements_;  ///< the arena
    rt::TaskLaunchView view_;
    rt::TokenHash hash_ = 0;
};

}  // namespace apo::api

#endif  // APOPHENIA_API_LAUNCH_H
