#include "support/executor.h"

#include <utility>

namespace apo::support {

TaskTeam::TaskTeam(std::size_t threads)
{
    if (threads <= 1) {
        return;  // caller-only team: Run() loops inline
    }
    workers_.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

TaskTeam::~TaskTeam()
{
    {
        std::lock_guard lock(mutex_);
        shutting_down_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void
TaskTeam::SetBody(std::function<void(std::size_t)> body)
{
    // Workers only read body_ after joining an epoch under the same
    // mutex, so publishing it here is race-free as long as no Run() is
    // in flight (the documented contract).
    std::lock_guard lock(mutex_);
    body_ = std::move(body);
}

void
TaskTeam::Invoke(std::size_t i)
{
    try {
        body_(i);
    } catch (...) {
        std::lock_guard lock(mutex_);
        if (!error_) {
            error_ = std::current_exception();
        }
    }
}

void
TaskTeam::Run(std::size_t count)
{
    if (count == 0) {
        return;
    }
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            body_(i);  // inline: exceptions propagate directly
        }
        return;
    }
    {
        std::lock_guard lock(mutex_);
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        open_ = true;
        ++epoch_;
    }
    wake_.notify_all();
    // The caller is a team member too: claim indices alongside the
    // workers instead of idling at the barrier.
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
            break;
        }
        Invoke(i);
    }
    std::unique_lock lock(mutex_);
    // Close the epoch: a worker that wakes from here on (it was inside
    // a background job) finds nothing to join. Only the workers that
    // joined can still hold an index, and next_ is reset only after
    // they have all left.
    open_ = false;
    done_.wait(lock, [this] { return joined_ == 0; });
    // Only past the barrier may a failure unwind the caller: every
    // joined worker has quiesced, so nothing still touches borrowed
    // state.
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
TaskTeam::Submit(std::function<void()> job)
{
    if (workers_.empty()) {
        job();  // caller-only team: inline, exceptions propagate
        return;
    }
    {
        std::lock_guard lock(mutex_);
        jobs_.push_back(std::move(job));
    }
    wake_.notify_one();
}

std::exception_ptr
TaskTeam::RunFront(std::unique_lock<std::mutex>& lock)
{
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    ++jobs_running_;
    lock.unlock();
    std::exception_ptr error;
    try {
        job();
    } catch (...) {
        error = std::current_exception();
    }
    job = nullptr;  // drop its captures before reporting it done
    lock.lock();
    if (--jobs_running_ == 0) {
        done_.notify_all();
    }
    return error;
}

void
TaskTeam::Drain()
{
    std::exception_ptr first;
    std::unique_lock lock(mutex_);
    for (;;) {
        // Help instead of only waiting: run queued jobs here until
        // none is queued or running.
        done_.wait(lock, [this] {
            return jobs_running_ == 0 || !jobs_.empty();
        });
        if (jobs_.empty()) {
            break;
        }
        std::exception_ptr error = RunFront(lock);
        if (!first) {
            first = error;
        }
    }
    if (!first) {
        first = job_error_;
    }
    job_error_ = nullptr;
    if (first) {
        lock.unlock();
        std::rethrow_exception(first);
    }
}

void
TaskTeam::WorkerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] {
            return shutting_down_ || (open_ && epoch_ != seen) ||
                   !jobs_.empty();
        });
        if (open_ && epoch_ != seen) {
            // An open epoch comes before any queued job: the fan-out
            // is on the owner's critical path.
            seen = epoch_;
            ++joined_;
            const std::size_t count = count_;
            lock.unlock();
            for (;;) {
                const std::size_t i =
                    next_.fetch_add(1, std::memory_order_relaxed);
                if (i >= count) {
                    break;
                }
                Invoke(i);
            }
            lock.lock();
            if (--joined_ == 0 && !open_) {
                done_.notify_all();
            }
            continue;
        }
        if (jobs_.empty()) {
            return;  // shutting down and no work left
        }
        std::exception_ptr error = RunFront(lock);
        if (!job_error_) {
            job_error_ = error;  // rethrown by the owner's Drain
        }
    }
}

}  // namespace apo::support
