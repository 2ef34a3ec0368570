#include "support/executor.h"

#include <utility>

namespace apo::support {

WorkerPool::WorkerPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = 1;
    }
    threads_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        threads_.emplace_back([this] { WorkerLoop(); });
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard lock(mutex_);
        shutting_down_ = true;
    }
    work_available_.notify_all();
    for (auto& t : threads_) {
        t.join();
    }
}

void
WorkerPool::Submit(std::function<void()> job)
{
    {
        std::lock_guard lock(mutex_);
        queue_.push_back(std::move(job));
    }
    work_available_.notify_one();
}

void
WorkerPool::Drain()
{
    std::unique_lock lock(mutex_);
    idle_.wait(lock,
               [this] { return queue_.empty() && in_flight_ == 0; });
}

void
WorkerPool::WorkerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock lock(mutex_);
            work_available_.wait(
                lock, [this] { return shutting_down_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // shutting down and no work left
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        job();
        {
            std::lock_guard lock(mutex_);
            --in_flight_;
        }
        idle_.notify_all();
    }
}

PooledExecutor::PooledExecutor(std::size_t num_threads)
    : pool_(num_threads)
{
}

PooledExecutor::~PooledExecutor()
{
    // Jobs may still be running; wait for them and deliver the
    // remaining callbacks so no completion is silently dropped.
    Drain();
}

void
PooledExecutor::Submit(std::function<void()> job)
{
    Submit(std::move(job), [] {});
}

void
PooledExecutor::Submit(std::function<void()> job,
                       std::function<void()> on_complete)
{
    Ticket* ticket = nullptr;
    {
        std::lock_guard lock(mutex_);
        tickets_.push_back(Ticket{std::move(on_complete), false});
        // Stable address: tickets are popped only by the owner thread,
        // and a ticket is popped only after the worker marked it done
        // (i.e., after the worker's last access).
        ticket = &tickets_.back();
    }
    pool_.Submit([this, ticket, job = std::move(job)] {
        job();
        std::lock_guard lock(mutex_);
        ticket->done = true;
    });
}

std::vector<std::function<void()>>
PooledExecutor::TakeReadyPrefix()
{
    std::vector<std::function<void()>> ready;
    std::lock_guard lock(mutex_);
    while (!tickets_.empty() && tickets_.front().done) {
        ready.push_back(std::move(tickets_.front().on_complete));
        tickets_.pop_front();
    }
    return ready;
}

void
PooledExecutor::Pump()
{
    for (auto& callback : TakeReadyPrefix()) {
        callback();
    }
}

void
PooledExecutor::Drain()
{
    pool_.Drain();
    Pump();
}

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
    start_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void
TaskTeam::SetBody(std::function<void(std::size_t)> body)
{
    // Workers only read body_ after observing a new epoch under the
    // same mutex, so publishing it here is race-free as long as no
    // Run() is in flight (the documented contract).
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
        running_ = workers_.size();
        error_ = nullptr;
        ++epoch_;
    }
    start_.notify_all();
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
    done_.wait(lock, [this] { return running_ == 0; });
    // Only past the barrier may a failure unwind the caller: every
    // worker has quiesced, so nothing still touches borrowed state.
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
TaskTeam::WorkerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::size_t count = 0;
        {
            std::unique_lock lock(mutex_);
            start_.wait(lock, [&] {
                return shutting_down_ || epoch_ != seen;
            });
            if (shutting_down_) {
                return;
            }
            seen = epoch_;
            count = count_;
        }
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) {
                break;
            }
            Invoke(i);
        }
        {
            std::lock_guard lock(mutex_);
            --running_;
        }
        done_.notify_one();
    }
}

}  // namespace apo::support
