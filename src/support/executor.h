/**
 * @file
 * Background execution of asynchronous analysis jobs.
 *
 * Apophenia mines its task-history buffer asynchronously so that the
 * application is never stalled waiting for a string analysis (paper
 * section 4.3: "Asynchronous analysis of task histories is important to
 * avoid stalling the application"). In Legion these jobs run on the
 * runtime's background worker threads; here they run on a small worker
 * pool or, in the cluster simulation, on the worker team that also
 * fans out its per-node loops. An inline executor runs each job at
 * submission.
 *
 * No front end depends on its executor for progress: the thread that
 * ingests a mining job runs it itself if no worker has started it yet
 * (core/finder.h), so a slow or stalled executor never holds up an
 * ingestion beyond the job's own mining time.
 *
 * A job may carry a completion callback, which runs right after it on
 * the thread that ran it:
 *  - InlineExecutor: the calling thread, at submission.
 *  - WorkerPool: a worker thread (callers that share state with the
 *    callback must synchronize).
 *  - TaskTeam: one of the team's workers between index-loop epochs,
 *    or the owner inside Drain().
 * The front ends register none: an ingestion waits on its job itself.
 */
#ifndef APOPHENIA_SUPPORT_EXECUTOR_H
#define APOPHENIA_SUPPORT_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace apo::support {

/** Abstract job executor. */
class Executor {
  public:
    virtual ~Executor() = default;

    /** Schedule `job` for execution. */
    virtual void Submit(std::function<void()> job) = 0;

    /** Schedule `job`; run `on_complete` once it has finished. See the
     * file comment for where each executor runs the callback. */
    virtual void Submit(std::function<void()> job,
                        std::function<void()> on_complete)
    {
        Submit([job = std::move(job),
                on_complete = std::move(on_complete)]() mutable {
            job();
            on_complete();
        });
    }

    /** Let the calling thread make progress on queued work. A no-op:
     * no executor here needs it, and a wrapping executor forwards it. */
    virtual void Pump() {}

    /** Block until every submitted job has finished. */
    virtual void Drain() = 0;
};

/**
 * Runs each job synchronously at submission time. Deterministic; used
 * by unit tests and by the control-replication determinism checks.
 */
class InlineExecutor final : public Executor {
  public:
    using Executor::Submit;
    void Submit(std::function<void()> job) override { job(); }
    void Drain() override {}
};

/**
 * A fixed-size pool of background worker threads consuming a FIFO job
 * queue. Models Legion's background worker threads that Apophenia's
 * history-mining jobs execute on (paper section 6.3).
 */
class WorkerPool final : public Executor {
  public:
    explicit WorkerPool(std::size_t num_threads = 2);
    ~WorkerPool() override;

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    using Executor::Submit;
    void Submit(std::function<void()> job) override;
    void Drain() override;

  private:
    void WorkerLoop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool shutting_down_ = false;
    std::vector<std::thread> threads_;
};

/**
 * A fixed team of threads for data-parallel index loops, built for the
 * cluster simulation's per-node stepping: the *same* body runs over a
 * dense index range, many times, with a barrier after each range.
 *
 * Unlike WorkerPool::Submit (one std::function allocation + queue node
 * per job), the body is installed once and each Run() merely republishes
 * an index range to the persistent workers — Run() itself performs no
 * allocation, so it can sit on a zero-allocation-per-launch issue path
 * whose batches fan out through the team.
 *
 * `threads` counts the caller: TaskTeam(1) spawns no workers and Run()
 * degenerates to an inline loop, so a jobs=1 configuration is exactly
 * the serial schedule. Indices are claimed from a shared atomic
 * counter; the body must be safe to invoke concurrently for distinct
 * indices.
 *
 * The team is also an Executor for background jobs: Submit() queues a
 * job in a FIFO that idle workers run *between* Run() epochs (a worker
 * that finds an epoch open joins it first). A Run() epoch is joined
 * only by the workers idle while it is open; its barrier waits for
 * those alone, so a worker inside a long job never holds up a Run(),
 * and a worker that wakes after the epoch closed claims none of its
 * indices. The owner runs queued jobs only in Drain(), which runs them
 * on the calling thread and then waits for the workers' running ones.
 * A job that throws on a worker is captured and rethrown by the
 * owner's next Drain(). TaskTeam(1) runs each job inline at Submit(),
 * as InlineExecutor does.
 */
class TaskTeam final : public Executor {
  public:
    explicit TaskTeam(std::size_t threads = 1);
    /** Workers finish every queued job before they exit; a failure
     * no Drain() collected is dropped. */
    ~TaskTeam() override;

    TaskTeam(const TaskTeam&) = delete;
    TaskTeam& operator=(const TaskTeam&) = delete;

    /** Install the loop body. Must precede the first Run() and must
     * not be called while a Run() is in flight. */
    void SetBody(std::function<void(std::size_t)> body);

    /** Invoke body(i) for every i in [0, count), on the calling thread
     * plus the workers that join the epoch; returns after all indices
     * completed. If any invocation throws, the first exception is
     * captured, the barrier still completes (no joined worker outlives
     * a Run over state it borrows), and the exception is rethrown here
     * on the caller. */
    void Run(std::size_t count);

    /** Total threads that can take part in a Run (workers + caller). */
    std::size_t Threads() const { return workers_.size() + 1; }

    // -- Background jobs (Executor) ------------------------------------------

    using Executor::Submit;
    /** Queue `job` for the workers (run inline on a caller-only team). */
    void Submit(std::function<void()> job) override;
    /** Run every queued job on this thread, wait until no worker runs
     * one, then rethrow the first failure of any of them. */
    void Drain() override;

  private:
    void WorkerLoop();
    /** body_(i) with the first thrown exception captured into
     * error_ (rethrown by Run after the barrier). */
    void Invoke(std::size_t i);
    /** Pop the oldest queued job and run it with `lock` (on mutex_,
     * held on entry and on return) released; returns what it threw. */
    std::exception_ptr RunFront(std::unique_lock<std::mutex>& lock);

    std::function<void(std::size_t)> body_;
    std::mutex mutex_;
    /** Wakes workers: an epoch opened, a job was queued, or shutdown. */
    std::condition_variable wake_;
    /** Wakes the owner: the epoch's joined workers left, or the last
     * running background job finished. */
    std::condition_variable done_;
    std::uint64_t epoch_ = 0;     ///< bumped per Run
    bool open_ = false;           ///< the current epoch takes joiners
    std::size_t count_ = 0;       ///< index range of the current epoch
    std::size_t joined_ = 0;      ///< workers still inside the epoch
    bool shutting_down_ = false;
    std::exception_ptr error_;    ///< first failure of this epoch
    std::atomic<std::size_t> next_{0};  ///< shared index claim counter
    std::deque<std::function<void()>> jobs_;  ///< queued, FIFO
    std::size_t jobs_running_ = 0;  ///< dequeued, not yet finished
    std::exception_ptr job_error_;  ///< first worker-side job failure
    std::vector<std::thread> workers_;
};

}  // namespace apo::support

#endif  // APOPHENIA_SUPPORT_EXECUTOR_H
