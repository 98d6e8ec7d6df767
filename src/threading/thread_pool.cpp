#include "threading/thread_pool.h"

#include <stdexcept>

#include "common/timing.h"

namespace smart {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    throw std::invalid_argument("ThreadPool: num_workers must be positive");
  }
  busy_seconds_.assign(static_cast<std::size_t>(num_workers), 0.0);
  errors_.assign(static_cast<std::size_t>(num_workers), nullptr);
  workers_.reserve(static_cast<std::size_t>(num_workers));
  worker_ids_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    ThreadCpuTimer timer;
    std::exception_ptr error = nullptr;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    const double busy = timer.seconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_seconds_[static_cast<std::size_t>(id)] = busy;
      errors_[static_cast<std::size_t>(id)] = error;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

bool ThreadPool::on_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id& id : worker_ids_) {
    if (id == self) return true;
  }
  return false;
}

std::vector<double> ThreadPool::run_inline(const std::function<void(int)>& fn) {
  // Nested region from a worker thread: serialize on the caller.  Results
  // are kept local — the outer region owns busy_seconds_/errors_, and the
  // caller-worker's own slot will be written when its outer leg finishes.
  std::vector<double> busy(static_cast<std::size_t>(size()), 0.0);
  std::exception_ptr first_error = nullptr;
  for (int id = 0; id < size(); ++id) {
    ThreadCpuTimer timer;
    try {
      fn(id);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    busy[static_cast<std::size_t>(id)] = timer.seconds();
  }
  if (first_error) std::rethrow_exception(first_error);
  return busy;
}

std::vector<double> ThreadPool::parallel_region(const std::function<void(int)>& fn) {
  // A worker calling back into its own pool would wait forever for itself:
  // the outer region's remaining_ includes the calling worker, which is
  // blocked here instead of finishing its leg.  Run the nested region
  // inline instead of deadlocking.
  if (on_worker_thread()) return run_inline(fn);
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  remaining_ = size();
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  for (auto& err : errors_) {
    if (err) {
      std::exception_ptr e = err;
      err = nullptr;
      std::rethrow_exception(e);
    }
  }
  return busy_seconds_;
}

}  // namespace smart
