#include "storage/async_disk.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace cobra {
namespace {

// Anticipation window (see the header), from the end of a transfer: one
// round trip of the query just served.
constexpr auto kAnticipation = std::chrono::microseconds(150);

}  // namespace

std::optional<IoRun> ElevatorIoQueue::PopRun(PageId head,
                                             size_t max_run_pages) {
  auto it = ScanNext(by_page_, head, &sweeping_up_);
  if (it == by_page_.end()) {
    return std::nullopt;
  }
  IoRun run;
  run.ascending = sweeping_up_;
  const PageId entry = it->first;
  // FIFO among the entry page's waiters: start from its *oldest* request
  // (ScanNext lands on the newest one on a down-sweep), then drain the read
  // prefix — reads enqueued after a write must not overtake it.
  auto oldest = by_page_.lower_bound(entry);
  run.is_read = oldest->second.is_read;
  run.tickets.emplace_back(entry, oldest->second.ticket);
  by_page_.erase(oldest);
  run.first = entry;
  if (!run.is_read || max_run_pages <= 1) {
    return run;
  }
  for (auto next = by_page_.lower_bound(entry);
       next != by_page_.end() && next->first == entry && next->second.is_read;
       next = by_page_.lower_bound(entry)) {
    run.tickets.emplace_back(entry, next->second.ticket);
    by_page_.erase(next);
  }
  // Coalesce consecutive pages along the sweep direction.  A reversal never
  // happens inside a run: extension stops at the first gap.
  PageId cursor = entry;
  while (run.pages < max_run_pages) {
    if (run.ascending ? cursor >= kInvalidPageId - 1 : cursor == 0) {
      break;  // edge of the page space
    }
    const PageId next_page = run.ascending ? cursor + 1 : cursor - 1;
    auto [lo, hi] = by_page_.equal_range(next_page);
    if (lo == hi) {
      break;
    }
    bool all_reads = true;
    for (auto w = lo; w != hi; ++w) {
      if (!w->second.is_read) {
        all_reads = false;
        break;
      }
    }
    if (!all_reads) {
      break;
    }
    for (auto w = lo; w != hi; ++w) {
      run.tickets.emplace_back(next_page, w->second.ticket);
    }
    by_page_.erase(lo, hi);
    cursor = next_page;
    run.pages++;
  }
  run.first = run.ascending ? entry : cursor;
  return run;
}

AsyncDisk::AsyncDisk(SimulatedDisk* backing)
    : SimulatedDisk(DiskOptions{.page_size = backing->page_size(),
                                .geometry = {}}),
      backing_(backing),
      queues_(backing->num_spindles()) {
  io_threads_.reserve(queues_.size());
  for (uint32_t s = 0; s < queues_.size(); ++s) {
    io_threads_.emplace_back([this, s] { IoLoop(s); });
  }
}

AsyncDisk::~AsyncDisk() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : io_threads_) {
    t.join();
  }
}

std::shared_future<Status> AsyncDisk::Submit(Request request) {
  request.ctx = obs::CurrentQueryShared();
  std::shared_future<Status> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t ticket = next_ticket_++;
    future = request.promise.get_future().share();
    if (request.is_read) {
      stats_.reads_submitted++;
    } else {
      stats_.writes_submitted++;
    }
    queues_[backing_->SpindleOf(request.page)].Push(request.page, ticket,
                                                    request.is_read);
    pending_.emplace(ticket, std::move(request));
    size_t depth = pending_.size();
    if (depth > stats_.max_queue_depth) {
      stats_.max_queue_depth = depth;
    }
  }
  work_cv_.notify_all();
  return future;
}

std::shared_future<Status> AsyncDisk::SubmitRead(PageId id, std::byte* out) {
  Request request;
  request.page = id;
  request.is_read = true;
  request.out = out;
  return Submit(std::move(request));
}

std::shared_future<Status> AsyncDisk::SubmitWrite(PageId id,
                                                  const std::byte* data) {
  Request request;
  request.page = id;
  request.is_read = false;
  request.in = data;
  return Submit(std::move(request));
}

Status AsyncDisk::WritePage(PageId id, const std::byte* data) {
  return SubmitWrite(id, data).get();
}

void AsyncDisk::set_max_run_pages(size_t pages) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_run_pages_ = pages == 0 ? 1 : pages;
  }
  work_cv_.notify_all();
}

RunReadResult AsyncDisk::ReadRun(PageId first, size_t n, bool ascending,
                                 std::byte* const* outs) {
  RunReadResult result;
  if (n == 0) {
    result.status = Status::InvalidArgument("empty run");
    return result;
  }
  if (n - 1 > kInvalidPageId - first) {
    result.status = Status::InvalidArgument("run overflows the page space");
    return result;
  }
  std::vector<std::shared_future<Status>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(SubmitRead(first + i, outs[i]));
  }
  // Wait for every page (each `outs` buffer must stay valid until its read
  // completes), and report the good prefix in transfer order, matching the
  // base contract.
  for (size_t i = 0; i < n; ++i) {
    const Status& status = futures[ascending ? i : n - 1 - i].get();
    if (!result.status.ok()) continue;  // past the good prefix
    if (status.ok()) {
      result.pages_ok++;
    } else {
      result.status = status;
    }
  }
  return result;
}

void AsyncDisk::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return pending_.empty() && in_flight_ == 0; });
}

AsyncDiskStats AsyncDisk::async_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AsyncDisk::IoLoop(uint32_t spindle) {
  ElevatorIoQueue& queue = queues_[spindle];
  // The query of the read just served, and when anticipating it ends.
  std::shared_ptr<obs::QueryContext> last_reader;
  std::chrono::steady_clock::time_point anticipate_until;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue.empty(); });
    if (queue.empty()) {
      return;  // stop_, and nothing left on this spindle
    }
    if (last_reader != nullptr) {
      auto resumed = [&] {
        return stop_ ||
               last_reader->end_ns.load(std::memory_order_relaxed) != 0 ||
               std::any_of(pending_.begin(), pending_.end(),
                           [&](const auto& entry) {
                             return entry.second.ctx == last_reader;
                           });
      };
      if (!resumed() && std::chrono::steady_clock::now() < anticipate_until) {
        stats_.anticipations++;
        if (!work_cv_.wait_until(lock, anticipate_until, resumed)) {
          stats_.anticipation_timeouts++;
        }
      }
      last_reader = nullptr;
    }
    if (pending_.size() >= 2) {
      stats_.merged_picks++;
    }
    // SCAN runs against this spindle's own arm, not the global head: the
    // arms move independently, and each queue only holds its own spindle's
    // pages.  On one spindle this is the historical head().
    const PageId head = backing_->spindle_head_page(spindle);
    std::optional<IoRun> run = queue.PopRun(head, max_run_pages_);
    if (run->is_read) {
      last_reader = pending_.at(run->tickets.front().second).ctx;
    }
    ServeRun(std::move(*run), lock);
    if (last_reader != nullptr) {
      anticipate_until = std::chrono::steady_clock::now() + kAnticipation;
    }
    if (pending_.empty() && in_flight_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

void AsyncDisk::ServeRun(IoRun run, std::unique_lock<std::mutex>& lock) {
  // Pull every ticket's Request out of the pending map.  `executing` stays
  // in transfer order (grouped by page, FIFO within a page).
  std::vector<std::pair<PageId, Request>> executing;
  executing.reserve(run.tickets.size());
  for (const auto& [page, ticket] : run.tickets) {
    executing.emplace_back(page, std::move(pending_.at(ticket)));
    pending_.erase(ticket);
  }
  in_flight_ += executing.size();
  lock.unlock();

  // The transfer is charged to the query of the entry page's oldest waiter
  // (transfer order puts it first); that is the query whose SCAN position
  // the pick was made for.
  if (!run.is_read) {
    // Writes are never coalesced: exactly one ticket.
    Request& request = executing.front().second;
    Status status;
    {
      obs::ScopedQueryContext scope(request.ctx);
      status = backing_->WritePage(request.page, request.in);
    }
    request.promise.set_value(status);
  } else {
    // One vectored backing transfer; the first waiter of each page is the
    // scatter target, later waiters copy from it on success.
    std::vector<std::byte*> outs(run.pages, nullptr);
    for (auto& [page, request] : executing) {
      const size_t offset = static_cast<size_t>(page - run.first);
      if (outs[offset] == nullptr) {
        outs[offset] = request.out;
      }
    }
    obs::QueryContext* entry_ctx = executing.front().second.ctx.get();
    RunReadResult result;
    {
      obs::ScopedQueryContext scope(executing.front().second.ctx);
      result =
          backing_->ReadRun(run.first, run.pages, run.ascending, outs.data());
    }

    std::vector<Request> requeue;
    for (auto& [page, request] : executing) {
      const size_t offset = static_cast<size_t>(page - run.first);
      // The page's position in transfer order: the good prefix comes
      // first, then the failed page (if any), then the untouched tail.
      const size_t position =
          run.ascending ? offset : run.pages - 1 - offset;
      if (position < result.pages_ok) {
        if (request.out != outs[offset]) {
          std::memcpy(request.out, outs[offset], backing_->page_size());
        }
        // A page delivered to a different query than the one charged for
        // the transfer: informational only, outside the conservation sum.
        if (request.ctx != nullptr && request.ctx.get() != entry_ctx) {
          request.ctx->io.piggyback_pages.fetch_add(
              1, std::memory_order_relaxed);
        }
        request.promise.set_value(Status::OK());
      } else if (position == result.pages_ok && !result.status.ok()) {
        // The faulty page's waiters see the per-page error; the buffer
        // layer's retry policy decides what happens next.
        request.promise.set_value(result.status);
      } else {
        // Never reached by the device — goes back in the queue and will
        // be served by a later (likely coalesced) pick.
        requeue.push_back(std::move(request));
      }
    }
    if (result.pages_ok >= 2) {
      std::lock_guard<std::mutex> stats_lock(mu_);
      stats_.coalesced_runs++;
    }
    if (!requeue.empty()) {
      std::lock_guard<std::mutex> requeue_lock(mu_);
      for (Request& request : requeue) {
        uint64_t ticket = next_ticket_++;
        queues_[backing_->SpindleOf(request.page)].Push(request.page, ticket,
                                                        request.is_read);
        pending_.emplace(ticket, std::move(request));
      }
    }
  }

  lock.lock();
  in_flight_ -= executing.size() /* completed or requeued */;
}

}  // namespace cobra
