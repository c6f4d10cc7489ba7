// AsyncDisk: a background-I/O front-end over a SimulatedDisk.
//
// The paper's elevator scheduler wins by giving one query many unresolved
// references to order by disk position.  AsyncDisk extends that idea across
// *queries*: every client (buffer-pool shard, worker thread) submits page
// requests into a queue, and an I/O thread serves them in elevator (SCAN)
// order over the shared head position.  Concurrent assembly windows
// therefore merge into one sweep of the device — the cross-client analogue
// of §6.3's within-window reordering — while CPU-side assembly overlaps the
// simulated seeks.
//
// On a multi-spindle backing array there is one ElevatorIoQueue and one I/O
// thread *per spindle*: Submit routes each request to its page's spindle,
// every queue runs SCAN against its own spindle's arm
// (spindle_head_page()), and transfers on different spindles are in flight
// concurrently.  Because a queue only ever holds its own spindle's pages,
// run coalescing structurally cannot cross a stripe seam — the adjacent
// page on another spindle lives in another queue.  With a 1-spindle backing
// this degenerates to exactly the historical single queue + single thread.
//
// Composition: AsyncDisk decorates any SimulatedDisk, including a
// FaultInjectingDisk, so the fault-injection and checksum layers underneath
// are untouched; the I/O thread simply observes their failures and forwards
// them through the completion future.
//
// Ordering guarantees:
//   * a blocking ReadRun/ReadPage/WritePage returns only after the backing
//     disk executed the request — a single client therefore sees exactly
//     the same order (and the same seek accounting) as calling the backing
//     disk directly;
//   * across clients, requests pending at the same time are served in SCAN
//     order (nearest page in the current sweep direction; FIFO among equal
//     pages).  No global FIFO is promised;
//   * a free I/O thread picks among the requests pending at once; it never
//     waits for the queue to fill.  The one wait is anticipation: for up to
//     150 µs after a read for a query (obs::QueryContext) completes, while
//     that query has nothing pending and has not ended (end_ns unset), the
//     thread holds the next pick for it.  A query walking its assembly
//     window reads again within microseconds, usually near the arm; without
//     the wait the arm would leave for another client and come back on
//     nearly every read.  Reads with no query context, and writes, are not
//     anticipated.  It only delays picks, so a lone client's order stands.
//
// Attribution: each request captures the submitting thread's
// obs::QueryContext; the I/O thread re-establishes the *entry* request's
// context around the backing call, so the backing disk charges every
// transfer (and its seeks) to the query that entered it — direct callers
// and queued callers account identically.  Requests from other queries
// served by the same coalesced run record `piggyback_pages` only.
//
// Control-plane calls (stats, traces, ParkHead) belong to the *backing*
// disk and require quiescence: call Drain() first.

#ifndef COBRA_STORAGE_ASYNC_DISK_H_
#define COBRA_STORAGE_ASYNC_DISK_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/query_context.h"
#include "storage/disk.h"

namespace cobra {

// One coalesced pick from the queue: every request on up to `pages`
// consecutive pages, served as a single transfer in `ascending` direction.
// `tickets` lists (page, ticket) pairs in transfer order, FIFO within a
// page.  Writes never coalesce (a write run is always one ticket).
struct IoRun {
  PageId first = kInvalidPageId;  // lowest page of the run
  size_t pages = 1;               // distinct consecutive pages
  bool ascending = true;
  bool is_read = true;
  std::vector<std::pair<PageId, uint64_t>> tickets;
};

// SCAN-ordered request queue keyed by page: continue in the current sweep
// direction from the head, reverse at the end; FIFO among requests for the
// same page, on either sweep direction.  Not thread-safe by itself —
// AsyncDisk guards it with its queue mutex.  Exposed for the scheduler
// property tests.
class ElevatorIoQueue {
 public:
  void Push(PageId page, uint64_t ticket, bool is_read = true) {
    by_page_.emplace(page, Waiter{ticket, is_read});
  }

  // Picks the SCAN-next request given the head position, then coalesces
  // reads waiting on consecutive pages further along the current sweep
  // direction, bounded by `max_run_pages` distinct pages.  At one page the
  // pick is the entry page's oldest waiter alone.  A run never spans a
  // sweep reversal (coalescing only continues the direction the first pick
  // established) and never reorders a page's FIFO: the entry page
  // contributes its oldest waiters up to (not including) its first queued
  // write, and an extension page joins only if every waiter on it is a
  // read.  A write is therefore always served alone.  nullopt when empty.
  std::optional<IoRun> PopRun(PageId head, size_t max_run_pages);

  bool empty() const { return by_page_.empty(); }
  size_t size() const { return by_page_.size(); }
  bool sweeping_up() const { return sweeping_up_; }

 private:
  struct Waiter {
    uint64_t ticket = 0;
    bool is_read = true;
  };

  std::multimap<PageId, Waiter> by_page_;
  bool sweeping_up_ = true;
};

struct AsyncDiskStats {
  uint64_t reads_submitted = 0;
  uint64_t writes_submitted = 0;
  // Largest number of simultaneously pending requests (merge opportunity).
  size_t max_queue_depth = 0;
  // Times the I/O thread served a request picked among >= 2 pending ones
  // (an actual cross-client elevator decision).
  uint64_t merged_picks = 0;
  // Times the I/O thread served >= 2 consecutive pages as one vectored
  // transfer (requires set_max_run_pages(>= 2)).
  uint64_t coalesced_runs = 0;
  // Anticipation waits, and those that ran out without the query reading.
  uint64_t anticipations = 0;
  uint64_t anticipation_timeouts = 0;
};

class AsyncDisk : public SimulatedDisk {
 public:
  // Does not take ownership of `backing`, which must outlive this object.
  // The I/O thread starts immediately.
  explicit AsyncDisk(SimulatedDisk* backing);
  ~AsyncDisk() override;

  // Blocking write: submits and waits.  A lone client observes identical
  // behavior (order, stats, errors) to the backing disk.  Blocking reads
  // (ReadPage is a run of one) go through ReadRun below.
  Status WritePage(PageId id, const std::byte* data) override;

  // Queued read with futures-based completion; the buffer pool's prefetch
  // path uses it to overlap assembly CPU with seeks.
  std::shared_future<Status> SubmitRead(PageId id, std::byte* out) override;
  std::shared_future<Status> SubmitWrite(PageId id, const std::byte* data);

  // Vectored read through the queue: submits one request per page and waits
  // for all of them.  With set_max_run_pages(>= n) and no competing traffic
  // the I/O thread serves them as one backing ReadRun; under competition
  // they may be split or merged with other clients' adjacent requests.  The
  // result reports the good prefix in transfer order, like the base class.
  RunReadResult ReadRun(PageId first, size_t n, bool ascending,
                        std::byte* const* outs) override;

  // Forwarded to the backing disk (its head is the one that moves).
  bool Exists(PageId id) const override { return backing_->Exists(id); }
  PageId head() const override { return backing_->head(); }
  void AddSeekPenalty(uint64_t pages, bool is_read) override {
    backing_->AddSeekPenalty(pages, is_read);
  }
  void AddSeekPenaltyAt(PageId near_page, uint64_t pages,
                        bool is_read) override {
    backing_->AddSeekPenaltyAt(near_page, pages, is_read);
  }
  uint32_t num_spindles() const override { return backing_->num_spindles(); }
  uint32_t SpindleOf(PageId id) const override {
    return backing_->SpindleOf(id);
  }
  PageId spindle_head_page(uint32_t s) const override {
    return backing_->spindle_head_page(s);
  }
  DiskStats spindle_stats(uint32_t s) const override {
    return backing_->spindle_stats(s);
  }

  // Upper bound on how many consecutive pages the I/O thread may coalesce
  // into one backing transfer.  At 1 (the default) every read is served as
  // its own one-page ReadRun.
  void set_max_run_pages(size_t pages);

  // Blocks until every submitted request has completed.
  void Drain();

  SimulatedDisk* backing() { return backing_; }
  AsyncDiskStats async_stats() const;

 private:
  struct Request {
    PageId page = kInvalidPageId;
    bool is_read = true;
    std::byte* out = nullptr;
    const std::byte* in = nullptr;
    std::promise<Status> promise;
    // The submitter's query context, captured at Submit and re-established
    // on the I/O thread around the backing call, so the backing disk
    // attributes the transfer to the query that caused it.  shared_ptr:
    // a fire-and-forget prefetch may outlive its query.
    std::shared_ptr<obs::QueryContext> ctx;
  };

  std::shared_future<Status> Submit(Request request);
  // One service loop per spindle; each serves only queues_[spindle].
  void IoLoop(uint32_t spindle);
  // Serves one coalesced pick.  Entered with `lock` held; returns with it
  // held.  The backing transfer itself runs unlocked.
  void ServeRun(IoRun run, std::unique_lock<std::mutex>& lock);

  SimulatedDisk* backing_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signals the I/O threads
  std::condition_variable drain_cv_;  // signals Drain() waiters
  // One SCAN queue per backing spindle; Submit routes by SpindleOf(page),
  // so a queue (and hence a coalesced run) never holds a foreign spindle's
  // page.  All queues share mu_/pending_ — the split buys independent SCAN
  // order and concurrent in-flight transfers, not lock-free submission.
  std::vector<ElevatorIoQueue> queues_;
  std::unordered_map<uint64_t, Request> pending_;
  uint64_t next_ticket_ = 0;
  size_t max_run_pages_ = 1;
  size_t in_flight_ = 0;
  bool stop_ = false;
  AsyncDiskStats stats_;

  std::vector<std::thread> io_threads_;
};

}  // namespace cobra

#endif  // COBRA_STORAGE_ASYNC_DISK_H_
