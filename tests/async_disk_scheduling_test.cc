// AsyncDisk's pick rule, checked by ordering: a free I/O thread serves the
// SCAN-next pick among exactly the requests pending at pick time, and the
// only wait is anticipation — after a read for a query, while that query has
// nothing pending, the thread waits briefly for its next read.  A gated
// backing disk holds the first transfer open while other threads queue
// reads, so the pending set at each pick is known exactly.  Part of the
// `concurrency` binary, so CI also runs it under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "obs/query_context.h"
#include "storage/async_disk.h"
#include "storage/disk.h"

namespace cobra {
namespace {

// A SimulatedDisk whose first transfer blocks until Release().
class GatedDisk : public SimulatedDisk {
 public:
  void WaitUntilGated() { gated_.wait(); }
  void Release() { release_.count_down(); }

  RunReadResult ReadRun(PageId first, size_t n, bool ascending,
                        std::byte* const* outs) override {
    BeforeTransfer();
    return SimulatedDisk::ReadRun(first, n, ascending, outs);
  }

 private:
  // Runs on the I/O thread with AsyncDisk's queue lock released.
  void BeforeTransfer() {
    if (!first_done_) {
      first_done_ = true;
      gated_.count_down();
      release_.wait();
    }
  }

  bool first_done_ = false;  // I/O-thread only
  std::latch gated_{1};
  std::latch release_{1};
};

constexpr size_t kPages = 256;
constexpr PageId kGatePage = 128;
constexpr size_t kSubmitters = 4;

void StampPages(SimulatedDisk* disk) {
  std::vector<std::byte> page(disk->page_size());
  for (PageId p = 0; p < kPages; ++p) {
    page[0] = std::byte{static_cast<uint8_t>(p)};
    ASSERT_TRUE(disk->WritePage(p, page.data()).ok());
  }
  disk->ResetStats();
  disk->ParkHead(0);
  disk->EnableReadTrace(true);
}

void WaitForSubmitted(AsyncDisk* async, uint64_t reads) {
  while (async->async_stats().reads_submitted < reads) {
    std::this_thread::yield();
  }
}

// Holds the first transfer (a lone read of kGatePage) open, runs `submit`
// on kSubmitters threads while it is blocked, waits until `expected` reads
// in total have been accepted, then releases the gate and joins.
void RunGated(GatedDisk* backing, AsyncDisk* async, uint64_t expected,
              const std::function<void(size_t)>& submit) {
  std::vector<std::byte> gate_buffer(backing->page_size());
  std::shared_future<Status> gate =
      async->SubmitRead(kGatePage, gate_buffer.data());
  backing->WaitUntilGated();

  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kSubmitters; ++tid) {
    threads.emplace_back(submit, tid);
  }
  // Ordering, not timing: the gate opens only once every request is queued.
  WaitForSubmitted(async, expected);
  backing->Release();
  for (std::thread& t : threads) {
    t.join();
  }
  async->Drain();
  EXPECT_TRUE(gate.get().ok());
  EXPECT_EQ(gate_buffer[0], std::byte{static_cast<uint8_t>(kGatePage)});
}

TEST(AsyncDiskScheduling, ServesScanOrderOfEveryRequestPendingAtPickTime) {
  GatedDisk backing;
  StampPages(&backing);
  AsyncDisk async(&backing);

  // Scattered distinct pages on both sides of the gate page.
  std::vector<PageId> scattered;
  for (PageId i = 0; scattered.size() < 32; ++i) {
    const PageId page = (i * 97 + 13) % kPages;
    if (page != kGatePage) scattered.push_back(page);
  }
  std::atomic<uint64_t> mismatches{0};
  RunGated(&backing, &async, scattered.size() + 1, [&](size_t tid) {
    std::vector<std::vector<std::byte>> buffers;
    std::vector<std::pair<PageId, std::shared_future<Status>>> futures;
    for (size_t i = tid; i < scattered.size(); i += kSubmitters) {
      buffers.emplace_back(backing.page_size());
      futures.emplace_back(scattered[i],
                           async.SubmitRead(scattered[i], buffers.back().data()));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const auto& [page, future] = futures[i];
      if (!future.get().ok() ||
          buffers[i][0] != std::byte{static_cast<uint8_t>(page)}) {
        ++mismatches;
      }
    }
  });

  // The gate read left the head at kGatePage sweeping up: SCAN serves every
  // page above it ascending, then reverses for the rest descending.
  std::vector<PageId> expected = {kGatePage};
  std::vector<PageId> up, down;
  for (PageId page : scattered) {
    (page > kGatePage ? up : down).push_back(page);
  }
  std::sort(up.begin(), up.end());
  std::sort(down.rbegin(), down.rend());
  expected.insert(expected.end(), up.begin(), up.end());
  expected.insert(expected.end(), down.begin(), down.end());
  EXPECT_EQ(backing.read_trace(), expected);

  // Every request served exactly once, each with its own data.
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(backing.stats().reads, scattered.size() + 1);
  AsyncDiskStats stats = async.async_stats();
  EXPECT_EQ(stats.reads_submitted, scattered.size() + 1);
  EXPECT_EQ(stats.max_queue_depth, scattered.size());
  // Every pick after the gate chose among >= 2 requests except the last.
  EXPECT_EQ(stats.merged_picks, scattered.size() - 1);
  // These reads carry no query context, so the thread never anticipated:
  // it drained the backlog without a single wait.
  EXPECT_EQ(stats.anticipations, 0u);
}

TEST(AsyncDiskScheduling, CoalescesOnlyAmongRequestsPendingAtPickTime) {
  GatedDisk backing;
  StampPages(&backing);
  AsyncDisk async(&backing);
  async.set_max_run_pages(8);

  // One page per submitter on a run just above the gate, plus two
  // neighbours below it and one far page: three picks after the gate.
  const std::vector<std::vector<PageId>> pages = {
      {kGatePage + 1, 40}, {kGatePage + 2, 41}, {kGatePage + 3, 200},
      {kGatePage + 4}};
  std::atomic<uint64_t> mismatches{0};
  RunGated(&backing, &async, 8, [&](size_t tid) {
    std::vector<std::vector<std::byte>> buffers(
        pages[tid].size(), std::vector<std::byte>(backing.page_size()));
    std::vector<std::shared_future<Status>> futures;
    for (size_t i = 0; i < pages[tid].size(); ++i) {
      futures.push_back(async.SubmitRead(pages[tid][i], buffers[i].data()));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      if (!futures[i].get().ok() ||
          buffers[i][0] != std::byte{static_cast<uint8_t>(pages[tid][i])}) {
        ++mismatches;
      }
    }
  });

  const std::vector<PageId> expected = {kGatePage,     kGatePage + 1,
                                        kGatePage + 2, kGatePage + 3,
                                        kGatePage + 4, 200,
                                        41,            40};
  EXPECT_EQ(backing.read_trace(), expected);
  EXPECT_EQ(mismatches.load(), 0u);
  // Gate, the four-page run, 200 alone, then 41..40 descending.
  EXPECT_EQ(backing.stats().reads, 4u);
  EXPECT_EQ(backing.stats().pages_read, 8u);
  AsyncDiskStats stats = async.async_stats();
  EXPECT_EQ(stats.coalesced_runs, 2u);
  EXPECT_EQ(stats.merged_picks, 3u);
  EXPECT_EQ(stats.anticipations, 0u);
}

// Submits a read of `page` on behalf of `query` without waiting for it.
std::shared_future<Status> SubmitAs(AsyncDisk* async,
                                    std::shared_ptr<obs::QueryContext> query,
                                    PageId page, std::byte* out) {
  obs::ScopedQueryContext scope(std::move(query));
  return async->SubmitRead(page, out);
}

// FIFO among equal pages on a down-sweep.  The gate read carries no query
// context.  Query A, then query B, queue a read of page 64, below the arm;
// the sweep reverses at the gate page, so page 64 is a down-sweep pick.
// A's read is older, so A's transfer moves the arm 128 -> 64 and B's costs
// nothing.
TEST(AsyncDiskScheduling, SamePageWaitersLeaveOldestFirstOnADownSweep) {
  GatedDisk backing;
  StampPages(&backing);
  AsyncDisk async(&backing);
  auto a = std::make_shared<obs::QueryContext>(1, "a");
  auto b = std::make_shared<obs::QueryContext>(2, "b");

  std::vector<std::vector<std::byte>> buffers(
      3, std::vector<std::byte>(backing.page_size()));
  auto gate = async.SubmitRead(kGatePage, buffers[0].data());
  backing.WaitUntilGated();
  auto a_read = SubmitAs(&async, a, 64, buffers[1].data());
  WaitForSubmitted(&async, 2);
  auto b_read = SubmitAs(&async, b, 64, buffers[2].data());
  WaitForSubmitted(&async, 3);
  backing.Release();
  EXPECT_TRUE(gate.get().ok());
  EXPECT_TRUE(a_read.get().ok());
  EXPECT_TRUE(b_read.get().ok());
  async.Drain();

  EXPECT_EQ(backing.read_trace(), (std::vector<PageId>{kGatePage, 64, 64}));
  EXPECT_EQ(a->io.read_seek_pages.load(), kGatePage - 64);
  EXPECT_EQ(b->io.read_seek_pages.load(), 0u);
  EXPECT_EQ(buffers[1][0], std::byte{64});
  EXPECT_EQ(buffers[2][0], std::byte{64});
}

// Query A reads the gate page and has one more read (below the arm)
// already queued; query B has one read above the arm.  After the gate A
// has a read pending, so the thread picks at once (B's page, next up the
// sweep).  After B's read B has nothing pending and never reads again, so
// the thread waits the window out once, then serves A's read.
TEST(AsyncDiskScheduling, AnticipatesOnlyAQueryWithNothingPending) {
  GatedDisk backing;
  StampPages(&backing);
  AsyncDisk async(&backing);
  auto a = std::make_shared<obs::QueryContext>(1, "a");
  auto b = std::make_shared<obs::QueryContext>(2, "b");

  std::vector<std::vector<std::byte>> buffers(
      3, std::vector<std::byte>(backing.page_size()));
  auto gate = SubmitAs(&async, a, kGatePage, buffers[0].data());
  backing.WaitUntilGated();
  auto a_next = SubmitAs(&async, a, 40, buffers[1].data());
  auto b_read = SubmitAs(&async, b, 140, buffers[2].data());
  WaitForSubmitted(&async, 3);
  backing.Release();
  EXPECT_TRUE(gate.get().ok());
  EXPECT_TRUE(a_next.get().ok());
  EXPECT_TRUE(b_read.get().ok());
  async.Drain();

  EXPECT_EQ(backing.read_trace(), (std::vector<PageId>{kGatePage, 140, 40}));
  AsyncDiskStats stats = async.async_stats();
  EXPECT_EQ(stats.anticipations, 1u);
  EXPECT_EQ(stats.anticipation_timeouts, 1u);
  EXPECT_EQ(stats.merged_picks, 1u);
}

// Query A reads the gate page, then the page after it, one blocking read
// at a time; query B's far read is pending the whole while.  A
// work-conserving pick would serve B's read as soon as the gate read
// completes, since A's next read is not queued yet.  Anticipation holds the
// arm for A instead.  A trial is lost only when A's thread needs longer
// than the window to read again, so one win in five trials is required.
TEST(AsyncDiskScheduling, AnticipationLetsTheQueryJustServedReadNext) {
  bool won = false;
  for (int trial = 0; trial < 5 && !won; ++trial) {
    GatedDisk backing;
    StampPages(&backing);
    AsyncDisk async(&backing);
    auto a = std::make_shared<obs::QueryContext>(1, "a");
    auto b = std::make_shared<obs::QueryContext>(2, "b");

    std::vector<std::vector<std::byte>> buffers(
        3, std::vector<std::byte>(backing.page_size()));
    std::thread reader([&] {
      obs::ScopedQueryContext scope(a);
      EXPECT_TRUE(async.ReadPage(kGatePage, buffers[0].data()).ok());
      EXPECT_TRUE(async.ReadPage(kGatePage + 1, buffers[1].data()).ok());
    });
    backing.WaitUntilGated();
    auto far = SubmitAs(&async, b, 40, buffers[2].data());
    WaitForSubmitted(&async, 2);
    backing.Release();
    reader.join();
    EXPECT_TRUE(far.get().ok());
    async.Drain();

    const std::vector<PageId>& trace = backing.read_trace();
    ASSERT_EQ(trace.size(), 3u);
    for (size_t i = 0; i < buffers.size(); ++i) {
      EXPECT_EQ(buffers[i][0],
                std::byte{static_cast<uint8_t>(i == 2 ? 40 : kGatePage + i)});
    }
    won = trace == std::vector<PageId>{kGatePage, kGatePage + 1, 40};
  }
  EXPECT_TRUE(won);
}

}  // namespace
}  // namespace cobra
