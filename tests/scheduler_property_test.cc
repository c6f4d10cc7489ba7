// Property-based coverage of the elevator orderings: the per-query
// ElevatorScheduler (assembly/scheduler.h), its PeekPages read-ahead view,
// and the cross-client ElevatorIoQueue (storage/async_disk.h).  All inputs
// come from a fixed-seed generator, so failures replay exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "assembly/scheduler.h"
#include "storage/async_disk.h"

namespace cobra {
namespace {

// One pick as AsyncDisk makes it at max_run_pages = 1: a single ticket.
std::optional<uint64_t> PopOne(ElevatorIoQueue* queue, PageId head) {
  std::optional<IoRun> run = queue->PopRun(head, 1);
  if (!run.has_value()) return std::nullopt;
  EXPECT_EQ(run->tickets.size(), 1u);
  return run->tickets.front().second;
}

// Serves every queued request, returning the visit order and accumulating
// |page - head| travel — the simulated disk's cost model, with the head
// following each served request as it does on the real device.
std::vector<PageId> DrainQueue(ElevatorIoQueue* queue,
                               const std::map<uint64_t, PageId>& pages,
                               PageId head, uint64_t* travel) {
  std::vector<PageId> order;
  while (!queue->empty()) {
    auto ticket = PopOne(queue, head);
    if (!ticket.has_value()) {
      ADD_FAILURE() << "non-empty queue returned nothing";
      break;
    }
    PageId page = pages.at(*ticket);
    *travel += page >= head ? page - head : head - page;
    head = page;
    order.push_back(page);
  }
  return order;
}

std::vector<PageId> RandomPages(std::mt19937_64* rng, size_t max_count,
                                PageId max_page) {
  std::uniform_int_distribution<size_t> count_dist(1, max_count);
  std::uniform_int_distribution<PageId> page_dist(0, max_page);
  std::vector<PageId> pages(count_dist(*rng));
  for (PageId& page : pages) page = page_dist(*rng);
  return pages;
}

TEST(ElevatorIoQueueProperty, EveryRequestServedExactlyOnce) {
  std::mt19937_64 rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 64, 500);
    ElevatorIoQueue queue;
    std::map<uint64_t, PageId> by_ticket;
    for (uint64_t ticket = 0; ticket < pages.size(); ++ticket) {
      queue.Push(pages[ticket], ticket);
      by_ticket[ticket] = pages[ticket];
    }
    PageId head = std::uniform_int_distribution<PageId>(0, 500)(rng);
    std::set<uint64_t> served;
    while (!queue.empty()) {
      auto ticket = PopOne(&queue, head);
      ASSERT_TRUE(ticket.has_value());
      EXPECT_TRUE(served.insert(*ticket).second)
          << "ticket " << *ticket << " served twice (trial " << trial << ")";
      head = by_ticket.at(*ticket);
    }
    EXPECT_EQ(served.size(), pages.size()) << "trial " << trial;
    EXPECT_FALSE(PopOne(&queue, head).has_value());
  }
}

TEST(ElevatorIoQueueProperty, ExactlyOnceUnderInterleavedArrivals) {
  // Requests arrive while earlier ones are being served — the actual
  // AsyncDisk regime.  Every ticket must still be served exactly once.
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    ElevatorIoQueue queue;
    std::map<uint64_t, PageId> by_ticket;
    std::set<uint64_t> served;
    uint64_t next_ticket = 0;
    PageId head = 0;
    std::uniform_int_distribution<PageId> page_dist(0, 300);
    for (int step = 0; step < 150; ++step) {
      if (queue.empty() || rng() % 2 == 0) {
        PageId page = page_dist(rng);
        by_ticket[next_ticket] = page;
        queue.Push(page, next_ticket++);
      } else {
        auto ticket = PopOne(&queue, head);
        ASSERT_TRUE(ticket.has_value());
        EXPECT_TRUE(served.insert(*ticket).second);
        head = by_ticket.at(*ticket);
      }
    }
    while (!queue.empty()) {
      auto ticket = PopOne(&queue, head);
      ASSERT_TRUE(ticket.has_value());
      EXPECT_TRUE(served.insert(*ticket).second);
      head = by_ticket.at(*ticket);
    }
    EXPECT_EQ(served.size(), next_ticket) << "trial " << trial;
  }
}

TEST(ElevatorIoQueueProperty, FifoAmongRequestsForTheSamePage) {
  ElevatorIoQueue queue;
  for (uint64_t ticket = 0; ticket < 5; ++ticket) {
    queue.Push(/*page=*/7, ticket);
  }
  for (uint64_t expected = 0; expected < 5; ++expected) {
    auto ticket = PopOne(&queue, /*head=*/7);
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(*ticket, expected);
  }

  // Down-sweep: after page 10 nothing lies above the head, so the sweep
  // reverses onto page 5, whose waiters still leave oldest first.
  queue.Push(/*page=*/10, /*ticket=*/0);
  for (uint64_t ticket = 1; ticket < 4; ++ticket) {
    queue.Push(/*page=*/5, ticket);
  }
  PageId head = 10;
  for (uint64_t expected = 0; expected < 4; ++expected) {
    auto ticket = PopOne(&queue, head);
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(*ticket, expected);
    head = expected == 0 ? 10 : 5;
  }
  EXPECT_FALSE(queue.sweeping_up());
}

TEST(ElevatorIoQueueProperty, MergedColdStartNeverCostsMoreThanPerClient) {
  // The bench's comparison (bench/multi_client.cc): K clients' request sets
  // served by one merged SCAN from a parked head vs. each client's own SCAN
  // from its own cold start (ColdRestart parks the head at page 0).  From
  // the disk's lowest position a SCAN serves everything in one ascending
  // sweep, so the merged pass travels max(union) while the separate passes
  // travel sum(max(client_i)) — merging can only help.  (From a mid-disk
  // head the online SCAN holds no such guarantee: a tiny client below the
  // head can be forced behind another client's long up-sweep.)
  std::mt19937_64 rng(987654321);
  for (int trial = 0; trial < 200; ++trial) {
    size_t num_clients = std::uniform_int_distribution<size_t>(2, 6)(rng);
    uint64_t merged_travel = 0;
    uint64_t separate_travel = 0;
    ElevatorIoQueue merged;
    std::map<uint64_t, PageId> merged_pages;
    uint64_t next_ticket = 0;
    size_t total_requests = 0;
    for (size_t c = 0; c < num_clients; ++c) {
      std::vector<PageId> pages = RandomPages(&rng, 40, 2000);
      total_requests += pages.size();
      ElevatorIoQueue own;
      std::map<uint64_t, PageId> own_pages;
      for (uint64_t t = 0; t < pages.size(); ++t) {
        own.Push(pages[t], t);
        own_pages[t] = pages[t];
        merged.Push(pages[t], next_ticket);
        merged_pages[next_ticket++] = pages[t];
      }
      DrainQueue(&own, own_pages, /*head=*/0, &separate_travel);
    }
    std::vector<PageId> order =
        DrainQueue(&merged, merged_pages, /*head=*/0, &merged_travel);
    EXPECT_LE(merged_travel, separate_travel) << "trial " << trial;
    EXPECT_EQ(order.size(), total_requests);
    // From the parked head the merged pass is one ascending sweep.
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
        << "trial " << trial;
  }
}

TEST(ElevatorIoQueueProperty, TravelBoundedByTwoSweeps) {
  // SCAN reverses at most twice for a static request set: total travel
  // never exceeds twice the span of the visited region (head included).
  std::mt19937_64 rng(1357);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 50, 4000);
    PageId head = std::uniform_int_distribution<PageId>(0, 4000)(rng);
    ElevatorIoQueue queue;
    std::map<uint64_t, PageId> by_ticket;
    for (uint64_t t = 0; t < pages.size(); ++t) {
      queue.Push(pages[t], t);
      by_ticket[t] = pages[t];
    }
    uint64_t travel = 0;
    DrainQueue(&queue, by_ticket, head, &travel);
    PageId lo = std::min(head, *std::min_element(pages.begin(), pages.end()));
    PageId hi = std::max(head, *std::max_element(pages.begin(), pages.end()));
    EXPECT_LE(travel, 2 * (hi - lo)) << "trial " << trial;
  }
}

// ------------------------------------------------- vectored PopRun (queue)

TEST(ElevatorIoQueueRunProperty, EveryTicketServedExactlyOnceAcrossRuns) {
  std::mt19937_64 rng(5550123);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 64, 300);
    size_t max_run =
        std::uniform_int_distribution<size_t>(1, 16)(rng);
    ElevatorIoQueue queue;
    std::map<uint64_t, PageId> by_ticket;
    for (uint64_t ticket = 0; ticket < pages.size(); ++ticket) {
      queue.Push(pages[ticket], ticket);
      by_ticket[ticket] = pages[ticket];
    }
    PageId head = std::uniform_int_distribution<PageId>(0, 300)(rng);
    std::set<uint64_t> served;
    while (!queue.empty()) {
      auto run = queue.PopRun(head, max_run);
      ASSERT_TRUE(run.has_value());
      ASSERT_FALSE(run->tickets.empty());
      for (const auto& [page, ticket] : run->tickets) {
        EXPECT_EQ(by_ticket.at(ticket), page);
        EXPECT_TRUE(served.insert(ticket).second)
            << "ticket " << ticket << " served twice (trial " << trial << ")";
      }
      head = run->tickets.back().first;
    }
    EXPECT_EQ(served.size(), pages.size()) << "trial " << trial;
  }
}

TEST(ElevatorIoQueueRunProperty, RunsAreAdjacentDirectedAndBounded) {
  // Device-level runs are strictly adjacent (no gap bridging below the
  // buffer pool: a filler page would be transferred and thrown away), move
  // only with the sweep direction, and never exceed max_run_pages — so a
  // run can never span a sweep reversal.
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 64, 120);
    size_t max_run = std::uniform_int_distribution<size_t>(1, 8)(rng);
    ElevatorIoQueue queue;
    for (uint64_t ticket = 0; ticket < pages.size(); ++ticket) {
      queue.Push(pages[ticket], ticket);
    }
    PageId head = std::uniform_int_distribution<PageId>(0, 120)(rng);
    while (!queue.empty()) {
      auto run = queue.PopRun(head, max_run);
      ASSERT_TRUE(run.has_value());
      EXPECT_GE(run->pages, 1u);
      EXPECT_LE(run->pages, max_run) << "trial " << trial;
      // Transfer order is consecutive in the run direction, starting at the
      // sweep's entry page.
      PageId prev = run->ascending ? run->first
                                   : run->first + (run->pages - 1);
      bool first_ticket = true;
      for (const auto& [page, ticket] : run->tickets) {
        (void)ticket;
        if (first_ticket) {
          EXPECT_EQ(page, prev) << "trial " << trial;
          first_ticket = false;
        } else {
          EXPECT_TRUE(page == prev ||
                      page == (run->ascending ? PageId(prev + 1)
                                              : PageId(prev - 1)))
              << "trial " << trial;
        }
        prev = page;
      }
      head = prev;
    }
  }
}

TEST(ElevatorIoQueueRunProperty, WritesServeAloneAndBarrierEntryPageReads) {
  ElevatorIoQueue queue;
  queue.Push(/*page=*/7, /*ticket=*/0, /*is_read=*/true);
  queue.Push(/*page=*/7, /*ticket=*/1, /*is_read=*/false);  // write barrier
  queue.Push(/*page=*/7, /*ticket=*/2, /*is_read=*/true);
  queue.Push(/*page=*/8, /*ticket=*/3, /*is_read=*/true);

  // First run: the entry page's read prefix stops at the queued write, then
  // the run extends into the all-read neighbor page.
  auto run = queue.PopRun(/*head=*/7, /*max_run_pages=*/8);
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(run->is_read);
  ASSERT_EQ(run->tickets.size(), 2u);
  EXPECT_EQ(run->tickets[0].second, 0u);
  EXPECT_EQ(run->tickets[1].second, 3u);

  // The write is served alone, even with a read queued behind it.
  run = queue.PopRun(/*head=*/8, /*max_run_pages=*/8);
  ASSERT_TRUE(run.has_value());
  EXPECT_FALSE(run->is_read);
  ASSERT_EQ(run->tickets.size(), 1u);
  EXPECT_EQ(run->tickets[0].second, 1u);

  run = queue.PopRun(/*head=*/7, /*max_run_pages=*/8);
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(run->is_read);
  ASSERT_EQ(run->tickets.size(), 1u);
  EXPECT_EQ(run->tickets[0].second, 2u);
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------- scheduler PeekPages

PendingRef MakeRef(PageId page) {
  PendingRef ref;
  ref.page = page;
  return ref;
}

TEST(ElevatorSchedulerProperty, PeekPagesMatchesActualPopOrder) {
  // PeekPages must predict the distinct-page visit order Pop produces when
  // the head follows each fetched page (how assembly drives it), without
  // consuming anything.
  std::mt19937_64 rng(24680);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 30, 400);
    ElevatorScheduler scheduler;
    std::vector<PendingRef> batch;
    for (PageId page : pages) batch.push_back(MakeRef(page));
    scheduler.AddBatch(batch, /*is_root=*/true);

    PageId head = std::uniform_int_distribution<PageId>(0, 400)(rng);
    std::vector<PageId> predicted = scheduler.PeekPages(head, pages.size());

    std::vector<PageId> actual;
    PageId arm = head;
    while (!scheduler.Empty()) {
      PendingRef ref = scheduler.Pop(arm);
      if (actual.empty() || actual.back() != ref.page) {
        actual.push_back(ref.page);
      }
      arm = ref.page;
    }
    EXPECT_EQ(predicted, actual) << "trial " << trial << " head " << head;
  }
}

TEST(ElevatorSchedulerProperty, PeekPagesIsNonMutatingAndBounded) {
  ElevatorScheduler scheduler;
  std::vector<PendingRef> batch = {MakeRef(10), MakeRef(20), MakeRef(30)};
  scheduler.AddBatch(batch, /*is_root=*/true);
  EXPECT_EQ(scheduler.PeekPages(0, 2).size(), 2u);
  EXPECT_EQ(scheduler.PeekPages(0, 99).size(), 3u);
  EXPECT_TRUE(scheduler.PeekPages(0, 0).empty());
  EXPECT_EQ(scheduler.Size(), 3u);  // peeking consumed nothing
  // Base Scheduler interface: non-positional schedulers answer empty.
  DepthFirstScheduler depth_first;
  depth_first.AddBatch(batch, /*is_root=*/true);
  EXPECT_TRUE(depth_first.PeekPages(0, 8).empty());
}

// ------------------------------------------- vectored PopRun (scheduler)

TEST(ElevatorSchedulerRunProperty, EveryRefResolvedExactlyOnceAcrossRuns) {
  std::mt19937_64 rng(8675309);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageId> pages = RandomPages(&rng, 60, 250);
    size_t max_run = std::uniform_int_distribution<size_t>(1, 16)(rng);
    ElevatorScheduler scheduler;
    std::vector<PendingRef> batch;
    for (size_t i = 0; i < pages.size(); ++i) {
      PendingRef ref = MakeRef(pages[i]);
      ref.complex_id = i;  // unique tag to track exactly-once
      batch.push_back(ref);
    }
    scheduler.AddBatch(batch, /*is_root=*/true);
    PageId head = std::uniform_int_distribution<PageId>(0, 250)(rng);
    std::set<uint64_t> resolved;
    while (!scheduler.Empty()) {
      RefRun run = scheduler.PopRun(head, max_run);
      ASSERT_FALSE(run.refs.empty());
      EXPECT_GE(run.pages, 1u);
      EXPECT_LE(run.pages, max_run) << "trial " << trial;
      const PageId last_page = run.first_page + (run.pages - 1);
      PageId prev = run.ascending ? run.first_page : last_page;
      for (const PendingRef& ref : run.refs) {
        EXPECT_TRUE(resolved.insert(ref.complex_id).second)
            << "ref resolved twice (trial " << trial << ")";
        // refs come grouped by page in transfer order.
        EXPECT_GE(ref.page, run.first_page);
        EXPECT_LE(ref.page, last_page);
        if (run.ascending) {
          EXPECT_GE(ref.page, prev);
        } else {
          EXPECT_LE(ref.page, prev);
        }
        prev = ref.page;
      }
      // A span never speculates: both endpoints carry references.
      EXPECT_EQ(run.ascending ? run.refs.front().page
                              : run.refs.back().page,
                run.first_page);
      EXPECT_EQ(run.ascending ? run.refs.back().page
                              : run.refs.front().page,
                last_page);
      head = run.ascending ? last_page : run.first_page;
    }
    EXPECT_EQ(resolved.size(), pages.size()) << "trial " << trial;
  }
}

TEST(ElevatorSchedulerRunProperty, BridgedGapsStayWithinTheSpanBudget) {
  // Pages 10 and 14 pend with a 3-page gap: an 8-page budget bridges them
  // into one span, a 4-page budget cannot (span would be 5).
  for (auto [budget, want_pages] : {std::pair<size_t, size_t>{8, 5},
                                    std::pair<size_t, size_t>{4, 1}}) {
    ElevatorScheduler scheduler;
    scheduler.AddBatch({MakeRef(10), MakeRef(14)}, /*is_root=*/true);
    RefRun run = scheduler.PopRun(/*head=*/0, budget);
    EXPECT_EQ(run.first_page, 10u);
    EXPECT_EQ(run.pages, want_pages);
    EXPECT_EQ(run.refs.size(), want_pages == 5 ? 2u : 1u);
  }
}

TEST(ElevatorSchedulerRunProperty, RunNeverSpansASweepReversal) {
  // Head between two pending pages, sweeping up: the run takes the upper
  // page only; the lower page waits for the reversal even though it is
  // within the span budget.
  ElevatorScheduler scheduler;
  scheduler.AddBatch({MakeRef(8), MakeRef(12)}, /*is_root=*/true);
  RefRun up = scheduler.PopRun(/*head=*/10, /*max_run_pages=*/16);
  EXPECT_TRUE(up.ascending);
  EXPECT_EQ(up.first_page, 12u);
  EXPECT_EQ(up.pages, 1u);
  RefRun down = scheduler.PopRun(/*head=*/12, /*max_run_pages=*/16);
  EXPECT_FALSE(down.ascending);
  EXPECT_EQ(down.first_page, 8u);
  EXPECT_EQ(down.pages, 1u);
  EXPECT_TRUE(scheduler.Empty());
}

TEST(ElevatorSchedulerRunProperty, DefaultSchedulersPopSingleRefRuns) {
  // Position-blind schedulers keep their historical one-ref-at-a-time
  // order under PopRun, whatever the budget.
  DepthFirstScheduler depth_first;
  depth_first.AddBatch({MakeRef(30), MakeRef(20), MakeRef(10)},
                       /*is_root=*/true);
  RefRun run = depth_first.PopRun(/*head=*/0, /*max_run_pages=*/8);
  ASSERT_EQ(run.refs.size(), 1u);
  EXPECT_EQ(run.refs[0].page, 30u);
  EXPECT_EQ(run.pages, 1u);
  EXPECT_EQ(run.first_page, 30u);
}

}  // namespace
}  // namespace cobra
