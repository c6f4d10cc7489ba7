// Deterministic-seed concurrency stress tests for the sharded buffer pool,
// the AsyncDisk I/O thread, and the query service (ctest label
// `concurrency`; CI also runs this binary under -fsanitize=thread).
//
// Data discipline: any thread may pin/unpin any page — the pool guarantees
// a pinned frame is never moved or evicted — but payload *writes* (and the
// reads that check them) stay on pages the thread owns (page % threads ==
// thread id), since the pool deliberately leaves frame-payload access to
// user-level synchronization, exactly like a real buffer manager.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "storage/checksum.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "workload/acob.h"

namespace cobra {
namespace {

constexpr size_t kThreads = 8;
// Payload byte inspected/mutated by the hammer loops (past the checksum).
constexpr size_t kMarker = kPageChecksumSize;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Stamps `count` pages through a throwaway pool so their checksums verify
// when the pool under test faults them in.  Page p carries marker byte p.
void WriteStampedPages(SimulatedDisk* disk, size_t count) {
  BufferManager writer(disk, BufferOptions{.num_frames = count});
  for (PageId p = 0; p < count; ++p) {
    auto guard = writer.CreatePage(p);
    ASSERT_TRUE(guard.ok());
    guard->data()[kMarker] = std::byte{static_cast<uint8_t>(p)};
  }
  ASSERT_TRUE(writer.FlushAll().ok());
}

// The shared hammer: each thread fetches seeded-random pages, checks the
// marker of pages it owns, occasionally dirties an owned page, and keeps a
// small stack of live guards so pins overlap.  Returns successful fetches
// (hits + faults must account for exactly these).
uint64_t HammerPool(BufferManager* pool, size_t num_pages, size_t iterations,
                    std::atomic<uint64_t>* fetch_failures) {
  std::vector<std::thread> threads;
  std::atomic<uint64_t> successes{0};
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      uint64_t rng = 0xC0FFEE ^ (tid * 0x9E3779B97F4A7C15ull);
      std::vector<PageGuard> held;
      for (size_t i = 0; i < iterations; ++i) {
        PageId page = SplitMix64(&rng) % num_pages;
        auto guard = pool->FetchPage(page);
        if (!guard.ok()) {
          // Only pin exhaustion is tolerated (every frame of the page's
          // shard can transiently be pinned by the held stacks).
          if (!guard.status().IsResourceExhausted()) ++*fetch_failures;
          continue;
        }
        ++successes;
        if (page % kThreads == tid) {
          EXPECT_EQ(guard->data()[kMarker],
                    std::byte{static_cast<uint8_t>(page)});
          if (SplitMix64(&rng) % 4 == 0) {
            guard->data()[kMarker + 1] = std::byte{static_cast<uint8_t>(tid)};
            guard->MarkDirty();
          }
        }
        if (SplitMix64(&rng) % 3 == 0 && held.size() < 4) {
          held.push_back(std::move(*guard));
        } else if (!held.empty() && SplitMix64(&rng) % 2 == 0) {
          held.pop_back();  // release an older pin from this thread
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return successes.load();
}

TEST(ShardedPoolStress, ConcurrentFetchesKeepEveryInvariant) {
  constexpr size_t kPages = 256;
  SimulatedDisk disk;
  WriteStampedPages(&disk, kPages);

  // Pool big enough to hold everything — 2x headroom because pages hash
  // unevenly across shards — so no evictions occur and hits + faults must
  // account for every fetch.
  BufferManager pool(&disk, BufferOptions{.num_frames = 2 * kPages,
                                          .num_shards = kThreads});
  ASSERT_EQ(pool.num_shards(), kThreads);
  std::atomic<uint64_t> hard_failures{0};
  uint64_t successes = HammerPool(&pool, kPages, 1000, &hard_failures);

  EXPECT_EQ(hard_failures.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  BufferStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.faults, successes);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.max_pinned, pool.num_frames());
  EXPECT_LE(pool.unique_pages_faulted(), kPages);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(pool.DropAll().ok());
}

TEST(ShardedPoolStress, EvictionPressureWithDirtyWritebacks) {
  constexpr size_t kPages = 256;
  SimulatedDisk disk;
  WriteStampedPages(&disk, kPages);

  // 4 frames per shard: constant eviction + write-back traffic.
  BufferManager pool(&disk, BufferOptions{.num_frames = 32,
                                          .num_shards = kThreads});
  std::atomic<uint64_t> hard_failures{0};
  uint64_t successes = HammerPool(&pool, kPages, 600, &hard_failures);

  EXPECT_EQ(hard_failures.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  BufferStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.faults, successes);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.dirty_writebacks, 0u);
  EXPECT_LE(stats.max_pinned, pool.num_frames());
  EXPECT_TRUE(pool.FlushAll().ok());

  // Write-backs preserved every page: the original marker survived and any
  // second byte is a valid owner id.
  for (PageId p = 0; p < kPages; ++p) {
    auto guard = pool.FetchPage(p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[kMarker], std::byte{static_cast<uint8_t>(p)});
  }
}

// One hub shared by the disk and every pool shard: its lock is all that
// serializes the registry publisher and the trace recorder, neither of
// which is thread-safe on its own, and no event may be lost.
TEST(TelemetryHubStress, SharedSinksSeeEveryEventFromEveryShard) {
  constexpr size_t kPages = 256;
  SimulatedDisk disk;
  WriteStampedPages(&disk, kPages);
  disk.ResetStats();

  obs::Registry registry;
  obs::RegistryPublisher publisher(&registry);
  obs::TraceRecorder recorder(nullptr, 1 << 20);
  obs::TelemetryHub hub;
  hub.Add(&publisher);
  hub.Add(&recorder);
  BufferManager pool(&disk, BufferOptions{.num_frames = 32,
                                          .num_shards = kThreads});
  disk.set_listener(&hub);
  pool.set_listener(&hub);
  std::atomic<uint64_t> hard_failures{0};
  uint64_t successes = HammerPool(&pool, kPages, 600, &hard_failures);
  EXPECT_TRUE(pool.FlushAll().ok());
  disk.set_listener(nullptr);
  pool.set_listener(nullptr);

  EXPECT_EQ(hard_failures.load(), 0u);
  auto counter = [&](const char* name) {
    const obs::Counter* c = registry.FindCounter(name);
    return c == nullptr ? uint64_t{0} : c->value();
  };
  const BufferStats stats = pool.stats();
  EXPECT_EQ(counter("buffer.hits") + counter("buffer.faults"), successes);
  EXPECT_EQ(counter("buffer.evictions"), stats.evictions);
  EXPECT_EQ(counter("disk.reads"), disk.stats().reads);
  EXPECT_EQ(counter("disk.writes"), disk.stats().writes);
  EXPECT_GT(disk.stats().writes, 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.size(), successes + stats.evictions +
                                 disk.stats().reads + disk.stats().writes);
}

TEST(AsyncDiskStress, ConcurrentSubmittersSeeTheirOwnData) {
  constexpr size_t kPages = 128;
  DiskOptions disk_options;
  SimulatedDisk backing(disk_options);
  std::vector<std::byte> page(disk_options.page_size);
  for (PageId p = 0; p < kPages; ++p) {
    page[0] = std::byte{static_cast<uint8_t>(p)};
    ASSERT_TRUE(backing.WritePage(p, page.data()).ok());
  }

  AsyncDisk async(&backing);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> mismatches{0};
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      // Each thread reads its own residue class into private buffers, half
      // through futures, half through the blocking path.
      std::vector<std::vector<std::byte>> buffers;
      std::vector<std::pair<PageId, std::shared_future<Status>>> pending;
      for (PageId p = tid; p < kPages; p += kThreads) {
        buffers.emplace_back(disk_options.page_size);
        if (p % 2 == 0) {
          pending.emplace_back(p, async.SubmitRead(p, buffers.back().data()));
        } else {
          Status status = async.ReadPage(p, buffers.back().data());
          if (!status.ok() ||
              buffers.back()[0] != std::byte{static_cast<uint8_t>(p)}) {
            ++mismatches;
          }
        }
      }
      size_t index = 0;
      for (PageId p = tid; p < kPages; p += kThreads, ++index) {
        if (p % 2 != 0) continue;
        size_t slot = index;
        auto it = pending.begin();
        while (it != pending.end() && it->first != p) ++it;
        ASSERT_NE(it, pending.end());
        if (!it->second.get().ok() ||
            buffers[slot][0] != std::byte{static_cast<uint8_t>(p)}) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  async.Drain();

  EXPECT_EQ(mismatches.load(), 0u);
  AsyncDiskStats stats = async.async_stats();
  EXPECT_EQ(stats.reads_submitted, kPages);
  EXPECT_EQ(backing.stats().reads, kPages);
  EXPECT_GE(stats.max_queue_depth, 1u);
}

TEST(AsyncDiskStress, PrefetchRacesFetchWithoutLeaksOrCorruption) {
  constexpr size_t kPages = 96;
  SimulatedDisk backing;
  WriteStampedPages(&backing, kPages);

  AsyncDisk async(&backing);
  BufferManager pool(&async, BufferOptions{.num_frames = kPages,
                                          .num_shards = kThreads});
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      uint64_t rng = 0xBEEF ^ tid;
      for (size_t i = 0; i < 300; ++i) {
        PageId page = SplitMix64(&rng) % kPages;
        if (SplitMix64(&rng) % 2 == 0) {
          // Prefetch threads race the fetchers for the same pages.
          (void)pool.PrefetchPage(page);
        } else {
          auto guard = pool.FetchPage(page);
          if (!guard.ok()) {
            if (!guard.status().IsResourceExhausted()) ++failures;
            continue;
          }
          if (guard->data()[kMarker] !=
              std::byte{static_cast<uint8_t>(page)}) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  // DropAll settles any still-pending prefetch reads, then evicts all.
  EXPECT_TRUE(pool.DropAll().ok());
  async.Drain();
  EXPECT_EQ(pool.stats().checksum_failures, 0u);
}

TEST(QueryServiceStress, DegradedModeInvariantsUnderFaultsAndConcurrency) {
  AcobOptions options;
  options.num_complex_objects = 200;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  options.faults = FaultProfile::Mixed(/*seed=*/7);
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  uint64_t total_rows = 0;
  uint64_t total_dropped = 0;
  size_t jobs = 0;
  {
    // Teardown order matters: the pool's destructor flushes through the
    // async front-end, so the AsyncDisk must outlive the pool.
    AsyncDisk async(db->disk.get());
    BufferManager pool(&async,
                       BufferOptions{.num_frames = 4096,
                                     .retry = options.retry,
                                     .num_shards = kThreads});
    service::ServiceOptions service_options;
    service_options.num_workers = 4;
    service::QueryService service(&pool, db->directory.get(),
                                  service_options);

    std::vector<std::future<service::QueryResult>> futures;
    const size_t per_job = db->roots.size() / kThreads;
    for (size_t j = 0; j < kThreads; ++j) {
      service::QueryJob job;
      job.client = "stress" + std::to_string(j);
      job.tmpl = &db->tmpl;
      job.roots.assign(db->roots.begin() + j * per_job,
                       j + 1 == kThreads
                           ? db->roots.end()
                           : db->roots.begin() + (j + 1) * per_job);
      job.assembly.window_size = 25;
      job.assembly.scheduler = SchedulerKind::kElevator;
      job.assembly.error_policy = ErrorPolicy::kSkipObject;
      futures.push_back(service.Submit(std::move(job)));
    }
    jobs = futures.size();
    service.Drain();

    size_t roots_assigned = 0;
    for (size_t j = 0; j < futures.size(); ++j) {
      service::QueryResult result = futures[j].get();
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      const AssemblyStats& a = result.assembly;
      // The degraded-mode conservation law: every admitted complex object
      // is emitted, predicate-aborted, or dropped by a read error.
      EXPECT_EQ(a.complex_admitted,
                a.complex_emitted + a.complex_aborted + a.objects_dropped)
          << "client " << result.client;
      EXPECT_EQ(a.complex_aborted, 0u);  // no predicates in these jobs
      EXPECT_EQ(result.rows, a.complex_emitted);
      total_rows += result.rows;
      total_dropped += a.objects_dropped;
      roots_assigned += a.complex_admitted;
    }
    EXPECT_EQ(roots_assigned, db->roots.size());
    EXPECT_EQ(total_rows + total_dropped, db->roots.size());
    EXPECT_EQ(pool.pinned_frames(), 0u);

    // Aggregate registry agrees with the per-job results.
    obs::JsonValue snapshot = service.registry().ToJson();
    const obs::JsonValue* counters = snapshot.Find("counters");
    ASSERT_NE(counters, nullptr);
    const obs::JsonValue* completed = counters->Find("service.jobs_completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(completed->AsInt(), static_cast<int64_t>(jobs));
    const obs::JsonValue* rows = counters->Find("service.rows");
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->AsInt(), static_cast<int64_t>(total_rows));
    const obs::JsonValue* dropped = counters->Find("service.objects_dropped");
    if (dropped != nullptr) {
      EXPECT_EQ(dropped->AsInt(), static_cast<int64_t>(total_dropped));
    } else {
      EXPECT_EQ(total_dropped, 0u);
    }
    async.Drain();
  }
}

}  // namespace
}  // namespace cobra
