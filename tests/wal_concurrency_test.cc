// Write transactions racing assembly queries (ctest label `concurrency`;
// CI also runs this binary under -fsanitize=thread).
//
// A preloaded ACOB database serves concurrent assembly queries through the
// QueryService while writer threads push ExecuteWrite transactions —
// inserts, same-size updates, removes, and explicit aborts — through the
// same buffer pool, WAL write gate, and shared directory.  Readers hold the
// service's store lock shared, writers exclusive; commit durability waits
// happen outside the lock so committers share group-commit flushes.  The
// WAL flush telemetry flows through a TelemetryHub into a registry off the
// group-commit daemon thread, which is exactly the cross-thread path TSan
// needs to see.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "file/heap_file.h"
#include "object/object.h"
#include "object/object_store.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "service/query_service.h"
#include "storage/disk.h"
#include "wal/wal.h"
#include "workload/acob.h"

namespace cobra {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kJobsPerWriter = 24;

ObjectData MakeObject(Oid oid, int32_t tag) {
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 99;  // outside the workload's template types
  obj.fields = {tag, tag + 1, tag + 2, tag + 3};
  obj.refs = {};
  return obj;
}

TEST(WalConcurrency, WritersRaceQueriesUnderOneServiceStack) {
  AcobOptions options;
  options.num_complex_objects = 120;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  // Extents past everything the workload wrote.
  const PageId base = db->disk->page_span();
  const PageId write_first = base + 8;
  const size_t write_pages = 64;
  wal::WalOptions wal_options;
  wal_options.log_first_page = base + 128;
  wal_options.log_max_pages = 4096;

  // Writer-thread bookkeeping for the post-drain verification.
  struct WriterModel {
    std::map<Oid, ObjectData> expected;
    uint64_t committed = 0;
    uint64_t aborted = 0;
  };
  std::vector<WriterModel> models(kWriters);
  std::atomic<uint64_t> write_failures{0};

  obs::Registry registry;
  obs::RegistryPublisher publisher(&registry);
  // The wal daemon publishes flushes concurrently with everything else:
  // serialize it onto the registry through the hub's lock.
  obs::TelemetryHub telemetry;
  telemetry.Add(&publisher);

  {
    wal::WalManager wal(db->disk.get(), wal_options);
    wal.set_listener(&telemetry);
    ASSERT_TRUE(wal.Recover().ok());
    BufferManager pool(db->disk.get(),
                       BufferOptions{.num_frames = 4096, .num_shards = 8});
    pool.set_write_gate(&wal);
    HeapFile write_file(&pool, write_first, write_pages);
    write_file.set_wal(&wal);

    service::ServiceOptions service_options;
    service_options.num_workers = 4;
    service_options.wal = &wal;
    service_options.write_file = &write_file;
    service_options.next_oid = db->store->next_oid() + 1'000'000;
    service::QueryService service(&pool, db->directory.get(),
                                  service_options);

    // Queries: the whole root population, split across jobs.
    std::vector<std::future<service::QueryResult>> queries;
    const size_t jobs = 8;
    const size_t per_job = db->roots.size() / jobs;
    for (size_t j = 0; j < jobs; ++j) {
      service::QueryJob job;
      job.client = "reader" + std::to_string(j);
      job.tmpl = &db->tmpl;
      job.roots.assign(db->roots.begin() + j * per_job,
                       j + 1 == jobs ? db->roots.end()
                                     : db->roots.begin() + (j + 1) * per_job);
      job.assembly.window_size = 25;
      job.assembly.scheduler = SchedulerKind::kElevator;
      queries.push_back(service.Submit(std::move(job)));
    }

    // Writers: each thread owns a disjoint OID range, so its model of the
    // final state is exact regardless of interleaving.
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        WriterModel& model = models[w];
        const Oid first_oid =
            db->store->next_oid() + static_cast<Oid>(w) * 10'000;
        Oid next = first_oid;
        for (size_t j = 0; j < kJobsPerWriter; ++j) {
          service::WriteJob job;
          job.client = "writer" + std::to_string(w);
          job.abort = j % 5 == 4;
          std::map<Oid, ObjectData> scratch = model.expected;
          // Two inserts.
          for (int i = 0; i < 2; ++i) {
            service::WriteOp op;
            op.kind = service::WriteOp::Kind::kInsert;
            op.obj = MakeObject(next++, static_cast<int32_t>(j * 10 + i));
            scratch[op.obj.oid] = op.obj;
            job.ops.push_back(op);
          }
          // Update the writer's oldest live object.
          if (!model.expected.empty()) {
            service::WriteOp op;
            op.kind = service::WriteOp::Kind::kUpdate;
            op.obj = MakeObject(model.expected.begin()->first,
                                static_cast<int32_t>(7000 + j));
            scratch[op.obj.oid] = op.obj;
            job.ops.push_back(op);
          }
          // Occasionally remove the newest live object.
          if (j % 3 == 2 && !model.expected.empty()) {
            service::WriteOp op;
            op.kind = service::WriteOp::Kind::kRemove;
            op.oid = model.expected.rbegin()->first;
            scratch.erase(op.oid);
            job.ops.push_back(op);
          }

          service::WriteResult result = service.ExecuteWrite(job);
          if (!result.status.ok()) {
            ++write_failures;
            continue;
          }
          if (job.abort) {
            EXPECT_TRUE(result.aborted);
            ++model.aborted;  // state unchanged
          } else {
            EXPECT_EQ(result.ops_applied, job.ops.size());
            ++model.committed;
            model.expected = std::move(scratch);
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    service.Drain();

    // Every query completed over consistent data.
    uint64_t rows = 0;
    for (auto& f : queries) {
      service::QueryResult result = f.get();
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      rows += result.rows;
    }
    EXPECT_EQ(rows, db->roots.size());
    EXPECT_EQ(write_failures.load(), 0u);
    EXPECT_EQ(pool.pinned_frames(), 0u);
    EXPECT_EQ(wal.active_txns(), 0u);

    // Committed writes are visible (and aborted ones invisible) through a
    // fresh store view over the same pool and directory.
    uint64_t committed = 0;
    uint64_t aborted = 0;
    ObjectStore reader(&pool, db->directory.get());
    for (const WriterModel& model : models) {
      committed += model.committed;
      aborted += model.aborted;
      for (const auto& [oid, want] : model.expected) {
        auto got = reader.Get(oid);
        ASSERT_TRUE(got.ok()) << "oid " << oid << ": "
                              << got.status().ToString();
        EXPECT_EQ(*got, want);
      }
    }
    wal::WalStats stats = wal.stats();
    EXPECT_EQ(stats.commits, committed);
    EXPECT_EQ(stats.aborts, aborted);
    EXPECT_GT(stats.batches_flushed, 0u);

    // The daemon's flush events landed in the registry via the locked path.
    const obs::Counter* flushes = registry.FindCounter("wal.flushes");
    ASSERT_NE(flushes, nullptr);
    EXPECT_EQ(flushes->value(), stats.batches_flushed);

    // Quiesced, the log can be truncated and written through again.
    ASSERT_TRUE(wal.Checkpoint(&pool).ok());
    service::WriteJob after;
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kInsert;
    op.obj = MakeObject(db->store->next_oid() + 999'999, 1);
    after.ops.push_back(op);
    EXPECT_TRUE(service.ExecuteWrite(after).status.ok());
  }
}

}  // namespace
}  // namespace cobra
