// Fault-model coverage: page checksums, the buffer manager's retry policy,
// frame-leak-free error paths, the object/store corruption branches, and
// deterministic degraded-mode assembly (ErrorPolicy) without randomness.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "exec/scan.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/object_store.h"
#include "storage/checksum.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "workload/acob.h"
#include "workload/genealogy.h"

namespace cobra {
namespace {

// ---------------------------------------------------------------- checksum

std::vector<std::byte> PatternPage(size_t size) {
  std::vector<std::byte> page(size);
  for (size_t i = 0; i < size; ++i) {
    page[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
  }
  return page;
}

TEST(ChecksumTest, StampAndVerifyRoundTrip) {
  std::vector<std::byte> page = PatternPage(1024);
  StampPageChecksum(page.data(), page.size());
  EXPECT_TRUE(VerifyPageChecksum(page.data(), page.size(), 7).ok());
}

TEST(ChecksumTest, UnstampedPageSkipsVerification) {
  // Stored checksum 0 means "never written back through the buffer"; such
  // pages (fresh test fixtures, raw writes) must stay readable.
  std::vector<std::byte> page = PatternPage(1024);
  page[0] = page[1] = page[2] = page[3] = std::byte{0};
  EXPECT_TRUE(VerifyPageChecksum(page.data(), page.size(), 7).ok());
}

TEST(ChecksumTest, DetectsBitFlip) {
  std::vector<std::byte> page = PatternPage(1024);
  StampPageChecksum(page.data(), page.size());
  for (size_t offset : {size_t{4}, size_t{100}, size_t{1023}}) {
    std::vector<std::byte> copy = page;
    copy[offset] ^= std::byte{0x10};
    Status status = VerifyPageChecksum(copy.data(), copy.size(), 42);
    EXPECT_TRUE(status.IsCorruption()) << "offset " << offset;
  }
}

TEST(ChecksumTest, DetectsTornPage) {
  std::vector<std::byte> page = PatternPage(1024);
  StampPageChecksum(page.data(), page.size());
  std::fill(page.begin() + 512, page.end(), std::byte{0});
  EXPECT_TRUE(VerifyPageChecksum(page.data(), page.size(), 1).IsCorruption());
}

// ------------------------------------------------------ fault-injecting disk

TEST(FaultInjectingDiskTest, DisarmedBehavesLikeBase) {
  FaultInjectingDisk disk(FaultProfile::Mixed(1));
  std::vector<std::byte> in(disk.page_size(), std::byte{0x5A});
  ASSERT_TRUE(disk.WritePage(3, in.data()).ok());
  std::vector<std::byte> out(disk.page_size());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(disk.ReadPage(3, out.data()).ok());
    ASSERT_EQ(out, in);
  }
  EXPECT_EQ(disk.fault_stats().total(), 0u);
}

TEST(FaultInjectingDiskTest, TransientRateOneFailsEveryAttempt) {
  FaultProfile profile;
  profile.seed = 9;
  profile.transient_read_fail = 1.0;
  FaultInjectingDisk disk(profile);
  std::vector<std::byte> buf(disk.page_size(), std::byte{0});
  ASSERT_TRUE(disk.WritePage(0, buf.data()).ok());
  disk.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsUnavailable());
  }
  EXPECT_EQ(disk.fault_stats().transient_failures, 5u);
}

TEST(FaultInjectingDiskTest, PermanentRateOneNeverRecovers) {
  FaultProfile profile;
  profile.seed = 9;
  profile.permanent_page_fail = 1.0;
  FaultInjectingDisk disk(profile);
  std::vector<std::byte> buf(disk.page_size(), std::byte{0});
  ASSERT_TRUE(disk.WritePage(0, buf.data()).ok());
  disk.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsCorruption());
  }
  EXPECT_EQ(disk.fault_stats().permanent_failures, 5u);
}

TEST(FaultInjectingDiskTest, ScheduleIsDeterministicAndReplayable) {
  auto run = [](FaultInjectingDisk* disk) {
    std::vector<int> codes;
    std::vector<std::byte> buf(disk->page_size());
    for (PageId page = 0; page < 32; ++page) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        Status status = disk->ReadPage(page, buf.data());
        codes.push_back(static_cast<int>(status.code()));
        codes.push_back(
            static_cast<int>(buf[disk->page_size() / 2 + 13]));
      }
    }
    return codes;
  };

  FaultProfile profile = FaultProfile::Mixed(1234);
  FaultInjectingDisk a(profile);
  FaultInjectingDisk b(profile);
  std::vector<std::byte> page = PatternPage(a.page_size());
  StampPageChecksum(page.data(), page.size());
  for (PageId id = 0; id < 32; ++id) {
    ASSERT_TRUE(a.WritePage(id, page.data()).ok());
    ASSERT_TRUE(b.WritePage(id, page.data()).ok());
  }
  a.set_enabled(true);
  b.set_enabled(true);

  std::vector<int> first = run(&a);
  EXPECT_EQ(first, run(&b));  // same seed, same schedule
  EXPECT_GT(a.fault_stats().total(), 0u) << "profile injected nothing";

  // ResetFaultState clears per-page attempt numbers: the schedule replays.
  a.ResetFaultState();
  EXPECT_EQ(first, run(&a));
}

// ------------------------------------------------------- buffer retry path

// Builds `n` checksummed pages 0..n-1 through a throwaway buffer pool so
// fetches verify cleanly.
void WriteStampedPages(SimulatedDisk* disk, size_t n) {
  BufferManager loader(disk, BufferOptions{.num_frames = 8});
  for (PageId id = 0; id < n; ++id) {
    auto guard = loader.CreatePage(id);
    ASSERT_TRUE(guard.ok());
    guard->data()[100] = static_cast<std::byte>(id + 1);
  }
  ASSERT_TRUE(loader.FlushAll().ok());
}

TEST(BufferRetryTest, ExhaustedRetriesReturnUnavailable) {
  FaultProfile profile;
  profile.seed = 5;
  profile.transient_read_fail = 1.0;
  FaultInjectingDisk disk(profile);
  WriteStampedPages(&disk, 1);
  disk.set_enabled(true);

  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  auto guard = buffer.FetchPage(0);
  ASSERT_FALSE(guard.ok());
  EXPECT_TRUE(guard.status().IsUnavailable());
  EXPECT_EQ(buffer.stats().retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(buffer.stats().retries_exhausted, 1u);
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(BufferRetryTest, BackoffChargedAsReadSeekCost) {
  FaultProfile profile;
  profile.seed = 5;
  profile.transient_read_fail = 1.0;
  FaultInjectingDisk disk(profile);
  WriteStampedPages(&disk, 1);
  disk.ParkHead(0);
  disk.ResetStats();
  disk.set_enabled(true);

  BufferOptions options{.num_frames = 4};
  options.retry.max_read_attempts = 3;
  options.retry.backoff_seek_pages = 16;
  BufferManager buffer(&disk, options);
  ASSERT_FALSE(buffer.FetchPage(0).ok());
  // Page 0 with the head parked at 0: the only read seek cost is the
  // deterministic linear backoff, 1*16 + 2*16.
  EXPECT_EQ(disk.stats().reads, 3u);
  EXPECT_EQ(disk.stats().read_seek_pages, 48u);
}

TEST(BufferRetryTest, TransientFaultsRecoverWithinBudget) {
  FaultProfile profile;
  profile.seed = 77;
  profile.transient_read_fail = 0.4;
  FaultInjectingDisk disk(profile);
  WriteStampedPages(&disk, 16);
  disk.set_enabled(true);

  BufferOptions options{.num_frames = 16};
  options.retry.max_read_attempts = 10;
  BufferManager buffer(&disk, options);
  for (PageId id = 0; id < 16; ++id) {
    auto guard = buffer.FetchPage(id);
    ASSERT_TRUE(guard.ok()) << "page " << id << ": "
                            << guard.status().ToString();
    EXPECT_EQ(guard->data()[100], static_cast<std::byte>(id + 1));
  }
  EXPECT_GT(buffer.stats().retries, 0u);  // at least one first attempt failed
  EXPECT_EQ(buffer.stats().retries_exhausted, 0u);
}

TEST(BufferChecksumTest, CorruptedPageFailsFetchPermanently) {
  SimulatedDisk disk;
  WriteStampedPages(&disk, 2);

  // Flip one payload byte of page 0 behind the buffer manager's back.
  std::vector<std::byte> raw(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(0, raw.data()).ok());
  raw[100] ^= std::byte{0x01};
  ASSERT_TRUE(disk.WritePage(0, raw.data()).ok());

  BufferManager buffer(&disk, BufferOptions{.num_frames = 1});
  auto bad = buffer.FetchPage(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption());
  EXPECT_EQ(buffer.stats().checksum_failures, 1u);
  EXPECT_EQ(buffer.pinned_frames(), 0u);

  // The single frame was returned to the pool: page 1 still fetches.
  auto good = buffer.FetchPage(1);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->data()[100], std::byte{2});
}

TEST(BufferChecksumTest, VerificationAddsNoReads) {
  SimulatedDisk disk;
  WriteStampedPages(&disk, 4);
  disk.ResetStats();
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  for (PageId id = 0; id < 4; ++id) {
    ASSERT_TRUE(buffer.FetchPage(id).ok());
  }
  EXPECT_EQ(disk.stats().reads, 4u);  // exactly one read per fault
  EXPECT_EQ(buffer.stats().checksum_failures, 0u);
}

TEST(BufferChecksumTest, InjectedBitFlipsNeverLeaveAPagePinned) {
  // Regression: a fetch that obtains a frame and then fails checksum
  // verification must return the frame *and* the pin — under
  // ErrorPolicy::kSkipObject the query keeps running, so a leaked pin per
  // corrupt read would strangle the pool long before the query ends.
  FaultProfile profile;
  profile.seed = 3;
  profile.bit_flip = 1.0;  // every read comes back corrupted
  FaultInjectingDisk disk(profile);
  WriteStampedPages(&disk, 8);
  disk.set_enabled(true);

  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 8; ++id) {
      auto guard = buffer.FetchPage(id);
      ASSERT_FALSE(guard.ok());
      EXPECT_TRUE(guard.status().IsCorruption());
      EXPECT_EQ(buffer.pinned_frames(), 0u)
          << "round " << round << " page " << id;
    }
  }
  EXPECT_EQ(buffer.stats().checksum_failures, 24u);

  // Disarm: the pool is fully usable, no frame was lost.
  disk.set_enabled(false);
  for (PageId id = 0; id < 8; ++id) {
    auto guard = buffer.FetchPage(id);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[100], static_cast<std::byte>(id + 1));
  }
}

TEST(BufferFetchTest, NoFrameLeakOnNotFound) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 1});
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(buffer.FetchPage(99).status().IsNotFound());
  }
  EXPECT_EQ(buffer.pinned_frames(), 0u);
  EXPECT_TRUE(buffer.CreatePage(1).ok());  // the one frame is still usable
}

// ----------------------------------------------- object corruption branches

TEST(ObjectCorruptionTest, TruncatedRecord) {
  auto empty = ObjectData::Deserialize({});
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsCorruption());

  ObjectData obj;
  obj.oid = 1;
  obj.type_id = 2;
  obj.fields = {10, 20, 30, 40};
  obj.refs = {5, 6};
  std::vector<std::byte> bytes = obj.Serialize();
  // Cut inside the header: the OID field cannot even be read.
  auto truncated =
      ObjectData::Deserialize(std::span<const std::byte>(bytes.data(), 5));
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption());
}

TEST(ObjectCorruptionTest, SizeMismatch) {
  ObjectData obj;
  obj.oid = 1;
  obj.type_id = 2;
  obj.fields = {10, 20, 30, 40};
  obj.refs = {5, 6};
  std::vector<std::byte> bytes = obj.Serialize();
  // Header intact but the body is short: declared counts disagree with the
  // record length.
  auto short_body = ObjectData::Deserialize(
      std::span<const std::byte>(bytes.data(), bytes.size() - 4));
  ASSERT_FALSE(short_body.ok());
  EXPECT_TRUE(short_body.status().IsCorruption());

  bytes.push_back(std::byte{0});  // trailing garbage
  auto long_body = ObjectData::Deserialize(bytes);
  ASSERT_FALSE(long_body.ok());
  EXPECT_TRUE(long_body.status().IsCorruption());
}

TEST(ObjectStoreCorruptionTest, DirectoryPointsAtWrongOid) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 64});
  HashDirectory directory;
  ObjectStore store(&buffer, &directory);
  HeapFile file(&buffer, 0, 8);

  ObjectData obj;
  obj.oid = store.AllocateOid();
  obj.type_id = 1;
  obj.fields = {1, 2, 3, 4};
  obj.refs = {};
  auto stored = store.Insert(obj, &file);
  ASSERT_TRUE(stored.ok());

  // Misdirect a fresh OID at the stored record.
  auto location = directory.Lookup(*stored);
  ASSERT_TRUE(location.ok());
  Oid bogus = store.AllocateOid();
  ASSERT_TRUE(directory.Put(bogus, *location).ok());

  auto got = store.Get(bogus);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_TRUE(store.Get(*stored).ok());  // the real OID still resolves
}

// -------------------------------------------- degraded-mode assembly (det.)

// Runs the lives-close-to-father plan, returning matched person OIDs
// through `matches` and the operator stats through `stats`.
Status RunPlan(GenealogyDatabase* db, const AssemblyOptions& options,
               std::vector<Oid>* matches, AssemblyStats* stats) {
  matches->clear();
  COBRA_RETURN_IF_ERROR(db->ColdRestart());
  AssemblyOperator* assembly = nullptr;
  std::unique_ptr<exec::Iterator> plan =
      MakeLivesCloseToFatherPlan(db, options, &assembly);
  COBRA_RETURN_IF_ERROR(plan->Open());
  exec::RowBatch batch;
  for (;;) {
    Result<size_t> n = plan->NextBatch(&batch);
    if (!n.ok()) {
      (void)plan->Close();
      return n.status();
    }
    if (*n == 0) break;
    for (size_t i = 0; i < *n; ++i) {
      matches->push_back(batch[i][0].AsObject()->oid);
    }
  }
  *stats = assembly->stats();
  return plan->Close();
}

class DegradedModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenealogyOptions options;
    options.num_people = 200;
    options.seed = 11;
    auto built = BuildGenealogyDatabase(options);
    ASSERT_TRUE(built.ok());
    db_ = std::move(built).value();
  }

  // Unregisters the residence of person `index`, creating a dangling OID.
  Oid BreakResidenceOf(size_t index) {
    auto person = db_->store->Get(db_->persons[index]);
    EXPECT_TRUE(person.ok());
    Oid residence = person->refs[kPersonResidenceSlot];
    EXPECT_TRUE(db_->directory->Remove(residence).ok());
    return residence;
  }

  std::unique_ptr<GenealogyDatabase> db_;
};

TEST_F(DegradedModeTest, FailQuerySurfacesFirstError) {
  std::vector<Oid> baseline;
  AssemblyStats stats;
  AssemblyOptions options;
  options.window_size = 8;
  ASSERT_TRUE(RunPlan(db_.get(), options, &baseline, &stats).ok());
  EXPECT_EQ(stats.objects_dropped, 0u);

  BreakResidenceOf(0);
  std::vector<Oid> matches;
  Status status = RunPlan(db_.get(), options, &matches, &stats);
  ASSERT_FALSE(status.ok());  // default policy: first error kills the query
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(DegradedModeTest, SkipObjectDropsOnlyAffectedObjects) {
  AssemblyOptions options;
  options.window_size = 8;
  std::vector<Oid> baseline;
  AssemblyStats stats;
  ASSERT_TRUE(RunPlan(db_.get(), options, &baseline, &stats).ok());

  Oid broken = BreakResidenceOf(0);
  options.error_policy = ErrorPolicy::kSkipObject;
  std::vector<Oid> degraded;
  ASSERT_TRUE(RunPlan(db_.get(), options, &degraded, &stats).ok());

  // Residences are shared: everyone in the broken household drops, nobody
  // else does.  The query completed over the survivors.
  EXPECT_GT(stats.objects_dropped, 0u);
  EXPECT_EQ(stats.complex_admitted, db_->persons.size());
  EXPECT_EQ(stats.complex_admitted, stats.complex_emitted +
                                        stats.complex_aborted +
                                        stats.objects_dropped);
  std::set<Oid> baseline_set(baseline.begin(), baseline.end());
  for (Oid oid : degraded) {
    EXPECT_TRUE(baseline_set.contains(oid)) << "non-baseline survivor " << oid;
  }
  EXPECT_LT(degraded.size(), baseline.size() + 1);  // nothing appeared
  (void)broken;
}

TEST_F(DegradedModeTest, DropSetIsStableAcrossRuns) {
  BreakResidenceOf(3);
  AssemblyOptions options;
  options.window_size = 8;
  options.error_policy = ErrorPolicy::kSkipObject;
  std::vector<Oid> first;
  std::vector<Oid> second;
  AssemblyStats stats_first;
  AssemblyStats stats_second;
  ASSERT_TRUE(RunPlan(db_.get(), options, &first, &stats_first).ok());
  ASSERT_TRUE(RunPlan(db_.get(), options, &second, &stats_second).ok());
  EXPECT_EQ(first, second);
  EXPECT_EQ(stats_first.objects_dropped, stats_second.objects_dropped);
}

TEST(DegradedAssemblyPinTest, SkipObjectUnderBitFlipsLeavesPoolUnpinned) {
  // End-to-end form of the pin-leak regression: an assembly query that
  // keeps going past corrupt reads (kSkipObject) must end with every buffer
  // frame unpinned, however many fetches failed mid-object.
  AcobOptions options;
  options.num_complex_objects = 60;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  options.faults.seed = 99;
  options.faults.bit_flip = 0.10;  // roughly every tenth read corrupted
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  std::vector<exec::Row> rows;
  for (Oid root : db->roots) rows.push_back(exec::Row{exec::Value::Ref(root)});
  AssemblyOptions assembly;
  assembly.window_size = 10;
  assembly.error_policy = ErrorPolicy::kSkipObject;
  AssemblyOperator op(std::make_unique<exec::VectorScan>(std::move(rows)),
                      &db->tmpl, db->store.get(), assembly);
  ASSERT_TRUE(op.Open().ok());
  exec::RowBatch batch;
  uint64_t emitted = 0;
  for (;;) {
    auto n = op.NextBatch(&batch);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    emitted += *n;
  }
  ASSERT_TRUE(op.Close().ok());

  const AssemblyStats& stats = op.stats();
  EXPECT_GT(stats.objects_dropped, 0u) << "fault profile injected nothing";
  EXPECT_EQ(stats.complex_admitted, db->roots.size());
  EXPECT_EQ(stats.complex_admitted, stats.complex_emitted +
                                        stats.complex_aborted +
                                        stats.objects_dropped);
  EXPECT_EQ(emitted, stats.complex_emitted);
  EXPECT_EQ(db->buffer->pinned_frames(), 0u);
  EXPECT_GT(db->buffer->stats().checksum_failures, 0u);
}

// ------------------------------------------- vectored reads under faults

// SimulatedDisk with a deterministic per-page fault hook: `fault_page`
// rejects its next `remaining_faults` run transfers with the given status.
// Tests the ReadRun/FixRun splitting machinery without the probabilistic
// injector.
class OnePageFaultDisk : public SimulatedDisk {
 public:
  PageId fault_page = kInvalidPageId;
  int remaining_faults = 0;
  Status fault = Status::Unavailable("injected");

 protected:
  Status InjectRunPageFault(PageId id, std::byte*, uint64_t*) override {
    if (id == fault_page && remaining_faults != 0) {
      if (remaining_faults > 0) --remaining_faults;
      return fault;
    }
    return Status::OK();
  }
};

TEST(VectoredFaultTest, MidRunTransientFaultRetriesOnlyTheTail) {
  OnePageFaultDisk disk;
  WriteStampedPages(&disk, 6);
  disk.fault_page = 3;
  disk.remaining_faults = 1;
  disk.ParkHead(0);
  disk.ResetStats();

  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  std::vector<Result<PageGuard>> out;
  buffer.FixRun(0, 6, /*ascending=*/true, &out);
  ASSERT_EQ(out.size(), 6u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << "page " << i << ": "
                             << out[i].status().ToString();
    EXPECT_EQ(out[i]->data()[100], static_cast<std::byte>(i + 1));
  }
  // The fault split one coalesced transfer in two: pages 0-2 landed before
  // the fault, the retry re-read only the tail 3-5 — never the good prefix.
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().pages_read, 7u);  // 0,1,2,3(faulted) + 3,4,5
  EXPECT_EQ(buffer.stats().retries, 1u);
  EXPECT_EQ(buffer.stats().retries_exhausted, 0u);
  // Travel: 3 sequential transfers + re-entry at page 3 (0) + 2 transfers,
  // plus one 16-page retry backoff for the failed attempt.
  EXPECT_EQ(disk.stats().read_seek_pages, 3u + 2u + 16u);
  out.clear();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(VectoredFaultTest, MidRunPermanentFaultPoisonsOnlyItsPage) {
  OnePageFaultDisk disk;
  WriteStampedPages(&disk, 5);
  disk.fault_page = 2;
  disk.remaining_faults = -1;  // never recovers
  disk.fault = Status::Corruption("bad sector");
  disk.ParkHead(0);
  disk.ResetStats();

  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  std::vector<Result<PageGuard>> out;
  buffer.FixRun(0, 5, /*ascending=*/true, &out);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(out[i].ok()) << "page " << i;
  }
  EXPECT_TRUE(out[2].status().IsCorruption());
  // Permanent faults are never retried: the run resumed past the bad page.
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(buffer.stats().retries, 0u);
  out.clear();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
  // The poisoned page is not cached: a later fetch re-reads (and fails
  // again while the fault persists).
  EXPECT_FALSE(buffer.IsResident(2));
}

TEST(VectoredFaultTest, ChecksumVerifiesPerPageWithinARun) {
  SimulatedDisk disk;
  WriteStampedPages(&disk, 3);
  // Corrupt page 1's payload behind the checksum's back.
  std::vector<std::byte> raw(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(1, raw.data()).ok());
  raw[200] ^= std::byte{0xFF};
  ASSERT_TRUE(disk.WritePage(1, raw.data()).ok());
  disk.ResetStats();

  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  std::vector<Result<PageGuard>> out;
  buffer.FixRun(0, 3, /*ascending=*/true, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_TRUE(out[1].status().IsCorruption());
  EXPECT_TRUE(out[2].ok());
  // One coalesced transfer moved all three pages; only page 1 was rejected.
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().pages_read, 3u);
  EXPECT_EQ(buffer.stats().checksum_failures, 1u);
  out.clear();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(VectoredFaultTest, FixRunMixesHitsAndMissesWithoutRereads) {
  SimulatedDisk disk;
  WriteStampedPages(&disk, 6);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  // Warm pages 1 and 4; the run must pin them as hits and read the rest in
  // consecutive-miss groups.
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(4); ASSERT_TRUE(g.ok()); }
  disk.ResetStats();
  std::vector<Result<PageGuard>> out;
  buffer.FixRun(0, 6, /*ascending=*/true, &out);
  ASSERT_EQ(out.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(out[i].ok()) << "page " << i;
    EXPECT_EQ(out[i]->data()[100], static_cast<std::byte>(i + 1));
  }
  // Miss groups {0}, {2,3}, {5}: three transfers, four pages, zero rereads
  // of the resident pages.
  EXPECT_EQ(disk.stats().reads, 3u);
  EXPECT_EQ(disk.stats().pages_read, 4u);
  EXPECT_EQ(buffer.stats().hits, 2u);
  out.clear();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(DegradedAssemblyPinTest, VectoredSkipObjectUnderBitFlipsStaysUnpinned) {
  // The io_batch=8 twin of SkipObjectUnderBitFlipsLeavesPoolUnpinned:
  // corrupt reads arriving through coalesced FixRun transfers must degrade
  // exactly as gracefully — no pinned frame survives the query, and the
  // admitted = emitted + aborted + dropped invariant holds.
  AcobOptions options;
  options.num_complex_objects = 60;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  options.faults.seed = 99;
  options.faults.bit_flip = 0.10;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  std::vector<exec::Row> rows;
  for (Oid root : db->roots) rows.push_back(exec::Row{exec::Value::Ref(root)});
  AssemblyOptions assembly;
  assembly.window_size = 10;
  assembly.scheduler = SchedulerKind::kElevator;
  assembly.error_policy = ErrorPolicy::kSkipObject;
  assembly.io_batch_pages = 8;
  AssemblyOperator op(std::make_unique<exec::VectorScan>(std::move(rows)),
                      &db->tmpl, db->store.get(), assembly);
  ASSERT_TRUE(op.Open().ok());
  exec::RowBatch batch;
  uint64_t emitted = 0;
  for (;;) {
    auto n = op.NextBatch(&batch);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    emitted += *n;
  }
  ASSERT_TRUE(op.Close().ok());

  const AssemblyStats& stats = op.stats();
  EXPECT_GT(stats.objects_dropped, 0u) << "fault profile injected nothing";
  EXPECT_EQ(stats.complex_admitted, db->roots.size());
  EXPECT_EQ(stats.complex_admitted, stats.complex_emitted +
                                        stats.complex_aborted +
                                        stats.objects_dropped);
  EXPECT_EQ(emitted, stats.complex_emitted);
  EXPECT_EQ(db->buffer->pinned_frames(), 0u);
  EXPECT_GT(db->buffer->stats().checksum_failures, 0u);
}

// -------------------------- objects that end inside a vectored run

// Assembles every root of `db` through one elevator operator (window 50)
// and returns the emitted root OIDs, sorted.
Result<std::vector<Oid>> AssembleAllRoots(AcobDatabase* db,
                                          const AssemblyOptions& options,
                                          AssemblyStats* stats) {
  COBRA_RETURN_IF_ERROR(db->ColdRestart());
  std::vector<exec::Row> rows;
  for (Oid root : db->roots) rows.push_back(exec::Row{exec::Value::Ref(root)});
  AssemblyOperator op(std::make_unique<exec::VectorScan>(std::move(rows)),
                      &db->tmpl, db->store.get(), options);
  COBRA_RETURN_IF_ERROR(op.Open());
  std::vector<Oid> emitted;
  exec::RowBatch batch;
  for (;;) {
    Result<size_t> n = op.NextBatch(&batch);
    if (!n.ok()) {
      (void)op.Close();
      return n.status();
    }
    if (*n == 0) break;
    for (size_t i = 0; i < *n; ++i) {
      emitted.push_back(batch[i][0].AsObject()->oid);
    }
  }
  *stats = op.stats();
  COBRA_RETURN_IF_ERROR(op.Close());
  std::sort(emitted.begin(), emitted.end());
  return emitted;
}

// Intra-object clustering puts an object's components on consecutive pages,
// so one coalesced run carries several references of the same object.  When
// an early one ends the object, the run's later references of it are dead
// and must be skipped, not fail the query; the outcome matches the
// page-at-a-time run object for object.
void ExpectRunMatchesPageAtATime(AcobDatabase* db, AssemblyOptions options,
                                 bool expect_aborts) {
  options.window_size = 50;
  options.scheduler = SchedulerKind::kElevator;
  options.io_batch_pages = 1;
  AssemblyStats single_stats;
  Result<std::vector<Oid>> single =
      AssembleAllRoots(db, options, &single_stats);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  options.io_batch_pages = 8;
  AssemblyStats run_stats;
  Result<std::vector<Oid>> run = AssembleAllRoots(db, options, &run_stats);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const uint64_t ended =
      expect_aborts ? run_stats.complex_aborted : run_stats.objects_dropped;
  EXPECT_GT(ended, 0u);
  EXPECT_GT(run_stats.complex_emitted, 0u);
  EXPECT_EQ(run_stats.complex_admitted, db->roots.size());
  EXPECT_EQ(run_stats.complex_admitted, run_stats.complex_emitted +
                                            run_stats.complex_aborted +
                                            run_stats.objects_dropped);
  EXPECT_EQ(run->size(), run_stats.complex_emitted);
  EXPECT_EQ(*run, *single);
  EXPECT_EQ(run_stats.complex_aborted, single_stats.complex_aborted);
  EXPECT_EQ(run_stats.objects_dropped, single_stats.objects_dropped);
  EXPECT_EQ(db->buffer->pinned_frames(), 0u);
}

TEST(VectoredRunEndsObjectTest, PredicateRejectionSkipsTheRunsLaterRefs) {
  AcobOptions options;
  options.num_complex_objects = 200;
  options.clustering = Clustering::kIntraObject;
  options.seed = 42;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  // Component B's fields[0] is uniform in [0, 10000): about half pass.
  db->nodes[1]->predicate = [](const ObjectData& obj) {
    return obj.fields[0] < 5000;
  };
  db->nodes[1]->selectivity = 0.5;
  ExpectRunMatchesPageAtATime(db.get(), AssemblyOptions{},
                              /*expect_aborts=*/true);
}

TEST(VectoredRunEndsObjectTest, PermanentFaultDropSkipsTheRunsLaterRefs) {
  AcobOptions options;
  options.num_complex_objects = 200;
  options.clustering = Clustering::kIntraObject;
  options.seed = 42;
  options.faults.seed = 7;
  options.faults.permanent_page_fail = 0.05;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok());
  auto db = std::move(*built);
  AssemblyOptions assembly;
  assembly.error_policy = ErrorPolicy::kSkipObject;
  ExpectRunMatchesPageAtATime(db.get(), assembly, /*expect_aborts=*/false);
}

}  // namespace
}  // namespace cobra
