// Bench-side instruments for the traced run: a span recorder, decorators
// over the public SimulatedDisk and Directory interfaces, and counting
// listeners for the disk, buffer, WAL and cache event hooks.
//
// Everything here wraps the library from outside; nothing under src/ knows
// it exists.  The untraced run builds its stack without any of it.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cache/cache_events.h"
#include "object/directory.h"
#include "obs/query_context.h"
#include "storage/disk.h"
#include "wal/wal_events.h"

namespace perfbench {

using cobra::PageId;

enum class SpanKind : uint32_t {
  kQuery,
  kQueue,
  kIo,
  kCpu,
  kDeviceRead,
  kDeviceWrite,
  kLogWrite,
  kDirectoryLookup,
  kCommit,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kQuery;
  uint64_t query = 0;  // service query id; 0 outside a query
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

// Fixed-capacity, lock-free span store: a slot is claimed with one atomic
// increment; spans past the capacity are counted and dropped.  Recording is
// off until set_recording(true), so set-up traffic takes no slots.  Toggle
// it and read the spans only while no recording thread runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : spans_(capacity) {}

  void set_recording(bool on) { on_.store(on, std::memory_order_relaxed); }

  void Record(SpanKind kind, uint64_t query, uint64_t start_ns,
              uint64_t end_ns) {
    if (!on_.load(std::memory_order_relaxed)) return;
    const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= spans_.size()) return;
    spans_[slot] = Span{kind, query, start_ns,
                        end_ns > start_ns ? end_ns - start_ns : 0};
  }

  size_t recorded() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n < spans_.size() ? n : spans_.size();
  }
  size_t dropped() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n > spans_.size() ? n - spans_.size() : 0;
  }

  // Chrome trace-event JSON ("X" slices, one track per span kind).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<bool> on_{false};
  std::atomic<size_t> next_{0};
};

// Per-call timing of the device interface.  Wraps the backing disk the way
// FaultInjectingDisk does; placed under the buffer pool or under AsyncDisk.
// Writes inside [log_first, log_first + log_pages) are the WAL's and are
// counted apart from data writes.  Counters are atomics: the AsyncDisk I/O
// thread and the WAL daemon call in concurrently.
class TimedDisk : public cobra::SimulatedDisk {
 public:
  struct Counts {
    uint64_t read_calls = 0;
    uint64_t pages_read = 0;
    uint64_t read_ns = 0;
    uint64_t write_calls = 0;
    uint64_t write_ns = 0;
    uint64_t log_write_calls = 0;
    uint64_t log_write_ns = 0;
  };

  TimedDisk(cobra::SimulatedDisk* backing, SpanRecorder* spans)
      : SimulatedDisk(OptionsOf(*backing)), backing_(backing), spans_(spans) {}

  void set_log_extent(PageId first, size_t pages) {
    log_first_ = first;
    log_pages_ = pages;
  }

  cobra::Status ReadPage(PageId id, std::byte* out) override;
  cobra::RunReadResult ReadRun(PageId first, size_t n, bool ascending,
                               std::byte* const* outs) override;
  cobra::Status WritePage(PageId id, const std::byte* data) override;

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
  cobra::DiskStats spindle_stats(uint32_t s) const override {
    return backing_->spindle_stats(s);
  }

  Counts counts() const;

 private:
  static cobra::DiskOptions OptionsOf(const cobra::SimulatedDisk& backing) {
    cobra::DiskOptions options;
    options.page_size = backing.page_size();
    return options;
  }

  cobra::SimulatedDisk* backing_;
  SpanRecorder* spans_;
  PageId log_first_ = cobra::kInvalidPageId;
  size_t log_pages_ = 0;
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> write_ns_{0};
  std::atomic<uint64_t> log_write_calls_{0};
  std::atomic<uint64_t> log_write_ns_{0};
};

// Per-call timing of Directory::Lookup; Put and Remove pass through.
class TimedDirectory : public cobra::Directory {
 public:
  TimedDirectory(cobra::Directory* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  cobra::Status Put(cobra::Oid oid, cobra::RecordId location) override {
    return inner_->Put(oid, location);
  }
  cobra::Result<cobra::RecordId> Lookup(cobra::Oid oid) const override;
  cobra::Status Remove(cobra::Oid oid) override { return inner_->Remove(oid); }
  size_t size() const override { return inner_->size(); }

  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }
  uint64_t lookup_ns() const {
    return lookup_ns_.load(std::memory_order_relaxed);
  }

 private:
  cobra::Directory* inner_;
  SpanRecorder* spans_;
  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> lookup_ns_{0};
};

// Event counts from the library's own listener hooks.  At the end of the
// traced run they are compared with the layers' stats structs: an event the
// hook missed (or a counter the struct missed) fails the run.
struct EventCounts {
  uint64_t disk_reads = 0;
  uint64_t disk_pages_read = 0;
  uint64_t disk_writes = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_faults = 0;
  uint64_t buffer_evictions = 0;
  uint64_t wal_flushes = 0;
  uint64_t wal_pages = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_patches = 0;
};

class CountingListener : public cobra::DiskEventListener,
                         public cobra::BufferEventListener,
                         public cobra::wal::WalEventListener,
                         public cobra::cache::CacheEventListener {
 public:
  // The disk fires the spindle-carrying forms; their defaults forward here.
  void OnDiskRead(PageId, uint64_t) override {
    Inc(disk_reads_);
    Inc(disk_pages_read_);
  }
  void OnDiskWrite(PageId, uint64_t) override { Inc(disk_writes_); }
  void OnDiskReadRun(PageId, size_t pages, uint64_t) override {
    Inc(disk_reads_);
    disk_pages_read_.fetch_add(pages, std::memory_order_relaxed);
  }
  void OnBufferHit(PageId) override { Inc(buffer_hits_); }
  void OnBufferFault(PageId) override { Inc(buffer_faults_); }
  void OnBufferEviction(PageId, bool) override { Inc(buffer_evictions_); }
  void OnWalFlush(cobra::wal::Lsn, size_t pages, size_t, size_t) override {
    Inc(wal_flushes_);
    wal_pages_.fetch_add(pages, std::memory_order_relaxed);
  }
  void OnCacheHit(cobra::Oid) override { Inc(cache_hits_); }
  void OnCacheMiss(cobra::Oid) override { Inc(cache_misses_); }
  void OnCacheInvalidate(cobra::Oid, PageId) override {
    Inc(cache_invalidations_);
  }
  void OnCachePatch(cobra::Oid, PageId) override { Inc(cache_patches_); }
  void OnCacheEvict(cobra::Oid) override { Inc(cache_evictions_); }

  EventCounts counts() const;

 private:
  static void Inc(std::atomic<uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> disk_reads_{0};
  std::atomic<uint64_t> disk_pages_read_{0};
  std::atomic<uint64_t> disk_writes_{0};
  std::atomic<uint64_t> buffer_hits_{0};
  std::atomic<uint64_t> buffer_faults_{0};
  std::atomic<uint64_t> buffer_evictions_{0};
  std::atomic<uint64_t> wal_flushes_{0};
  std::atomic<uint64_t> wal_pages_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_evictions_{0};
  std::atomic<uint64_t> cache_invalidations_{0};
  std::atomic<uint64_t> cache_patches_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
