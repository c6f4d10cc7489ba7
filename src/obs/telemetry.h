// Registry publisher and listener fan-out: how engine components publish
// into an obs::Registry.
//
// The engine exposes three narrow hook interfaces (AssemblyObserver,
// DiskEventListener, BufferEventListener) that cost one null-checked
// pointer test per event when nothing is attached.  RegistryPublisher
// implements all three and turns the event stream into named registry
// instruments, so SimulatedDisk, BufferManager and AssemblyOperator publish
// metrics without depending on the obs layer themselves:
//
//   counters    disk.reads, disk.writes, disk.faults.<kind>,
//               buffer.hits, buffer.faults, buffer.evictions,
//               buffer.dirty_evictions, buffer.retries,
//               buffer.checksum_failures,
//               assembly.admitted, assembly.emitted, assembly.aborted,
//               assembly.objects_dropped, assembly.fetches,
//               assembly.shared_hits, assembly.prebuilt_hits
//   gauges      assembly.window_occupancy, assembly.pool_size (+ max)
//   histograms  disk.seek_distance, disk.write_seek_distance,
//               assembly.window_occupancy.dist, assembly.pool_size.dist,
//               assembly.fetch_latency_ns
//
// TelemetryHub fans one hook slot out to any number of sinks, so a bench
// can attach a RegistryPublisher *and* a TraceRecorder to the same disk.  It
// serializes every event under one mutex, so sinks that are not thread-safe
// themselves can be shared by the service's workers, the per-spindle I/O
// threads and the group-commit daemon.

#ifndef COBRA_OBS_TELEMETRY_H_
#define COBRA_OBS_TELEMETRY_H_

#include <mutex>
#include <type_traits>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "cache/cache_events.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/disk.h"
#include "wal/wal_events.h"

namespace cobra::obs {

class RegistryPublisher : public AssemblyObserver,
                          public DiskEventListener,
                          public BufferEventListener,
                          public wal::WalEventListener {
 public:
  // Binds all instruments eagerly; `registry` must outlive the publisher.
  // The clock feeds the per-fetch latency histogram.
  explicit RegistryPublisher(Registry* registry,
                             const Clock* clock = nullptr);

  void OnEvent(const AssemblyEvent& event) override;
  // One disk.reads / disk.seek_distance sample per read transfer and one
  // disk.writes / disk.write_seek_distance sample per write, whatever the
  // run length.  Two groups of instruments bind lazily so that workloads
  // without the feature keep the historical registry shape bit-identical:
  //   * io.coalesced_runs, io.run_length and io.pages_per_read bind on the
  //     first read of >= 2 pages; from then on every read also feeds
  //     io.pages_per_read;
  //   * disk.s<k>.{reads,writes,read_seek_pages,write_seek_pages} bind on
  //     the first event from a spindle > 0.  Spindle 0 is backfilled from
  //     the global instruments at that moment (every earlier event was
  //     spindle 0), so the per-spindle sums equal the globals from the
  //     start.  A run is counted once, on its entry spindle.
  void OnDiskIo(const IoEvent& event) override;
  void OnDiskFault(PageId page, FaultKind kind) override;
  void OnBufferHit(PageId page) override;
  void OnBufferFault(PageId page) override;
  void OnBufferEviction(PageId page, bool dirty) override;
  void OnBufferRetry(PageId page, int attempt) override;
  void OnBufferChecksumFailure(PageId page) override;
  // Publishes wal.flushes / wal.records / wal.pages / wal.bytes and the
  // wal.batch_records distribution.  Instruments bind lazily on the first
  // flush so WAL-free runs keep the historical registry shape.  Fired by
  // the group-commit daemon thread: like every publisher hook, calls must
  // be externally serialized against other registry users (see
  // TelemetryHub).
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override;

 private:
  // Creates the io.* instruments on first use (see OnDiskIo).
  void BindRunInstruments();

  // Starts per-spindle tracking: backfills spindle 0 from the global
  // instruments, then EnsureSpindleSlot creates disk.s<k>.* counters as
  // spindles appear.
  void BindSpindleTracking();
  void EnsureSpindleSlot(uint32_t spindle);

  Registry* registry_;
  const Clock* clock_;

  Counter* disk_reads_;
  Counter* disk_writes_;
  Histogram* seek_distance_;
  Histogram* write_seek_distance_;
  // One counter per FaultKind, indexed by the enum value.  The read-side
  // kinds bind eagerly (historical registry shape); the write-side kinds
  // (transient-write, torn-write) bind lazily on first occurrence so
  // read-only workloads keep golden-identical registries.
  Counter* disk_faults_[kNumFaultKinds];

  Counter* buffer_hits_;
  Counter* buffer_faults_;
  Counter* buffer_evictions_;
  Counter* buffer_dirty_evictions_;
  Counter* buffer_retries_;
  Counter* buffer_checksum_failures_;

  Counter* admitted_;
  Counter* emitted_;
  Counter* aborted_;
  Counter* dropped_;
  Counter* fetches_;
  Counter* shared_hits_;
  Counter* prebuilt_hits_;
  Gauge* window_occupancy_;
  Gauge* pool_size_;
  Histogram* window_occupancy_dist_;
  Histogram* pool_size_dist_;
  Histogram* fetch_latency_ns_;

  // Lazily bound vectored-I/O instruments; null until the first multi-page
  // run event so single-page workloads keep the historical registry shape.
  Counter* io_coalesced_runs_ = nullptr;
  Histogram* io_run_length_ = nullptr;
  Histogram* io_pages_per_read_ = nullptr;

  // Lazily bound per-spindle counters, indexed by spindle; empty until the
  // first event from a spindle > 0 (see OnDiskIo).
  bool spindle_tracking_ = false;
  std::vector<Counter*> spindle_reads_;
  std::vector<Counter*> spindle_writes_;
  std::vector<Counter*> spindle_read_seek_;
  std::vector<Counter*> spindle_write_seek_;

  // Lazily bound WAL instruments; null until the first group-commit flush.
  Counter* wal_flushes_ = nullptr;
  Counter* wal_records_ = nullptr;
  Counter* wal_pages_ = nullptr;
  Counter* wal_bytes_ = nullptr;
  Histogram* wal_batch_records_ = nullptr;

  uint64_t last_assembly_ns_ = 0;
  bool saw_assembly_event_ = false;
};

// Forwards each event to every registered sink, in registration order,
// under one mutex.  Register every sink before attaching the hub to an
// event source: Add itself is not synchronized with events.
class TelemetryHub : public AssemblyObserver,
                     public DiskEventListener,
                     public BufferEventListener,
                     public wal::WalEventListener,
                     public cache::CacheEventListener {
 public:
  // Registers `sink` with every hook interface it implements.
  template <typename Sink>
  void Add(Sink* sink) {
    if constexpr (std::is_base_of_v<AssemblyObserver, Sink>) {
      assembly_.push_back(sink);
    }
    if constexpr (std::is_base_of_v<DiskEventListener, Sink>) {
      disk_.push_back(sink);
    }
    if constexpr (std::is_base_of_v<BufferEventListener, Sink>) {
      buffer_.push_back(sink);
    }
    if constexpr (std::is_base_of_v<wal::WalEventListener, Sink>) {
      wal_.push_back(sink);
    }
    if constexpr (std::is_base_of_v<cache::CacheEventListener, Sink>) {
      cache_.push_back(sink);
    }
  }

  void OnEvent(const AssemblyEvent& event) override {
    Forward(assembly_, [&](AssemblyObserver* s) { s->OnEvent(event); });
  }
  void OnDiskIo(const IoEvent& event) override {
    Forward(disk_, [&](DiskEventListener* s) { s->OnDiskIo(event); });
  }
  void OnDiskFault(PageId page, FaultKind kind) override {
    Forward(disk_, [&](DiskEventListener* s) { s->OnDiskFault(page, kind); });
  }
  void OnBufferHit(PageId page) override {
    Forward(buffer_, [&](BufferEventListener* s) { s->OnBufferHit(page); });
  }
  void OnBufferFault(PageId page) override {
    Forward(buffer_, [&](BufferEventListener* s) { s->OnBufferFault(page); });
  }
  void OnBufferEviction(PageId page, bool dirty) override {
    Forward(buffer_, [&](BufferEventListener* s) {
      s->OnBufferEviction(page, dirty);
    });
  }
  void OnBufferRetry(PageId page, int attempt) override {
    Forward(buffer_, [&](BufferEventListener* s) {
      s->OnBufferRetry(page, attempt);
    });
  }
  void OnBufferChecksumFailure(PageId page) override {
    Forward(buffer_, [&](BufferEventListener* s) {
      s->OnBufferChecksumFailure(page);
    });
  }
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override {
    Forward(wal_, [&](wal::WalEventListener* s) {
      s->OnWalFlush(durable_lsn, pages, bytes, records);
    });
  }
  void OnCacheHit(Oid root) override {
    Forward(cache_, [&](cache::CacheEventListener* s) { s->OnCacheHit(root); });
  }
  void OnCacheMiss(Oid root) override {
    Forward(cache_,
            [&](cache::CacheEventListener* s) { s->OnCacheMiss(root); });
  }
  void OnCacheInvalidate(Oid root, PageId page) override {
    Forward(cache_, [&](cache::CacheEventListener* s) {
      s->OnCacheInvalidate(root, page);
    });
  }
  void OnCachePatch(Oid oid, PageId page) override {
    Forward(cache_, [&](cache::CacheEventListener* s) {
      s->OnCachePatch(oid, page);
    });
  }
  void OnCacheEvict(Oid root) override {
    Forward(cache_,
            [&](cache::CacheEventListener* s) { s->OnCacheEvict(root); });
  }

 private:
  template <typename Sink, typename Fn>
  void Forward(const std::vector<Sink*>& sinks, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Sink* sink : sinks) fn(sink);
  }

  // Held across every sink call: the sinks' own state is what it guards.
  // The lists below are fixed before the hub is attached.
  std::mutex mu_;
  std::vector<AssemblyObserver*> assembly_;
  std::vector<DiskEventListener*> disk_;
  std::vector<BufferEventListener*> buffer_;
  std::vector<wal::WalEventListener*> wal_;
  std::vector<cache::CacheEventListener*> cache_;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_TELEMETRY_H_
