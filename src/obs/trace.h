// TraceRecorder: bounded event recorder + Chrome trace_event exporter.
//
// The recorder plugs into all three engine hooks — AssemblyObserver,
// DiskEventListener, BufferEventListener — stamps every event with an
// injectable clock, and keeps the last `capacity` events in a ring buffer
// (overflow drops the *oldest* events and counts them, so a long run always
// retains its tail).
//
// Export renders Chrome's trace_event JSON (the `{"traceEvents": [...]}`
// object form), loadable in about:tracing or https://ui.perfetto.dev:
//
//   * one lane (tid) per assembly *window slot*, so W concurrent complex
//     objects appear as W horizontal tracks: an "assemble #id" span from
//     admit to emit/abort, with nested fetch / shared-hit / prebuilt-hit
//     spans showing where the slot's time went;
//   * a "disk" lane of read/write instants (args: page, seek distance);
//   * a "buffer" lane of hit/fault/eviction instants.
//
// Durations: execution is single-threaded, so the work attributed to an
// assembly event is the wall time since the *previous* assembly event; a
// fetch span therefore covers its disk I/O and swizzling.

#ifndef COBRA_OBS_TRACE_H_
#define COBRA_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "cache/cache_events.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "storage/disk.h"
#include "wal/wal_events.h"

namespace cobra::obs {

struct TraceEvent {
  enum class Kind {
    kAdmit,
    kFetch,
    kSharedHit,
    kPrebuiltHit,
    kAbort,
    kEmit,
    kDrop,
    kDiskRead,
    kDiskWrite,
    kBufferHit,
    kBufferFault,
    kBufferEviction,
    // A group-commit batch became durable.  Field reuse: complex_id is the
    // durable LSN, run_pages the log pages written, seek_pages the record
    // count, page the byte count.
    kWalFlush,
    // Assembled-object cache outcomes.  `oid` is the root (or, for a patch,
    // the patched component); invalidate/patch carry the written page.
    kCacheHit,
    kCacheMiss,
    kCacheInvalidate,
    kCachePatch,
  };

  Kind kind;
  uint64_t ts_ns = 0;   // completion time
  uint64_t dur_ns = 0;  // attributed work (0 for instants)
  uint64_t complex_id = 0;
  Oid oid = kInvalidOid;
  PageId page = kInvalidPageId;
  uint64_t seek_pages = 0;
  // Pages transferred by a kDiskRead (> 1 for a coalesced vectored run;
  // the exporter renders those as run-sized slices instead of instants).
  uint64_t run_pages = 1;
  // Originating query for disk events (obs::CurrentQueryId() at record
  // time); 0 when no query context was established.
  uint64_t query_id = 0;
  // Serving spindle for disk events (always 0 on a single-spindle device).
  uint32_t spindle = 0;
  int lane = -1;  // window-slot index for assembly events, else -1
};

const char* TraceEventKindName(TraceEvent::Kind kind);

class TraceRecorder : public AssemblyObserver,
                      public DiskEventListener,
                      public BufferEventListener,
                      public wal::WalEventListener,
                      public cache::CacheEventListener {
 public:
  explicit TraceRecorder(const Clock* clock = nullptr,
                         size_t capacity = 65536);

  // AssemblyObserver.
  void OnEvent(const AssemblyEvent& event) override;
  // DiskEventListener.  Stamps the serving spindle on the event; disk
  // slices gain a "spindle" arg once any event arrives from a spindle > 0
  // (single-spindle traces keep their historical shape).
  void OnDiskIo(const IoEvent& event) override;
  // BufferEventListener.
  void OnBufferHit(PageId page) override;
  void OnBufferFault(PageId page) override;
  void OnBufferEviction(PageId page, bool dirty) override;
  // wal::WalEventListener.  Renders as a "wal-flush" slice in its own lane
  // (one microsecond per log page, like disk-read-run).
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override;
  // cache::CacheEventListener.  Hit/miss slices carry the current query id
  // (like disk events) so traces tag which query the outcome belongs to.
  void OnCacheHit(Oid root) override;
  void OnCacheMiss(Oid root) override;
  void OnCacheInvalidate(Oid root, PageId page) override;
  void OnCachePatch(Oid oid, PageId page) override;

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  // Events that fell off the front of the ring.
  uint64_t dropped() const { return dropped_; }
  // Highest window-slot lane ever used + 1.
  int num_lanes() const { return num_lanes_; }

  // Retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  void Clear();

  // Chrome trace_event export.
  JsonValue ToChromeTrace() const;
  std::string ToChromeTraceJson() const { return ToChromeTrace().Dump(2); }
  Status WriteTo(const std::string& path) const {
    return WriteJsonFile(path, ToChromeTrace());
  }

 private:
  struct LiveComplex {
    int lane = 0;
    uint64_t admit_ns = 0;
  };

  void Push(TraceEvent event);
  // Lowest free lane; lanes are recycled so W slots yield W lanes.
  int AcquireLane();

  const Clock* clock_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // index of the oldest retained event
  size_t size_ = 0;
  uint64_t dropped_ = 0;

  std::unordered_map<uint64_t, LiveComplex> live_;
  std::vector<bool> lane_in_use_;
  int num_lanes_ = 0;
  uint64_t last_assembly_ns_ = 0;
  bool saw_assembly_event_ = false;
  // True once any disk event arrived from a spindle > 0; gates the
  // "spindle" arg in the export so single-spindle traces are unchanged.
  bool saw_multi_spindle_ = false;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_TRACE_H_
