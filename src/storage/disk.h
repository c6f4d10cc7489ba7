// SimulatedDisk: the measurement substrate for every experiment.
//
// The paper evaluates the assembly operator on a dedicated disk and reports
// "average seek distance per read, in pages of size 1K bytes" (§6).  We
// reproduce exactly that cost model: the disk tracks a head position (a page
// number); each read or write of page p costs |p - head| pages of seek and
// moves the head to p.  Pages are allocated sparsely so that the oversized
// cluster extents of inter-object clustering (paper Fig. 12) do not cost
// memory for their unused tails.
//
// Multi-spindle arrays: DiskOptions::geometry generalizes the device to N
// spindles with a PlacementPolicy (storage/placement.h) mapping each page
// to a (spindle, offset) slot.  Each spindle has its own arm: a read or
// write of page p costs |offset(p) - arm(spindle(p))| pages and moves only
// that spindle's arm.  Global DiskStats keep their historical meaning
// (every operation is counted once); per-spindle DiskStats are charged at
// the same sites, so the per-spindle sums equal the global counters exactly
// — the same conservation shape as per-query attribution.  With the default
// 1-spindle geometry, offset == page and the array is bit-identical to the
// historical single-disk device.
//
// Threading: the data-plane entry points (ReadPage, WritePage, Exists,
// AddSeekPenalty, SubmitRead) serialize on an internal mutex so concurrent
// clients — the sharded buffer pool, the AsyncDisk I/O threads — can share
// one device.  The critical section per transfer is short (a memcpy plus
// accounting); cross-spindle parallelism lives in the per-spindle elevator
// threads above (storage/async_disk.h), which overlap their seeks and queue
// service.  head() and spindle_head_page() are lock-free snapshots.
// Everything else (stats, ResetStats, ParkHead, read traces, Save/Load,
// SetLogRegion) is control-plane: call it only while no I/O is in flight.
// Listeners fire under the I/O mutex, on whichever thread performed the
// operation, and must not re-enter the disk.
//
// Attribution: every counter increment (reads, seek pages, pages_read,
// coalesced runs, penalties, injected faults) is also charged to the
// calling thread's obs::QueryContext when one is current, at the same site
// as the global increment — the per-query sums therefore equal the global
// DiskStats exactly (see obs/query_context.h for the conservation rules).

#ifndef COBRA_STORAGE_DISK_H_
#define COBRA_STORAGE_DISK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/placement.h"

namespace cobra {

// |a - b| in pages: the simulated device's cost of moving the head between
// two positions.
inline uint64_t SeekDistancePages(PageId a, PageId b) {
  return a > b ? a - b : b - a;
}

// One step of a SCAN (elevator) sweep over a position-keyed ordered multimap:
// continue in the current direction from `head`, reverse when nothing remains
// ahead.  Returns the entry to serve (end() only when the map is empty) and
// updates `*sweeping_up` in place.  Shared by the per-query ElevatorScheduler
// (assembly/scheduler.cc) and the cross-client ElevatorIoQueue
// (storage/async_disk.cc), which used to duplicate this arithmetic.
template <typename Map>
typename Map::iterator ScanNext(Map& map, PageId head, bool* sweeping_up) {
  if (map.empty()) {
    return map.end();
  }
  if (*sweeping_up) {
    auto it = map.lower_bound(head);
    if (it != map.end()) {
      return it;
    }
    *sweeping_up = false;
  }
  // Sweeping down: the largest key <= head; if none, reverse again.
  auto it = map.upper_bound(head);
  if (it != map.begin()) {
    return std::prev(it);
  }
  *sweeping_up = true;
  return map.begin();
}

struct DiskOptions {
  size_t page_size = 1024;  // The paper's 1 KB pages.
  // Array geometry; the default is the single-spindle device.
  DiskGeometry geometry;
};

// Counters split by operation so that benchmarks can report the paper's
// metric (read seeks / reads) while ignoring database-build writes.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_seek_pages = 0;
  uint64_t write_seek_pages = 0;
  // Vectored-I/O accounting: `reads` counts transfers (one per ReadRun call
  // that moves data), `pages_read` counts pages moved, and `coalesced_runs`
  // counts transfers that moved two or more pages.  All three stay in
  // lockstep with the single-page path (pages_read == reads) until a caller
  // actually coalesces, which keeps the seed goldens bit-identical.
  uint64_t pages_read = 0;
  uint64_t coalesced_runs = 0;

  // The paper's headline metric: average seek distance per read, in pages.
  double AvgSeekPerRead() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(read_seek_pages) /
                            static_cast<double>(reads);
  }

  // Same metric for writes (database builds, dirty write-backs).
  double AvgSeekPerWrite() const {
    return writes == 0 ? 0.0
                       : static_cast<double>(write_seek_pages) /
                             static_cast<double>(writes);
  }
};

// Injected fault categories (storage/faulty_disk.h produces them).
enum class FaultKind {
  kTransientRead,   // read failed, retry may succeed (Status::Unavailable)
  kPermanentBadPage,  // every read of the page fails (Status::Corruption)
  kBitFlip,         // read succeeded but one payload bit was flipped
  kTornPage,        // read succeeded but the page tail was zeroed
  kExtraLatency,    // read succeeded with extra seek-pages cost charged
  kTransientWrite,  // write failed, retry may succeed (Status::Unavailable)
  kTornWrite,       // write "succeeded" but only the page head hit the disk
};

inline constexpr int kNumFaultKinds = 7;

const char* FaultKindName(FaultKind kind);

// Outcome of a vectored read.  `pages_ok` is the length of the successfully
// transferred prefix *in transfer order* (from the entry page toward the far
// end of the run); `status` is OK only when the whole run transferred.  A
// faulty or missing page terminates the run: pages before it are good, the
// error names the failure, and pages after it were never touched.
struct RunReadResult {
  size_t pages_ok = 0;
  Status status = Status::OK();
};

// One disk transfer, as the listener sees it: which spindle served it, which
// pages moved in which direction, and how far the arm travelled.  A
// single-page ReadPage/WritePage is a run of 1.  A ReadRun transfer reports
// the pages that actually moved (a fault or missing page cuts the run), and
// on an array a run that crosses a stripe seam is reported once, from its
// entry page's spindle.
struct IoEvent {
  enum class Kind : uint8_t { kRead, kWrite };

  Kind kind = Kind::kRead;
  uint32_t spindle = 0;
  // First page in transfer order: the lowest page of an ascending run, the
  // highest of a descending one.
  PageId entry = 0;
  size_t pages = 1;
  bool ascending = true;
  // Total arm travel of the transfer (positioning seek plus one page per
  // further page).
  uint64_t seek_pages = 0;

  bool is_read() const { return kind == Kind::kRead; }
  // The i-th page in transfer order, 0 <= i < pages.
  PageId PageAt(size_t i) const { return ascending ? entry + i : entry - i; }
};

// Telemetry hook: the disk fires OnDiskIo once per transfer, after the seek
// is charged, and OnDiskFault when a fault-injecting disk sabotages a read.
// Implementations must not touch the disk re-entrantly.
class DiskEventListener {
 public:
  virtual ~DiskEventListener() = default;
  // The default routes to the three hooks below, which perfbench's counting
  // listener still overrides; in-tree sinks override this one instead.
  virtual void OnDiskIo(const IoEvent& event) {
    if (event.is_read()) {
      OnDiskReadRun(event.entry, event.pages, event.seek_pages);
    } else {
      OnDiskWrite(event.entry, event.seek_pages);
    }
  }
  // Default no-op so sinks that ignore faults need no override.
  virtual void OnDiskFault(PageId, FaultKind) {}

  // Kept only for perfbench/src/layers.h, which cannot change outside a
  // benchmark change; drop all three with it (see ROADMAP.md).
  virtual void OnDiskRead(PageId, uint64_t) {}
  virtual void OnDiskWrite(PageId, uint64_t) {}
  virtual void OnDiskReadRun(PageId first_page, size_t, uint64_t seek_pages) {
    OnDiskRead(first_page, seek_pages);
  }
};

class SimulatedDisk {
 public:
  explicit SimulatedDisk(DiskOptions options = {});
  virtual ~SimulatedDisk() = default;

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  size_t page_size() const { return options_.page_size; }

  // Reads page `id` into `out` (which must hold page_size() bytes).
  // Returns NotFound for a page that was never written.  Virtual so a
  // fault-injecting decorator (storage/faulty_disk.h) can sabotage reads
  // and an async front-end (storage/async_disk.h) can queue them.
  virtual Status ReadPage(PageId id, std::byte* out);

  // Writes page `id` from `data` (page_size() bytes), allocating it if new.
  virtual Status WritePage(PageId id, const std::byte* data);

  // Vectored read of the consecutive run [first, first + n).  `outs[i]`
  // receives page `first + i` and must hold page_size() bytes.  The transfer
  // enters at the run end matching `ascending` (first page when ascending,
  // last when descending) and moves the head sequentially across the run, so
  // the cost is one positioning seek of |entry - head| pages plus one page of
  // travel per additional page — on either sweep direction the head travels
  // exactly as far as n single-page SCAN reads would, but the device serves
  // it as ONE transfer (stats().reads += 1, pages_read += n).  On an array,
  // a run that crosses a stripe seam is served as one device transfer per
  // same-spindle segment (each segment pays its spindle's positioning seek
  // and counts one read); upper layers split runs at seams so this is the
  // uncommon path.  A missing or faulty page splits the run per
  // RunReadResult; its seek cost (if any) is still charged, and untouched
  // trailing pages cost nothing.  n == 1 is accounting-identical to
  // ReadPage.
  virtual RunReadResult ReadRun(PageId first, size_t n, bool ascending,
                                std::byte* const* outs);

  // Asynchronous read: the base implementation executes synchronously and
  // returns an already-satisfied future; AsyncDisk queues the request and
  // completes it from its I/O thread.  `out` must stay valid until the
  // future is ready.  The buffer pool's prefetch path is built on this.
  virtual std::shared_future<Status> SubmitRead(PageId id, std::byte* out);

  // Charges extra seek-page cost to the read (or write) counters without
  // moving the head: models time the device spends not seeking — retry
  // backoff, injected rotational latency — in the paper's cost unit.
  // The page-less form charges the spindle currently under the global head;
  // AddSeekPenaltyAt charges the spindle that holds `near_page` (callers
  // that know which page the penalty belongs to should use it, so the
  // per-spindle accounting stays faithful on an array).  Identical on a
  // 1-spindle device.
  virtual void AddSeekPenalty(uint64_t pages, bool is_read);
  virtual void AddSeekPenaltyAt(PageId near_page, uint64_t pages,
                                bool is_read);

  virtual bool Exists(PageId id) const {
    std::lock_guard<std::mutex> lock(io_mu_);
    return pages_.contains(id);
  }

  // Number of pages ever written (allocated), not the address-space span.
  size_t allocated_pages() const { return pages_.size(); }

  // Largest page id ever written + 1; 0 if the disk is empty.  This is the
  // address-space span that seeks can range over.
  PageId page_span() const { return span_; }

  // Lock-free head snapshot: the page most recently served by any spindle.
  // Virtual so AsyncDisk can report the backing device's head (the elevator
  // schedulers order fetches by it).
  virtual PageId head() const { return head_.load(std::memory_order_relaxed); }

  // --- Array geometry --------------------------------------------------

  const DiskGeometry& geometry() const { return placement_.geometry(); }

  // Virtual so AsyncDisk forwards to its backing device: callers that hold
  // the decorator (buffer pool, elevator queues) see the real geometry.
  virtual uint32_t num_spindles() const { return placement_.spindles(); }
  virtual uint32_t SpindleOf(PageId id) const {
    return ResolveSlot(id).spindle;
  }

  // Lock-free: the page most recently served by spindle `s` (the SCAN head
  // of that spindle's elevator).  Parked pages count as served.
  virtual PageId spindle_head_page(uint32_t s) const {
    return spindles_[s].head_page.load(std::memory_order_relaxed);
  }

  // Control-plane snapshot of one spindle's counters.  The per-spindle
  // sums over all spindles equal stats() field by field.
  virtual DiskStats spindle_stats(uint32_t s) const {
    return spindles_[s].stats;
  }

  // Places the log extent [first, first + pages) on a fixed spindle,
  // overriding the placement policy (the WAL's dedicated-log-spindle mode:
  // group-commit flushes stop contending with data-page arms).  The extent
  // must lie past every data page (the WAL allocates it past page_span()),
  // which keeps each spindle's page order == offset order invariant intact.
  // Control-plane; call before the measured run.  No-op on 1 spindle.
  void SetLogRegion(PageId first, size_t pages, uint32_t spindle);

  // Repositions every arm without charging a seek: `id`'s spindle parks at
  // `id`'s offset, every other spindle at offset 0.  Experiments call this
  // to start each run from a well-defined head position (the paper assumes
  // exclusive control of the device).
  void ParkHead(PageId id);

  const DiskStats& stats() const { return stats_; }
  void ResetStats();

  // Persists the disk image (all allocated pages) to a host file, and loads
  // it back.  Statistics and head position are not part of the image.
  // Format: magic, page size, page count, then (page id, payload) records.
  Status SaveTo(const std::string& path) const;
  static Result<std::unique_ptr<SimulatedDisk>> LoadFrom(
      const std::string& path);

  // Optional read trace: when enabled, records the page id of every read in
  // order, and in parallel the seek distance each read was charged
  // (seek_trace).  Tests use the page trace to assert scheduler fetch
  // orders; the seek trace feeds the seek histogram on arrays, where
  // consecutive-page distance no longer equals charged arm travel.
  void EnableReadTrace(bool enabled) {
    trace_enabled_ = enabled;
    read_trace_.clear();
    seek_trace_.clear();
  }
  const std::vector<PageId>& read_trace() const { return read_trace_; }
  const std::vector<uint64_t>& seek_trace() const { return seek_trace_; }

  // Optional telemetry listener (borrowed; must outlive the disk or be
  // cleared).  Null disables the hook — the only cost on the I/O path is
  // one pointer test.
  void set_listener(DiskEventListener* listener) { listener_ = listener; }

 protected:
  // Fires the fault hook on the attached listener (if any) and charges the
  // fault to the current query context.  For fault-injecting subclasses —
  // the single funnel every injected fault kind passes through.
  void NotifyFault(PageId page, FaultKind kind);

  // Per-page sabotage hook for vectored reads, called by ReadRun under
  // io_mu_ after each page's payload lands in its output buffer.  The
  // default injects nothing.  FaultInjectingDisk overrides it to apply the
  // same deterministic per-(page, attempt) fault schedule the single-page
  // path uses; implementations must only take leaf locks (never io_mu_) and
  // report latency-style costs through `*penalty_pages` instead of calling
  // AddSeekPenalty.
  virtual Status InjectRunPageFault(PageId id, std::byte* out,
                                    uint64_t* penalty_pages) {
    (void)id;
    (void)out;
    (void)penalty_pages;
    return Status::OK();
  }

 protected:
  // Unlocked implementations, for subclasses that already hold io_mu_.
  Status ReadPageLocked(PageId id, std::byte* out);
  Status WritePageLocked(PageId id, const std::byte* data);
  void AddSeekPenaltyLocked(uint64_t pages, bool is_read);
  void AddSeekPenaltyAtLocked(PageId near_page, uint64_t pages, bool is_read);

  // Serializes the data-plane (page map, stats, trace, listener calls).
  mutable std::mutex io_mu_;

 private:
  // One arm per spindle.  `head_offset` is the arm position in the
  // spindle's own offset space (what seeks are measured against);
  // `head_page` is the logical page the arm last served, for the
  // per-spindle SCAN schedulers.
  struct SpindleState {
    PageId head_offset = 0;
    std::atomic<PageId> head_page{0};
    DiskStats stats;
  };

  // Placement plus the log-region override.
  SpindleSlot ResolveSlot(PageId id) const;

  // Charges one read/write of `id` to its spindle and the globals; moves
  // that spindle's arm.  Returns the charged distance.
  uint64_t ChargeSeek(PageId id, bool is_read);

  DiskOptions options_;
  PlacementPolicy placement_;
  std::unordered_map<PageId, std::vector<std::byte>> pages_;
  std::atomic<PageId> head_{0};
  PageId span_ = 0;
  DiskStats stats_;
  std::vector<SpindleState> spindles_;
  // Log-region override (SetLogRegion); kInvalidPageId = none.
  PageId log_first_ = kInvalidPageId;
  size_t log_pages_ = 0;
  uint32_t log_spindle_ = 0;
  bool trace_enabled_ = false;
  std::vector<PageId> read_trace_;
  std::vector<uint64_t> seek_trace_;
  DiskEventListener* listener_ = nullptr;
};

}  // namespace cobra

#endif  // COBRA_STORAGE_DISK_H_
