#include "obs/trace.h"

#include <algorithm>

#include "obs/query_context.h"

namespace cobra::obs {
namespace {

// Fixed tids for the non-window lanes; window slots start at kFirstSlotTid.
constexpr int kDiskTid = 1;
constexpr int kBufferTid = 2;
constexpr int kWalTid = 3;
constexpr int kCacheTid = 4;
constexpr int kFirstSlotTid = 10;

}  // namespace

const char* TraceEventKindName(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAdmit: return "admit";
    case TraceEvent::Kind::kFetch: return "fetch";
    case TraceEvent::Kind::kSharedHit: return "shared-hit";
    case TraceEvent::Kind::kPrebuiltHit: return "prebuilt-hit";
    case TraceEvent::Kind::kAbort: return "abort";
    case TraceEvent::Kind::kEmit: return "emit";
    case TraceEvent::Kind::kDrop: return "drop";
    case TraceEvent::Kind::kDiskRead: return "disk-read";
    case TraceEvent::Kind::kDiskWrite: return "disk-write";
    case TraceEvent::Kind::kBufferHit: return "buffer-hit";
    case TraceEvent::Kind::kBufferFault: return "buffer-fault";
    case TraceEvent::Kind::kBufferEviction: return "buffer-eviction";
    case TraceEvent::Kind::kWalFlush: return "wal-flush";
    case TraceEvent::Kind::kCacheHit: return "cache-hit";
    case TraceEvent::Kind::kCacheMiss: return "cache-miss";
    case TraceEvent::Kind::kCacheInvalidate: return "cache-invalidate";
    case TraceEvent::Kind::kCachePatch: return "cache-patch";
  }
  return "?";
}

TraceRecorder::TraceRecorder(const Clock* clock, size_t capacity)
    : clock_(OrDefault(clock)), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min(capacity_, size_t{4096}));
}

void TraceRecorder::Push(TraceEvent event) {
  if (size_ < capacity_) {
    size_t pos = (head_ + size_) % capacity_;
    if (pos == ring_.size()) {
      ring_.push_back(event);
    } else {
      ring_[pos] = event;
    }
    ++size_;
  } else {
    // Full: overwrite (and drop) the oldest event, keep the tail.
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

int TraceRecorder::AcquireLane() {
  for (size_t i = 0; i < lane_in_use_.size(); ++i) {
    if (!lane_in_use_[i]) {
      lane_in_use_[i] = true;
      return static_cast<int>(i);
    }
  }
  lane_in_use_.push_back(true);
  num_lanes_ = std::max(num_lanes_, static_cast<int>(lane_in_use_.size()));
  return static_cast<int>(lane_in_use_.size()) - 1;
}

void TraceRecorder::OnEvent(const AssemblyEvent& event) {
  uint64_t now = clock_->NowNanos();
  uint64_t worked =
      saw_assembly_event_ && now > last_assembly_ns_ ? now - last_assembly_ns_
                                                     : 0;
  saw_assembly_event_ = true;
  last_assembly_ns_ = now;

  TraceEvent out;
  out.ts_ns = now;
  out.complex_id = event.complex_id;
  out.oid = event.oid;
  out.page = event.page;

  switch (event.kind) {
    case AssemblyEvent::Kind::kAdmit: {
      out.kind = TraceEvent::Kind::kAdmit;
      LiveComplex live{AcquireLane(), now};
      out.lane = live.lane;
      live_[event.complex_id] = live;
      break;
    }
    case AssemblyEvent::Kind::kFetch:
    case AssemblyEvent::Kind::kSharedHit:
    case AssemblyEvent::Kind::kPrebuiltHit: {
      out.kind = event.kind == AssemblyEvent::Kind::kFetch
                     ? TraceEvent::Kind::kFetch
                     : event.kind == AssemblyEvent::Kind::kSharedHit
                           ? TraceEvent::Kind::kSharedHit
                           : TraceEvent::Kind::kPrebuiltHit;
      out.dur_ns = worked;
      auto it = live_.find(event.complex_id);
      // Shared-owned fetches carry complex_id 0; they draw on lane -1 and
      // the exporter files them under the disk lane's sibling track.
      out.lane = it != live_.end() ? it->second.lane : -1;
      break;
    }
    case AssemblyEvent::Kind::kAbort:
    case AssemblyEvent::Kind::kEmit:
    case AssemblyEvent::Kind::kDrop: {
      out.kind = event.kind == AssemblyEvent::Kind::kAbort
                     ? TraceEvent::Kind::kAbort
                     : event.kind == AssemblyEvent::Kind::kEmit
                           ? TraceEvent::Kind::kEmit
                           : TraceEvent::Kind::kDrop;
      auto it = live_.find(event.complex_id);
      if (it != live_.end()) {
        out.lane = it->second.lane;
        out.dur_ns = now > it->second.admit_ns ? now - it->second.admit_ns : 0;
        lane_in_use_[static_cast<size_t>(it->second.lane)] = false;
        live_.erase(it);
      }
      break;
    }
  }
  Push(out);
}

void TraceRecorder::OnDiskIo(const IoEvent& event) {
  if (event.spindle > 0) saw_multi_spindle_ = true;
  TraceEvent out;
  out.kind = event.is_read() ? TraceEvent::Kind::kDiskRead
                             : TraceEvent::Kind::kDiskWrite;
  out.ts_ns = clock_->NowNanos();
  out.page = event.entry;
  out.seek_pages = event.seek_pages;
  out.run_pages = event.pages;
  out.query_id = CurrentQueryId();
  out.spindle = event.spindle;
  Push(out);
}

void TraceRecorder::OnBufferHit(PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferHit;
  out.ts_ns = clock_->NowNanos();
  out.page = page;
  Push(out);
}

void TraceRecorder::OnBufferFault(PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferFault;
  out.ts_ns = clock_->NowNanos();
  out.page = page;
  Push(out);
}

void TraceRecorder::OnBufferEviction(PageId page, bool dirty) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferEviction;
  out.ts_ns = clock_->NowNanos();
  out.page = page;
  out.seek_pages = dirty ? 1 : 0;  // reuse the field: 1 = dirty write-back
  Push(out);
}

void TraceRecorder::OnWalFlush(wal::Lsn durable_lsn, size_t pages,
                               size_t bytes, size_t records) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kWalFlush;
  out.ts_ns = clock_->NowNanos();
  out.complex_id = durable_lsn;
  out.run_pages = pages == 0 ? 1 : pages;
  out.seek_pages = records;
  out.page = bytes;
  Push(out);
}

void TraceRecorder::OnCacheHit(Oid root) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kCacheHit;
  out.ts_ns = clock_->NowNanos();
  out.oid = root;
  out.query_id = CurrentQueryId();
  Push(out);
}

void TraceRecorder::OnCacheMiss(Oid root) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kCacheMiss;
  out.ts_ns = clock_->NowNanos();
  out.oid = root;
  out.query_id = CurrentQueryId();
  Push(out);
}

void TraceRecorder::OnCacheInvalidate(Oid root, PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kCacheInvalidate;
  out.ts_ns = clock_->NowNanos();
  out.oid = root;
  out.page = page;
  Push(out);
}

void TraceRecorder::OnCachePatch(Oid oid, PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kCachePatch;
  out.ts_ns = clock_->NowNanos();
  out.oid = oid;
  out.page = page;
  Push(out);
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void TraceRecorder::Clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  live_.clear();
  lane_in_use_.clear();
  num_lanes_ = 0;
  saw_assembly_event_ = false;
  saw_multi_spindle_ = false;
}

JsonValue TraceRecorder::ToChromeTrace() const {
  JsonValue events = JsonValue::MakeArray();

  auto meta = [&](int tid, const std::string& name) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("ph", "M");
    m.Set("pid", 1);
    m.Set("tid", tid);
    m.Set("name", "thread_name");
    JsonValue args = JsonValue::MakeObject();
    args.Set("name", name);
    m.Set("args", std::move(args));
    events.Append(std::move(m));
  };
  meta(kDiskTid, "disk");
  meta(kBufferTid, "buffer");
  meta(kWalTid, "wal");
  meta(kCacheTid, "cache");
  for (int lane = 0; lane < num_lanes_; ++lane) {
    meta(kFirstSlotTid + lane, "window slot " + std::to_string(lane));
  }

  auto micros = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };

  for (size_t i = 0; i < size_; ++i) {
    const TraceEvent& event = ring_[(head_ + i) % capacity_];
    JsonValue e = JsonValue::MakeObject();
    e.Set("pid", 1);
    JsonValue args = JsonValue::MakeObject();
    switch (event.kind) {
      case TraceEvent::Kind::kAdmit:
        e.Set("name", "admit");
        e.Set("ph", "i");
        e.Set("s", "t");  // thread-scoped instant
        e.Set("tid", kFirstSlotTid + std::max(event.lane, 0));
        e.Set("ts", micros(event.ts_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        break;
      case TraceEvent::Kind::kFetch:
      case TraceEvent::Kind::kSharedHit:
      case TraceEvent::Kind::kPrebuiltHit:
        e.Set("name", TraceEventKindName(event.kind));
        e.Set("ph", "X");
        // Shared-owned work (lane -1) gets its own track next to the slots.
        e.Set("tid", event.lane >= 0 ? kFirstSlotTid + event.lane
                                     : kFirstSlotTid - 1);
        e.Set("ts", micros(event.ts_ns - event.dur_ns));
        e.Set("dur", micros(event.dur_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        if (event.page != kInvalidPageId) args.Set("page", event.page);
        break;
      case TraceEvent::Kind::kAbort:
      case TraceEvent::Kind::kEmit:
      case TraceEvent::Kind::kDrop:
        // The whole slot occupancy as one span, admit -> completion.
        e.Set("name", event.kind == TraceEvent::Kind::kEmit
                          ? "assemble"
                          : event.kind == TraceEvent::Kind::kAbort
                                ? "assemble (aborted)"
                                : "assemble (dropped: read error)");
        e.Set("ph", "X");
        e.Set("tid", kFirstSlotTid + std::max(event.lane, 0));
        e.Set("ts", micros(event.ts_ns - event.dur_ns));
        e.Set("dur", micros(event.dur_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        break;
      case TraceEvent::Kind::kDiskRead:
      case TraceEvent::Kind::kDiskWrite:
        e.Set("tid", kDiskTid);
        if (event.kind == TraceEvent::Kind::kDiskRead &&
            event.run_pages > 1) {
          // Coalesced runs render as slices sized by their page count (one
          // microsecond per page — the simulated disk has no wall-clock
          // transfer time) so vectored transfers are visually distinct from
          // the single-page instants around them.
          e.Set("name", "disk-read-run");
          e.Set("ph", "X");
          e.Set("ts", micros(event.ts_ns));
          e.Set("dur", static_cast<double>(event.run_pages));
          args.Set("pages", event.run_pages);
        } else {
          e.Set("name", TraceEventKindName(event.kind));
          e.Set("ph", "i");
          e.Set("s", "t");
          e.Set("ts", micros(event.ts_ns));
        }
        args.Set("page", event.page);
        args.Set("seek_pages", event.seek_pages);
        args.Set("query", event.query_id);
        if (saw_multi_spindle_) args.Set("spindle", event.spindle);
        break;
      case TraceEvent::Kind::kBufferHit:
      case TraceEvent::Kind::kBufferFault:
      case TraceEvent::Kind::kBufferEviction:
        e.Set("name", TraceEventKindName(event.kind));
        e.Set("ph", "i");
        e.Set("s", "t");
        e.Set("tid", kBufferTid);
        e.Set("ts", micros(event.ts_ns));
        args.Set("page", event.page);
        if (event.kind == TraceEvent::Kind::kBufferEviction) {
          args.Set("dirty", event.seek_pages != 0);
        }
        break;
      case TraceEvent::Kind::kWalFlush:
        // One slice per group-commit batch, sized by its log pages (one
        // microsecond per page, as for disk-read-run: the simulated disk
        // has no wall-clock transfer time).
        e.Set("name", "wal-flush");
        e.Set("ph", "X");
        e.Set("tid", kWalTid);
        e.Set("ts", micros(event.ts_ns));
        e.Set("dur", static_cast<double>(event.run_pages));
        args.Set("durable_lsn", event.complex_id);
        args.Set("pages", event.run_pages);
        args.Set("records", event.seek_pages);
        args.Set("bytes", event.page);
        break;
      case TraceEvent::Kind::kCacheHit:
      case TraceEvent::Kind::kCacheMiss:
      case TraceEvent::Kind::kCacheInvalidate:
      case TraceEvent::Kind::kCachePatch:
        e.Set("name", TraceEventKindName(event.kind));
        e.Set("ph", "i");
        e.Set("s", "t");
        e.Set("tid", kCacheTid);
        e.Set("ts", micros(event.ts_ns));
        args.Set("oid", event.oid);
        if (event.page != kInvalidPageId) args.Set("page", event.page);
        if (event.kind == TraceEvent::Kind::kCacheHit ||
            event.kind == TraceEvent::Kind::kCacheMiss) {
          args.Set("query", event.query_id);
        }
        break;
    }
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }

  JsonValue trace = JsonValue::MakeObject();
  trace.Set("traceEvents", std::move(events));
  trace.Set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::MakeObject();
  other.Set("dropped_events", dropped_);
  trace.Set("otherData", std::move(other));
  return trace;
}

}  // namespace cobra::obs
