#include "layers.h"

#include <fstream>

namespace perfbench {

using cobra::obs::CurrentQueryId;
using cobra::obs::SpanNowNanos;

namespace {

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

void Add(std::atomic<uint64_t>& counter, uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kIo:
      return "io";
    case SpanKind::kCpu:
      return "cpu";
    case SpanKind::kDeviceRead:
      return "device-read";
    case SpanKind::kDeviceWrite:
      return "device-write";
    case SpanKind::kLogWrite:
      return "log-write";
    case SpanKind::kDirectoryLookup:
      return "directory-lookup";
    case SpanKind::kCommit:
      return "commit";
  }
  return "?";
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const size_t n = recorded();
  uint64_t origin = UINT64_MAX;
  for (size_t i = 0; i < n; ++i) {
    if (spans_[i].start_ns < origin) origin = spans_[i].start_ns;
  }
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%llu}}\n",
                  i == 0 ? "" : ",", SpanKindName(s.kind),
                  static_cast<unsigned>(s.kind),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<unsigned long long>(s.query));
    out << line;
  }
  out << "],\"otherData\":{\"dropped_spans\":" << dropped() << "}}\n";
  return static_cast<bool>(out);
}

cobra::Status TimedDisk::ReadPage(PageId id, std::byte* out) {
  const uint64_t start = SpanNowNanos();
  cobra::Status status = backing_->ReadPage(id, out);
  const uint64_t end = SpanNowNanos();
  Add(read_calls_, 1);
  Add(pages_read_, 1);
  Add(read_ns_, end - start);
  spans_->Record(SpanKind::kDeviceRead, CurrentQueryId(), start, end);
  return status;
}

cobra::RunReadResult TimedDisk::ReadRun(PageId first, size_t n,
                                        bool ascending,
                                        std::byte* const* outs) {
  const uint64_t start = SpanNowNanos();
  cobra::RunReadResult result = backing_->ReadRun(first, n, ascending, outs);
  const uint64_t end = SpanNowNanos();
  Add(read_calls_, 1);
  Add(pages_read_, result.pages_ok);
  Add(read_ns_, end - start);
  spans_->Record(SpanKind::kDeviceRead, CurrentQueryId(), start, end);
  return result;
}

cobra::Status TimedDisk::WritePage(PageId id, const std::byte* data) {
  const uint64_t start = SpanNowNanos();
  cobra::Status status = backing_->WritePage(id, data);
  const uint64_t end = SpanNowNanos();
  const bool log = log_first_ != cobra::kInvalidPageId && id >= log_first_ &&
                   id - log_first_ < log_pages_;
  if (log) {
    Add(log_write_calls_, 1);
    Add(log_write_ns_, end - start);
  } else {
    Add(write_calls_, 1);
    Add(write_ns_, end - start);
  }
  spans_->Record(log ? SpanKind::kLogWrite : SpanKind::kDeviceWrite,
                 CurrentQueryId(), start, end);
  return status;
}

TimedDisk::Counts TimedDisk::counts() const {
  Counts c;
  c.read_calls = Load(read_calls_);
  c.pages_read = Load(pages_read_);
  c.read_ns = Load(read_ns_);
  c.write_calls = Load(write_calls_);
  c.write_ns = Load(write_ns_);
  c.log_write_calls = Load(log_write_calls_);
  c.log_write_ns = Load(log_write_ns_);
  return c;
}

cobra::Result<cobra::RecordId> TimedDirectory::Lookup(cobra::Oid oid) const {
  const uint64_t start = SpanNowNanos();
  cobra::Result<cobra::RecordId> location = inner_->Lookup(oid);
  const uint64_t end = SpanNowNanos();
  Add(lookups_, 1);
  Add(lookup_ns_, end - start);
  spans_->Record(SpanKind::kDirectoryLookup, CurrentQueryId(), start, end);
  return location;
}

EventCounts CountingListener::counts() const {
  EventCounts c;
  c.disk_reads = Load(disk_reads_);
  c.disk_pages_read = Load(disk_pages_read_);
  c.disk_writes = Load(disk_writes_);
  c.buffer_hits = Load(buffer_hits_);
  c.buffer_faults = Load(buffer_faults_);
  c.buffer_evictions = Load(buffer_evictions_);
  c.wal_flushes = Load(wal_flushes_);
  c.wal_pages = Load(wal_pages_);
  c.cache_hits = Load(cache_hits_);
  c.cache_misses = Load(cache_misses_);
  c.cache_evictions = Load(cache_evictions_);
  c.cache_invalidations = Load(cache_invalidations_);
  c.cache_patches = Load(cache_patches_);
  return c;
}

}  // namespace perfbench
