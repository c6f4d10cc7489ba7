#include "storage/disk.h"

#include <cstdio>
#include <cstring>

#include "obs/query_context.h"

namespace cobra {
namespace {

constexpr uint64_t kImageMagic = 0xC0B7AD15C0001ULL;

// RAII stdio handle.
struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU64(std::FILE* file, uint64_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}

bool ReadU64(std::FILE* file, uint64_t* value) {
  return std::fread(value, sizeof(*value), 1, file) == 1;
}

// Per-query spindle attribution is clamped to the tracked-array size; an
// array wider than kMaxTrackedSpindles folds the overflow into the last slot.
size_t TrackedSpindle(uint32_t spindle) {
  return spindle < obs::kMaxTrackedSpindles ? spindle
                                            : obs::kMaxTrackedSpindles - 1;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientRead: return "transient-read";
    case FaultKind::kPermanentBadPage: return "permanent-bad-page";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kTornPage: return "torn-page";
    case FaultKind::kExtraLatency: return "extra-latency";
    case FaultKind::kTransientWrite: return "transient-write";
    case FaultKind::kTornWrite: return "torn-write";
  }
  return "unknown";
}

SimulatedDisk::SimulatedDisk(DiskOptions options)
    : options_(options),
      placement_(options.geometry),
      spindles_(placement_.spindles()) {}

SpindleSlot SimulatedDisk::ResolveSlot(PageId id) const {
  if (log_first_ != kInvalidPageId && id >= log_first_ &&
      id - log_first_ < log_pages_) {
    // The log extent lives past every data page, so offset == page keeps the
    // log spindle's page order == offset order.
    return SpindleSlot{log_spindle_, id};
  }
  return placement_.Resolve(id);
}

void SimulatedDisk::SetLogRegion(PageId first, size_t pages, uint32_t spindle) {
  log_first_ = first;
  log_pages_ = pages;
  log_spindle_ =
      spindle < placement_.spindles() ? spindle : placement_.spindles() - 1;
}

void SimulatedDisk::ParkHead(PageId id) {
  const SpindleSlot slot = ResolveSlot(id);
  for (uint32_t s = 0; s < spindles_.size(); ++s) {
    SpindleState& sp = spindles_[s];
    if (s == slot.spindle) {
      sp.head_offset = slot.offset;
      sp.head_page.store(id, std::memory_order_relaxed);
    } else {
      sp.head_offset = 0;
      sp.head_page.store(placement_.PageAt(s, 0), std::memory_order_relaxed);
    }
  }
  head_.store(id, std::memory_order_relaxed);
}

void SimulatedDisk::ResetStats() {
  stats_ = DiskStats{};
  for (SpindleState& sp : spindles_) {
    sp.stats = DiskStats{};
  }
}

uint64_t SimulatedDisk::ChargeSeek(PageId id, bool is_read) {
  const SpindleSlot slot = ResolveSlot(id);
  SpindleState& sp = spindles_[slot.spindle];
  const uint64_t distance = SeekDistancePages(slot.offset, sp.head_offset);
  if (is_read) {
    stats_.reads++;
    stats_.read_seek_pages += distance;
    sp.stats.reads++;
    sp.stats.read_seek_pages += distance;
  } else {
    stats_.writes++;
    stats_.write_seek_pages += distance;
    sp.stats.writes++;
    sp.stats.write_seek_pages += distance;
  }
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    if (is_read) {
      query->io.disk_reads.fetch_add(1, std::memory_order_relaxed);
      query->io.read_seek_pages.fetch_add(distance,
                                          std::memory_order_relaxed);
      const size_t qs = TrackedSpindle(slot.spindle);
      query->io.spindle_reads[qs].fetch_add(1, std::memory_order_relaxed);
      query->io.spindle_seek_pages[qs].fetch_add(distance,
                                                 std::memory_order_relaxed);
      query->Record({obs::SpanEventKind::kDiskRead, 0, 0, id, distance,
                     uint64_t{slot.spindle} + 1});
    } else {
      query->io.disk_writes.fetch_add(1, std::memory_order_relaxed);
      query->io.write_seek_pages.fetch_add(distance,
                                           std::memory_order_relaxed);
      query->Record({obs::SpanEventKind::kDiskWrite, 0, 0, id, distance,
                     uint64_t{slot.spindle} + 1});
    }
  }
  sp.head_offset = slot.offset;
  sp.head_page.store(id, std::memory_order_relaxed);
  head_.store(id, std::memory_order_relaxed);
  if (listener_ != nullptr) {
    listener_->OnDiskIo({.kind = is_read ? IoEvent::Kind::kRead
                                         : IoEvent::Kind::kWrite,
                         .spindle = slot.spindle,
                         .entry = id,
                         .seek_pages = distance});
  }
  return distance;
}

Status SimulatedDisk::ReadPage(PageId id, std::byte* out) {
  std::lock_guard<std::mutex> lock(io_mu_);
  return ReadPageLocked(id, out);
}

Status SimulatedDisk::ReadPageLocked(PageId id, std::byte* out) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id) + " never written");
  }
  const uint64_t distance = ChargeSeek(id, /*is_read=*/true);
  stats_.pages_read++;
  spindles_[ResolveSlot(id).spindle].stats.pages_read++;
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.pages_read.fetch_add(1, std::memory_order_relaxed);
  }
  if (trace_enabled_) {
    read_trace_.push_back(id);
    seek_trace_.push_back(distance);
  }
  std::memcpy(out, it->second.data(), options_.page_size);
  return Status::OK();
}

RunReadResult SimulatedDisk::ReadRun(PageId first, size_t n, bool ascending,
                                     std::byte* const* outs) {
  RunReadResult result;
  if (n == 0) {
    result.status = Status::InvalidArgument("empty run");
    return result;
  }
  if (n - 1 > kInvalidPageId - first) {
    result.status = Status::InvalidArgument("run overflows the page space");
    return result;
  }
  std::lock_guard<std::mutex> lock(io_mu_);
  // The whole transfer is charged to the query that entered it; waiters
  // from other queries piggybacking on the run pay nothing here (see
  // AsyncDisk::ServeRun for their informational counter).
  obs::QueryContext* query = obs::CurrentQuery();
  const PageId entry = ascending ? first : first + (n - 1);
  uint64_t travel = 0;       // head movement only (what the listener reports)
  size_t transferred = 0;    // pages physically moved over the bus
  size_t good = 0;           // usable prefix (transferred minus a faulted tail)
  // On an array a run is served as one device transfer per same-spindle
  // segment: each segment's entry page pays that spindle's positioning seek
  // and counts one read; within a segment the arm moves one page per page.
  // Upper layers split runs at stripe seams, so multi-segment runs are the
  // exception, and on one spindle the whole run is a single segment —
  // accounting-identical to the historical single-disk transfer.
  uint32_t segment_spindle = 0;
  size_t segment_pages = 0;
  auto close_segment = [&] {
    if (segment_pages >= 2) {
      stats_.coalesced_runs++;
      spindles_[segment_spindle].stats.coalesced_runs++;
      if (query != nullptr) {
        query->io.coalesced_runs.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const size_t offset = ascending ? i : n - 1 - i;
    const PageId page = first + offset;
    auto it = pages_.find(page);
    if (it == pages_.end()) {
      result.status =
          Status::NotFound("page " + std::to_string(page) + " never written");
      break;
    }
    const SpindleSlot slot = ResolveSlot(page);
    SpindleState& sp = spindles_[slot.spindle];
    const bool new_segment =
        transferred == 0 || slot.spindle != segment_spindle;
    if (new_segment) {
      close_segment();
      segment_spindle = slot.spindle;
      segment_pages = 0;
      stats_.reads++;
      sp.stats.reads++;
      if (query != nullptr) {
        query->io.disk_reads.fetch_add(1, std::memory_order_relaxed);
        query->io.spindle_reads[TrackedSpindle(slot.spindle)].fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    // Segment entry pays the positioning seek; within a segment consecutive
    // pages sit at consecutive offsets, so this is 1 page of travel each.
    const uint64_t distance = SeekDistancePages(slot.offset, sp.head_offset);
    stats_.read_seek_pages += distance;
    stats_.pages_read++;
    sp.stats.read_seek_pages += distance;
    sp.stats.pages_read++;
    if (query != nullptr) {
      query->io.read_seek_pages.fetch_add(distance,
                                          std::memory_order_relaxed);
      query->io.pages_read.fetch_add(1, std::memory_order_relaxed);
      query->io.spindle_seek_pages[TrackedSpindle(slot.spindle)].fetch_add(
          distance, std::memory_order_relaxed);
    }
    travel += distance;
    sp.head_offset = slot.offset;
    sp.head_page.store(page, std::memory_order_relaxed);
    head_.store(page, std::memory_order_relaxed);
    if (trace_enabled_) {
      read_trace_.push_back(page);
      seek_trace_.push_back(distance);
    }
    std::memcpy(outs[offset], it->second.data(), options_.page_size);
    ++transferred;
    ++segment_pages;
    uint64_t penalty = 0;
    Status injected = InjectRunPageFault(page, outs[offset], &penalty);
    if (penalty > 0) {
      AddSeekPenaltyAtLocked(page, penalty, /*is_read=*/true);
    }
    if (!injected.ok()) {
      // The page was physically visited (seek charged, trace recorded) but
      // its payload is not usable — exclude it from the good prefix, exactly
      // like a failed single-page read.
      result.status = std::move(injected);
      break;
    }
    ++good;
  }
  close_segment();
  result.pages_ok = good;
  if (transferred > 0) {
    if (query != nullptr) {
      query->Record({obs::SpanEventKind::kDiskReadRun, 0, 0, entry, travel,
                     transferred});
    }
    if (listener_ != nullptr) {
      listener_->OnDiskIo({.kind = IoEvent::Kind::kRead,
                           .spindle = ResolveSlot(entry).spindle,
                           .entry = entry,
                           .pages = transferred,
                           .ascending = ascending,
                           .seek_pages = travel});
    }
  }
  return result;
}

void SimulatedDisk::AddSeekPenalty(uint64_t pages, bool is_read) {
  std::lock_guard<std::mutex> lock(io_mu_);
  AddSeekPenaltyLocked(pages, is_read);
}

void SimulatedDisk::AddSeekPenaltyAt(PageId near_page, uint64_t pages,
                                     bool is_read) {
  std::lock_guard<std::mutex> lock(io_mu_);
  AddSeekPenaltyAtLocked(near_page, pages, is_read);
}

void SimulatedDisk::AddSeekPenaltyLocked(uint64_t pages, bool is_read) {
  // No page context: the penalty belongs to whichever spindle served last.
  AddSeekPenaltyAtLocked(head_.load(std::memory_order_relaxed), pages,
                         is_read);
}

void SimulatedDisk::AddSeekPenaltyAtLocked(PageId near_page, uint64_t pages,
                                           bool is_read) {
  const uint32_t spindle = ResolveSlot(near_page).spindle;
  if (is_read) {
    stats_.read_seek_pages += pages;
    spindles_[spindle].stats.read_seek_pages += pages;
  } else {
    stats_.write_seek_pages += pages;
    spindles_[spindle].stats.write_seek_pages += pages;
  }
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    if (is_read) {
      query->io.read_seek_pages.fetch_add(pages, std::memory_order_relaxed);
      query->io.spindle_seek_pages[TrackedSpindle(spindle)].fetch_add(
          pages, std::memory_order_relaxed);
    } else {
      query->io.write_seek_pages.fetch_add(pages, std::memory_order_relaxed);
    }
    query->Record({obs::SpanEventKind::kSeekPenalty, 0, 0, 0, pages,
                   is_read ? uint64_t{0} : uint64_t{1}});
  }
}

void SimulatedDisk::NotifyFault(PageId page, FaultKind kind) {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.faults_injected.fetch_add(1, std::memory_order_relaxed);
    query->Record({obs::SpanEventKind::kFault, 0, 0, page,
                   static_cast<uint64_t>(kind), 0});
  }
  if (listener_ != nullptr) listener_->OnDiskFault(page, kind);
}

std::shared_future<Status> SimulatedDisk::SubmitRead(PageId id,
                                                     std::byte* out) {
  // Synchronous fallback: the "future" is ready before it is returned.
  std::promise<Status> promise;
  promise.set_value(ReadPage(id, out));
  return promise.get_future().share();
}

Status SimulatedDisk::WritePage(PageId id, const std::byte* data) {
  std::lock_guard<std::mutex> lock(io_mu_);
  return WritePageLocked(id, data);
}

Status SimulatedDisk::WritePageLocked(PageId id, const std::byte* data) {
  if (id == kInvalidPageId) {
    return Status::InvalidArgument("cannot write the invalid page id");
  }
  ChargeSeek(id, /*is_read=*/false);
  auto [it, inserted] = pages_.try_emplace(id);
  if (inserted) {
    it->second.resize(options_.page_size);
    if (id + 1 > span_) {
      span_ = id + 1;
    }
  }
  std::memcpy(it->second.data(), data, options_.page_size);
  return Status::OK();
}

Status SimulatedDisk::SaveTo(const std::string& path) const {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  if (!WriteU64(file.get(), kImageMagic) ||
      !WriteU64(file.get(), options_.page_size) ||
      !WriteU64(file.get(), pages_.size())) {
    return Status::Internal("short write to '" + path + "'");
  }
  for (const auto& [id, bytes] : pages_) {
    if (!WriteU64(file.get(), id) ||
        std::fwrite(bytes.data(), 1, bytes.size(), file.get()) !=
            bytes.size()) {
      return Status::Internal("short write to '" + path + "'");
    }
  }
  if (std::fflush(file.get()) != 0) {
    return Status::Internal("flush of '" + path + "' failed");
  }
  return Status::OK();
}

Result<std::unique_ptr<SimulatedDisk>> SimulatedDisk::LoadFrom(
    const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  uint64_t magic = 0;
  uint64_t page_size = 0;
  uint64_t count = 0;
  if (!ReadU64(file.get(), &magic) || magic != kImageMagic) {
    return Status::Corruption("'" + path + "' is not a disk image");
  }
  if (!ReadU64(file.get(), &page_size) || page_size == 0 ||
      page_size > (1u << 20) || !ReadU64(file.get(), &count)) {
    return Status::Corruption("bad disk image header in '" + path + "'");
  }
  auto disk = std::make_unique<SimulatedDisk>(
      DiskOptions{.page_size = page_size, .geometry = {}});
  std::vector<std::byte> buffer(page_size);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!ReadU64(file.get(), &id) ||
        std::fread(buffer.data(), 1, page_size, file.get()) != page_size) {
      return Status::Corruption("truncated disk image '" + path + "'");
    }
    COBRA_RETURN_IF_ERROR(disk->WritePage(id, buffer.data()));
  }
  disk->ResetStats();
  disk->ParkHead(0);
  return disk;
}

}  // namespace cobra
