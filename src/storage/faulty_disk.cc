#include "storage/faulty_disk.h"

#include <cstring>
#include <string>
#include <vector>

#include "storage/checksum.h"

namespace cobra {
namespace {

// splitmix64 finalizer: a full-avalanche mix of the inputs.
uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t FaultInjectingDisk::Mix(PageId id, uint64_t attempt,
                                 uint64_t salt) const {
  uint64_t h = SplitMix(profile_.seed ^ SplitMix(id));
  h = SplitMix(h ^ SplitMix(attempt ^ (salt << 56)));
  return h;
}

double FaultInjectingDisk::Draw(PageId id, uint64_t attempt,
                                uint64_t salt) const {
  // 53 mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Mix(id, attempt, salt) >> 11) * 0x1.0p-53;
}

Status FaultInjectingDisk::CheckDegraded(PageId id) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (degraded_spindle_ < 0 ||
      SpindleOf(id) != static_cast<uint32_t>(degraded_spindle_)) {
    return Status::OK();
  }
  fault_stats_.degraded_reads++;
  NotifyFault(id, FaultKind::kPermanentBadPage);
  return Status::Corruption("spindle " + std::to_string(degraded_spindle_) +
                            " degraded: cannot read page " +
                            std::to_string(id));
}

FaultInjectingDisk::WriteVerdict FaultInjectingDisk::DrawWriteFault(
    PageId id) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  // A crash scoped to one spindle only governs that spindle's writes; the
  // rest of the array neither counts toward the crash point nor fails.
  const bool crash_in_scope =
      crash_armed_ &&
      (crash_spindle_ < 0 ||
       SpindleOf(id) == static_cast<uint32_t>(crash_spindle_));
  // The crash point outranks the probabilistic profile: once the power is
  // cut nothing else gets a say, and the crash-matrix sweep stays stable
  // whether or not a profile is also armed.
  if (crash_in_scope) {
    if (crash_triggered_) {
      return WriteVerdict::kCrashed;
    }
    if (writes_survived_ >= crash_after_writes_) {
      crash_triggered_ = true;
      return crash_mode_ == CrashWriteMode::kTornWrite
                 ? WriteVerdict::kCrashTorn
                 : WriteVerdict::kCrashed;
    }
  }
  const bool fault_in_scope =
      fault_spindle_ < 0 ||
      SpindleOf(id) == static_cast<uint32_t>(fault_spindle_);
  if (enabled_ && fault_in_scope) {
    uint64_t attempt = ++write_attempts_[id];
    if (profile_.transient_write_fail > 0.0 &&
        Draw(id, attempt, 6) < profile_.transient_write_fail) {
      fault_stats_.transient_write_failures++;
      NotifyFault(id, FaultKind::kTransientWrite);
      return WriteVerdict::kReject;
    }
    if (profile_.torn_write > 0.0 &&
        Draw(id, attempt, 7) < profile_.torn_write) {
      fault_stats_.torn_writes++;
      NotifyFault(id, FaultKind::kTornWrite);
      if (crash_in_scope) writes_survived_++;
      return WriteVerdict::kTorn;
    }
  }
  if (crash_in_scope) writes_survived_++;
  return WriteVerdict::kNone;
}

Status FaultInjectingDisk::WritePage(PageId id, const std::byte* data) {
  WriteVerdict verdict = DrawWriteFault(id);
  switch (verdict) {
    case WriteVerdict::kNone:
      return SimulatedDisk::WritePage(id, data);
    case WriteVerdict::kReject:
      return Status::Unavailable("injected transient write failure on page " +
                                 std::to_string(id));
    case WriteVerdict::kTorn:
    case WriteVerdict::kCrashTorn: {
      // Only the head half reaches the platter; the tail reads back as
      // zeros.  Page checksums catch this on the next read.
      std::vector<std::byte> torn(page_size(), std::byte{0});
      std::memcpy(torn.data(), data, page_size() / 2);
      Status status = SimulatedDisk::WritePage(id, torn.data());
      if (verdict == WriteVerdict::kTorn) {
        return status;
      }
      return Status::Unavailable("simulated crash: disk offline");
    }
    case WriteVerdict::kCrashed:
      return Status::Unavailable("simulated crash: disk offline");
  }
  return Status::Internal("unreachable");
}

Status FaultInjectingDisk::InjectRunPageFault(PageId id, std::byte* out,
                                              uint64_t* penalty_pages) {
  Status degraded = CheckDegraded(id);
  if (!degraded.ok()) {
    return degraded;
  }
  if (!enabled_) {
    return Status::OK();
  }
  return DrawPageFault(id, out, penalty_pages);
}

Status FaultInjectingDisk::DrawPageFault(PageId id, std::byte* out,
                                         uint64_t* penalty_pages) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  // Out-of-scope pages skip the attempt draw entirely: scoping faults to
  // one spindle leaves the in-scope schedule byte-identical.
  if (fault_spindle_ >= 0 &&
      SpindleOf(id) != static_cast<uint32_t>(fault_spindle_)) {
    return Status::OK();
  }
  uint64_t attempt = ++attempts_[id];

  // Permanent bad page: decided once per page (attempt-independent), fails
  // every read, so retries cannot recover it.
  if (profile_.permanent_page_fail > 0.0 &&
      Draw(id, 0, 0) < profile_.permanent_page_fail) {
    fault_stats_.permanent_failures++;
    NotifyFault(id, FaultKind::kPermanentBadPage);
    return Status::Corruption("injected permanent failure on page " +
                              std::to_string(id));
  }

  // Transient failure: per-attempt, so a retry re-draws and may succeed.
  if (profile_.transient_read_fail > 0.0 &&
      Draw(id, attempt, 1) < profile_.transient_read_fail) {
    fault_stats_.transient_failures++;
    NotifyFault(id, FaultKind::kTransientRead);
    return Status::Unavailable("injected transient read failure on page " +
                               std::to_string(id));
  }

  // Extra latency: the read succeeds but costs more (charged in the paper's
  // seek-pages unit).  Can co-occur with corruption below.
  if (profile_.extra_latency > 0.0 &&
      Draw(id, attempt, 2) < profile_.extra_latency) {
    fault_stats_.latency_injections++;
    *penalty_pages += profile_.latency_seek_pages;
    NotifyFault(id, FaultKind::kExtraLatency);
  }

  // Corruption of the returned copy.  Offsets stay clear of the page's
  // checksum field so every injected corruption is detectable.
  size_t ps = page_size();
  if (profile_.bit_flip > 0.0 && Draw(id, attempt, 3) < profile_.bit_flip) {
    uint64_t h = Mix(id, attempt, 4);
    size_t offset = kPageChecksumSize + (h % (ps - kPageChecksumSize));
    out[offset] ^= static_cast<std::byte>(1u << ((h >> 32) % 8));
    fault_stats_.bit_flips++;
    NotifyFault(id, FaultKind::kBitFlip);
  } else if (profile_.torn_page > 0.0 &&
             Draw(id, attempt, 5) < profile_.torn_page) {
    // Torn page: the tail half never made it; reads back as zeros.
    for (size_t i = ps / 2; i < ps; ++i) {
      out[i] = std::byte{0};
    }
    fault_stats_.torn_pages++;
    NotifyFault(id, FaultKind::kTornPage);
  }
  return Status::OK();
}

}  // namespace cobra
