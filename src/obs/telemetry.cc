#include "obs/telemetry.h"

#include <string>

namespace cobra::obs {

RegistryPublisher::RegistryPublisher(Registry* registry, const Clock* clock)
    : registry_(registry),
      clock_(OrDefault(clock)),
      disk_reads_(registry->GetCounter("disk.reads")),
      disk_writes_(registry->GetCounter("disk.writes")),
      seek_distance_(registry->GetHistogram("disk.seek_distance")),
      write_seek_distance_(registry->GetHistogram("disk.write_seek_distance")),
      buffer_hits_(registry->GetCounter("buffer.hits")),
      buffer_faults_(registry->GetCounter("buffer.faults")),
      buffer_evictions_(registry->GetCounter("buffer.evictions")),
      buffer_dirty_evictions_(registry->GetCounter("buffer.dirty_evictions")),
      buffer_retries_(registry->GetCounter("buffer.retries")),
      buffer_checksum_failures_(
          registry->GetCounter("buffer.checksum_failures")),
      admitted_(registry->GetCounter("assembly.admitted")),
      emitted_(registry->GetCounter("assembly.emitted")),
      aborted_(registry->GetCounter("assembly.aborted")),
      dropped_(registry->GetCounter("assembly.objects_dropped")),
      fetches_(registry->GetCounter("assembly.fetches")),
      shared_hits_(registry->GetCounter("assembly.shared_hits")),
      prebuilt_hits_(registry->GetCounter("assembly.prebuilt_hits")),
      window_occupancy_(registry->GetGauge("assembly.window_occupancy")),
      pool_size_(registry->GetGauge("assembly.pool_size")),
      window_occupancy_dist_(
          registry->GetHistogram("assembly.window_occupancy.dist")),
      pool_size_dist_(registry->GetHistogram("assembly.pool_size.dist")),
      fetch_latency_ns_(registry->GetHistogram("assembly.fetch_latency_ns")) {
  for (int i = 0; i < kNumFaultKinds; ++i) {
    // Read-side fault counters bind eagerly (the historical shape); the
    // write-side kinds appear only once such a fault actually fires.
    disk_faults_[i] =
        i < 5 ? registry->GetCounter(std::string("disk.faults.") +
                                     FaultKindName(static_cast<FaultKind>(i)))
              : nullptr;
  }
}

void RegistryPublisher::OnEvent(const AssemblyEvent& event) {
  switch (event.kind) {
    case AssemblyEvent::Kind::kAdmit:
      admitted_->Inc();
      break;
    case AssemblyEvent::Kind::kFetch: {
      fetches_->Inc();
      uint64_t now = clock_->NowNanos();
      if (saw_assembly_event_ && now >= last_assembly_ns_) {
        fetch_latency_ns_->Add(now - last_assembly_ns_);
      }
      break;
    }
    case AssemblyEvent::Kind::kSharedHit:
      shared_hits_->Inc();
      break;
    case AssemblyEvent::Kind::kPrebuiltHit:
      prebuilt_hits_->Inc();
      break;
    case AssemblyEvent::Kind::kAbort:
      aborted_->Inc();
      break;
    case AssemblyEvent::Kind::kEmit:
      emitted_->Inc();
      break;
    case AssemblyEvent::Kind::kDrop:
      dropped_->Inc();
      break;
  }
  window_occupancy_->Set(static_cast<int64_t>(event.window_occupancy));
  pool_size_->Set(static_cast<int64_t>(event.pool_size));
  window_occupancy_dist_->Add(event.window_occupancy);
  pool_size_dist_->Add(event.pool_size);
  saw_assembly_event_ = true;
  last_assembly_ns_ = clock_->NowNanos();
}

void RegistryPublisher::BindRunInstruments() {
  io_coalesced_runs_ = registry_->GetCounter("io.coalesced_runs");
  io_run_length_ = registry_->GetHistogram("io.run_length");
  io_pages_per_read_ = registry_->GetHistogram("io.pages_per_read");
}

void RegistryPublisher::BindSpindleTracking() {
  spindle_tracking_ = true;
  // Everything published so far came from spindle 0 (this is the first
  // event from any other spindle, and it has not been counted yet), so the
  // global totals ARE spindle 0's history.  Backfilling here keeps the
  // per-spindle sums equal to the globals from the first sample on.
  EnsureSpindleSlot(0);
  spindle_reads_[0]->Inc(disk_reads_->value());
  spindle_writes_[0]->Inc(disk_writes_->value());
  spindle_read_seek_[0]->Inc(seek_distance_->total());
  spindle_write_seek_[0]->Inc(write_seek_distance_->total());
}

void RegistryPublisher::EnsureSpindleSlot(uint32_t spindle) {
  if (spindle < spindle_reads_.size()) {
    return;
  }
  for (uint32_t k = static_cast<uint32_t>(spindle_reads_.size()); k <= spindle;
       ++k) {
    const std::string prefix = "disk.s" + std::to_string(k) + ".";
    spindle_reads_.push_back(registry_->GetCounter(prefix + "reads"));
    spindle_writes_.push_back(registry_->GetCounter(prefix + "writes"));
    spindle_read_seek_.push_back(
        registry_->GetCounter(prefix + "read_seek_pages"));
    spindle_write_seek_.push_back(
        registry_->GetCounter(prefix + "write_seek_pages"));
  }
}

void RegistryPublisher::OnDiskIo(const IoEvent& event) {
  if (event.spindle > 0 && !spindle_tracking_) {
    BindSpindleTracking();
  }
  if (event.is_read()) {
    disk_reads_->Inc();
    seek_distance_->Add(event.seek_pages);
    if (event.pages >= 2) {
      if (io_coalesced_runs_ == nullptr) {
        BindRunInstruments();
      }
      io_coalesced_runs_->Inc();
      io_run_length_->Add(static_cast<uint64_t>(event.pages));
    }
    if (io_pages_per_read_ != nullptr) {
      io_pages_per_read_->Add(static_cast<uint64_t>(event.pages));
    }
  } else {
    disk_writes_->Inc();
    write_seek_distance_->Add(event.seek_pages);
  }
  if (spindle_tracking_) {
    EnsureSpindleSlot(event.spindle);
    if (event.is_read()) {
      spindle_reads_[event.spindle]->Inc();
      spindle_read_seek_[event.spindle]->Inc(event.seek_pages);
    } else {
      spindle_writes_[event.spindle]->Inc();
      spindle_write_seek_[event.spindle]->Inc(event.seek_pages);
    }
  }
}

void RegistryPublisher::OnDiskFault(PageId, FaultKind kind) {
  const int index = static_cast<int>(kind);
  if (disk_faults_[index] == nullptr) {
    disk_faults_[index] =
        registry_->GetCounter(std::string("disk.faults.") +
                              FaultKindName(kind));
  }
  disk_faults_[index]->Inc();
}

void RegistryPublisher::OnBufferHit(PageId) { buffer_hits_->Inc(); }

void RegistryPublisher::OnBufferFault(PageId) { buffer_faults_->Inc(); }

void RegistryPublisher::OnBufferEviction(PageId, bool dirty) {
  buffer_evictions_->Inc();
  if (dirty) buffer_dirty_evictions_->Inc();
}

void RegistryPublisher::OnBufferRetry(PageId, int) { buffer_retries_->Inc(); }

void RegistryPublisher::OnBufferChecksumFailure(PageId) {
  buffer_checksum_failures_->Inc();
}

void RegistryPublisher::OnWalFlush(wal::Lsn, size_t pages, size_t bytes,
                                   size_t records) {
  if (wal_flushes_ == nullptr) {
    wal_flushes_ = registry_->GetCounter("wal.flushes");
    wal_records_ = registry_->GetCounter("wal.records");
    wal_pages_ = registry_->GetCounter("wal.pages");
    wal_bytes_ = registry_->GetCounter("wal.bytes");
    wal_batch_records_ = registry_->GetHistogram("wal.batch_records");
  }
  wal_flushes_->Inc();
  wal_records_->Inc(records);
  wal_pages_->Inc(pages);
  wal_bytes_->Inc(bytes);
  wal_batch_records_->Add(records);
}

}  // namespace cobra::obs
