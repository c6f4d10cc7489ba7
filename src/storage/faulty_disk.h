// FaultInjectingDisk: a SimulatedDisk whose reads misbehave on a seeded,
// deterministic schedule.
//
// The assembly operator reorders reads aggressively across a window of
// partially assembled objects — exactly the setting where one bad page or
// dangling OID must not crash the engine or silently corrupt a result set.
// This decorator exercises every error path above it:
//
//   * transient read failures  — Status::Unavailable; the buffer manager's
//     RetryPolicy may recover them;
//   * permanent bad pages      — a deterministically chosen subset of pages
//     fails every read with Status::Corruption;
//   * bit flips / torn pages   — the read "succeeds" but the returned bytes
//     are corrupted; page checksums (storage/checksum.h) catch them;
//   * extra latency            — the read succeeds but charges extra
//     seek-page cost to the read's spindle.
//
// Every read fault is injected through the base disk's per-page hook
// (InjectRunPageFault), which ReadRun calls; a page read is a run of one.
//
// Corruption is applied to the returned copy only; the stored page stays
// pristine, so a retried read re-draws its fault independently.  Every
// decision is a pure function of (seed, page, per-page attempt number):
// identical seeds produce identical fault schedules, which is what makes
// the stress tests reproducible.
//
// Injection starts disarmed so database builds run clean; call
// set_enabled(true) before the measured run.

#ifndef COBRA_STORAGE_FAULTY_DISK_H_
#define COBRA_STORAGE_FAULTY_DISK_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "storage/disk.h"

namespace cobra {

// Per-category injection rates.  All probabilities are in [0, 1] and are
// evaluated per read attempt, except permanent_page_fail which is evaluated
// once per page (a page is either always bad or never bad).
struct FaultProfile {
  uint64_t seed = 0;
  double transient_read_fail = 0.0;
  double permanent_page_fail = 0.0;
  double bit_flip = 0.0;
  double torn_page = 0.0;
  double extra_latency = 0.0;
  // Write-path faults.  A transient write failure rejects the write with
  // Status::Unavailable before touching the platter (the retrying caller —
  // buffer write-back, WAL group commit — re-draws).  A torn write
  // "succeeds" but persists only the first half of the page; the page
  // checksum catches it on the next read.
  double transient_write_fail = 0.0;
  double torn_write = 0.0;
  // Seek-pages charged when an extra-latency fault fires.
  uint64_t latency_seek_pages = 32;

  bool any() const {
    return transient_read_fail > 0.0 || permanent_page_fail > 0.0 ||
           bit_flip > 0.0 || torn_page > 0.0 || extra_latency > 0.0 ||
           transient_write_fail > 0.0 || torn_write > 0.0;
  }

  // The canonical mixed profile the benches' `--faults <seed>` flag enables:
  // a little of everything, heavy enough to exercise retries and drops but
  // light enough that most of the workload survives.
  static FaultProfile Mixed(uint64_t seed) {
    FaultProfile p;
    p.seed = seed;
    p.transient_read_fail = 0.02;
    p.permanent_page_fail = 0.001;
    p.bit_flip = 0.002;
    p.torn_page = 0.001;
    p.extra_latency = 0.01;
    return p;
  }
};

struct FaultStats {
  uint64_t transient_failures = 0;
  uint64_t permanent_failures = 0;
  uint64_t bit_flips = 0;
  uint64_t torn_pages = 0;
  uint64_t latency_injections = 0;
  uint64_t transient_write_failures = 0;
  uint64_t torn_writes = 0;
  // Reads rejected because their spindle is marked degraded
  // (set_degraded_spindle); not part of the probabilistic profile.
  uint64_t degraded_reads = 0;

  uint64_t total() const {
    return transient_failures + permanent_failures + bit_flips + torn_pages +
           latency_injections + transient_write_failures + torn_writes +
           degraded_reads;
  }
};

// How the scheduled crash point treats the write that trips it.
enum class CrashWriteMode {
  kDropWrite,  // the page never reaches the platter
  kTornWrite,  // only the first half of the page reaches the platter
};

class FaultInjectingDisk : public SimulatedDisk {
 public:
  explicit FaultInjectingDisk(FaultProfile profile, DiskOptions options = {})
      : SimulatedDisk(options), profile_(profile) {}

  Status WritePage(PageId id, const std::byte* data) override;

  // Arms / disarms injection.  Disarmed, the disk behaves exactly like the
  // base SimulatedDisk (the only cost is one branch per read).  A scheduled
  // crash point (below) is independent of this switch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  const FaultProfile& profile() const { return profile_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  // --- Per-spindle fault scoping (disk arrays) -------------------------
  //
  // Restricts the probabilistic profile to one spindle's pages (-1 = all
  // spindles, the default).  Out-of-scope pages skip their attempt-number
  // draw entirely, so scoping does not perturb the in-scope schedule.
  void set_fault_spindle(int spindle) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_spindle_ = spindle;
  }

  // Marks one spindle as failed (-1 = none): every read of a page it holds
  // returns Status::Corruption and counts fault_stats().degraded_reads,
  // regardless of set_enabled().  Composes with the assembly layer's
  // kSkipObject degraded mode — objects resident on the dead spindle drop,
  // the rest of the workload completes.  Writes are unaffected (the page
  // map is shared; re-written pages still fail to read back).
  void set_degraded_spindle(int spindle) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    degraded_spindle_ = spindle;
  }

  // --- Deterministic crash points -------------------------------------
  //
  // ScheduleCrash(n, mode) arms a power-cut after `n` further successful
  // page writes: the (n+1)-th write is the crash write — dropped entirely
  // (kDropWrite) or persisted half-torn (kTornWrite) — and it plus every
  // subsequent write returns Status::Unavailable("simulated crash...").
  // Reads keep working so the recovery test can inspect the "platter"
  // without clearing the crash.  ClearCrash() models the restart.
  //
  // The crash-matrix test sweeps n over every write boundary of a
  // workload, in both modes, and asserts recovery invariants at each.
  //
  // `spindle` scopes the power cut to one spindle of an array (-1 = whole
  // device, the historical behavior): writes to other spindles neither
  // count toward `after_writes` nor fail once the cut fires — the model of
  // one enclosure losing power while the rest of the array keeps serving.
  void ScheduleCrash(uint64_t after_writes, CrashWriteMode mode,
                     int spindle = -1) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    crash_armed_ = true;
    crash_triggered_ = false;
    crash_after_writes_ = after_writes;
    crash_mode_ = mode;
    crash_spindle_ = spindle;
    writes_survived_ = 0;
  }

  void ClearCrash() {
    std::lock_guard<std::mutex> lock(fault_mu_);
    crash_armed_ = false;
    crash_triggered_ = false;
  }

  bool crash_triggered() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return crash_triggered_;
  }

  // Successful page writes since the crash was armed (the sweep uses the
  // total from an uncrashed run to enumerate crash points).
  uint64_t writes_survived() const {
    std::lock_guard<std::mutex> lock(fault_mu_);
    return writes_survived_;
  }

  // Clears fault counters AND per-page attempt numbers, so the next run
  // replays the identical fault schedule.  Cold restarts call this.
  void ResetFaultState() {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_stats_ = FaultStats();
    attempts_.clear();
    write_attempts_.clear();
  }

 protected:
  // Read sabotage: ReadRun calls this per page, with the disk's I/O mutex
  // held, for every read (a page read is a run of one).  The draws depend
  // only on (seed, page, attempt), so coalescing a run never changes which
  // faults fire, only how they are delivered (the run splits at the faulty
  // page).
  Status InjectRunPageFault(PageId id, std::byte* out,
                            uint64_t* penalty_pages) override;

 private:
  // The shared fault schedule: draws this page's next attempt under
  // fault_mu_ and applies any fault to `out`.  Latency-style cost is
  // reported through `*penalty_pages`; the caller charges it.
  Status DrawPageFault(PageId id, std::byte* out, uint64_t* penalty_pages);

  // Deterministic uniform double in [0, 1) from (seed, page, attempt, salt).
  double Draw(PageId id, uint64_t attempt, uint64_t salt) const;
  uint64_t Mix(PageId id, uint64_t attempt, uint64_t salt) const;

  // Write-path decision, taken under fault_mu_ before the base write runs.
  // kNone: persist `data` as given.  kTorn: persist a half-torn copy and
  // report success.  kReject / kCrashed: persist nothing, fail the write.
  // kCrashTorn: the crash write itself in kTornWrite mode — persist the
  // half-torn copy, then fail like kCrashed.
  enum class WriteVerdict { kNone, kTorn, kReject, kCrashed, kCrashTorn };
  WriteVerdict DrawWriteFault(PageId id);

  // Degraded-spindle verdict for a read of `id`; OK when the page's
  // spindle is healthy.  Takes fault_mu_.
  Status CheckDegraded(PageId id);

  FaultProfile profile_;
  bool enabled_ = false;
  // Spindle scoping (-1 = unscoped); guarded by fault_mu_ like the rest of
  // the fault state.
  int fault_spindle_ = -1;
  int degraded_spindle_ = -1;
  int crash_spindle_ = -1;
  // Guards attempts_, write_attempts_, fault_stats_ and the crash-point
  // state, so concurrent readers/writers draw from one coherent per-page
  // attempt sequence.  A leaf lock: reads take it under the base class's
  // I/O mutex, writes before taking that mutex, and nothing that could take
  // the I/O mutex is called while it is held (latency penalties are
  // returned to the caller, not charged inline).
  mutable std::mutex fault_mu_;
  std::unordered_map<PageId, uint64_t> attempts_;
  std::unordered_map<PageId, uint64_t> write_attempts_;
  FaultStats fault_stats_;
  // Crash-point state (see ScheduleCrash).
  bool crash_armed_ = false;
  bool crash_triggered_ = false;
  uint64_t crash_after_writes_ = 0;
  uint64_t writes_survived_ = 0;
  CrashWriteMode crash_mode_ = CrashWriteMode::kDropWrite;
};

}  // namespace cobra

#endif  // COBRA_STORAGE_FAULTY_DISK_H_
