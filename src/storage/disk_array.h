// DiskArray: the array-aware face of SimulatedDisk.
//
// SimulatedDisk already carries the per-spindle mechanics (placement, one
// arm + DiskStats per spindle) so that decorators like FaultInjectingDisk
// inherit them for free.  DiskArray is the constructor-validated entry
// point experiments use when they mean "an N-spindle array": it rejects
// inconsistent geometry up front (instead of silently degenerating).

#ifndef COBRA_STORAGE_DISK_ARRAY_H_
#define COBRA_STORAGE_DISK_ARRAY_H_

#include "storage/disk.h"

namespace cobra {

// Normalizes and validates an array geometry: zero spindle/stripe counts
// become 1; clustered placement with spindles > 1 requires
// clustered_pages_per_spindle > 0 (there is no sane default — the extent
// size is workload-dependent).  Aborts on violation: geometry is
// experiment configuration, not runtime input.
DiskGeometry ValidateGeometry(DiskGeometry geometry);

class DiskArray : public SimulatedDisk {
 public:
  explicit DiskArray(DiskGeometry geometry, DiskOptions options = {});
};

}  // namespace cobra

#endif  // COBRA_STORAGE_DISK_ARRAY_H_
