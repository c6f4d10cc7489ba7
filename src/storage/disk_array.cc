#include "storage/disk_array.h"

#include <cstdio>
#include <cstdlib>

namespace cobra {

DiskGeometry ValidateGeometry(DiskGeometry geometry) {
  if (geometry.spindles == 0) geometry.spindles = 1;
  if (geometry.stripe_width == 0) geometry.stripe_width = 1;
  if (geometry.placement == PlacementKind::kClustered &&
      geometry.spindles > 1 && geometry.clustered_pages_per_spindle == 0) {
    std::fprintf(stderr,
                 "DiskArray: clustered placement over %u spindles requires "
                 "clustered_pages_per_spindle > 0\n",
                 geometry.spindles);
    std::abort();
  }
  return geometry;
}

namespace {

DiskOptions WithGeometry(DiskOptions options, DiskGeometry geometry) {
  options.geometry = ValidateGeometry(geometry);
  return options;
}

}  // namespace

DiskArray::DiskArray(DiskGeometry geometry, DiskOptions options)
    : SimulatedDisk(WithGeometry(options, geometry)) {}

}  // namespace cobra
