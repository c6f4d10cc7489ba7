// Cache event hooks, split from object_cache.h so observability code
// (obs/trace.h) can listen to the cache without pulling the whole cache —
// mirroring DiskEventListener / BufferEventListener.
//
// All callbacks fire under the cache's internal mutex; listeners must not
// call back into the cache.  Sinks shared with other event sources go
// behind one obs::TelemetryHub, which serializes them.

#ifndef COBRA_CACHE_CACHE_EVENTS_H_
#define COBRA_CACHE_CACHE_EVENTS_H_

#include "object/oid.h"
#include "storage/placement.h"

namespace cobra::cache {

class CacheEventListener {
 public:
  virtual ~CacheEventListener() = default;
  // A lookup found the assembled object resident.
  virtual void OnCacheHit(Oid /*root*/) {}
  // A lookup missed (the caller will assemble and usually insert).
  virtual void OnCacheMiss(Oid /*root*/) {}
  // A committed write to `page` dropped the entry rooted at `root`.
  virtual void OnCacheInvalidate(Oid /*root*/, PageId /*page*/) {}
  // A committed scalar update to `oid` (stored on `page`) was patched into
  // the resident copies instead of invalidating them.
  virtual void OnCachePatch(Oid /*oid*/, PageId /*page*/) {}
  // Replacement evicted the entry rooted at `root` to make room.
  virtual void OnCacheEvict(Oid /*root*/) {}
};

}  // namespace cobra::cache

#endif  // COBRA_CACHE_CACHE_EVENTS_H_
