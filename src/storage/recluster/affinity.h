// AffinitySketch: the online learner of the re-clustering loop.
//
// The paper's fig13 result says layout is destiny: an inter-object-
// clustered database assembles with ~1 page of head travel per read while
// an unclustered one pays hundreds.  To converge a bad layout toward a
// good one at runtime we need to know, from telemetry alone, which pages
// the workload wants adjacent.  That signal already exists: the per-query
// attribution stream (PR 6) tags every disk read with the issuing query,
// and consecutive reads *of one query* are exactly the page pairs the
// assembly scheduler wanted contiguous — the elevator drains each query's
// outstanding references in logical-page order, so the observed per-query
// fault sequence is the layout-independent "ideal sweep" of that query.
//
// The sketch ingests (query, logical page, seek distance, run length)
// events and accumulates *directed* edge weights between consecutively
// faulted pages of the same query.  Weights favor pairs observed inside
// long vectored runs (they are already proven co-fetchable) and discount
// pairs the head had to travel far between (an edge spanning a long seek
// is precisely the adjacency the current layout fails to serve — still
// affinity, but noisier, since distance correlates with unrelated
// interleavings on a shared arm):
//
//     weight += (1 + log2(1 + run_length)) / (1 + log2(1 + seek_pages))
//
// The sketch is bounded: when the edge map outgrows `max_edges`, every
// weight is halved and edges decayed below 1/4 are dropped (lossy
// counting).  Hot edges survive arbitrarily long histories; one-off
// co-accesses age out.  All methods are thread-safe — the disk fires its
// listener from per-spindle I/O threads.
//
// AffinityDiskListener adapts the DiskEventListener hook: the disk
// reports *physical* addresses, so it inverse-translates through the
// forwarding table back to logical ids (affinity must be learned in
// logical space or every completed move would invalidate the model) and
// reads the issuing query from the ambient obs context, which the
// AsyncDisk I/O threads re-establish per request.

#pragma once

#include <cmath>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <utility>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/query_context.h"
#include "storage/disk.h"
#include "storage/recluster/forwarding.h"

namespace cobra::recluster {

struct AffinityOptions {
  // Edge-map capacity; exceeding it halves all weights and drops decayed
  // edges.
  size_t max_edges = 1 << 16;
};

struct AffinityEdge {
  PageId from = kInvalidPageId;
  PageId to = kInvalidPageId;
  double weight = 0.0;
};

class AffinitySketch {
 public:
  explicit AffinitySketch(AffinityOptions options = {})
      : options_(options) {}
  AffinitySketch(const AffinitySketch&) = delete;
  AffinitySketch& operator=(const AffinitySketch&) = delete;

  // One disk read of `logical` by `query_id`, `seek_pages` of head travel
  // since the arm's previous position, inside a vectored transfer of
  // `run_length` pages (1 for a single-page read).
  void ObserveRead(uint64_t query_id, PageId logical, uint64_t seek_pages,
                   size_t run_length) {
    std::lock_guard<std::mutex> lock(mu_);
    ++observations_;
    pages_.insert(logical);
    auto [it, fresh] = last_page_.try_emplace(query_id, logical);
    if (!fresh) {
      PageId prev = it->second;
      it->second = logical;
      if (prev != logical) {
        double bonus = 1.0 + std::log2(1.0 + static_cast<double>(run_length));
        double discount =
            1.0 + std::log2(1.0 + static_cast<double>(seek_pages));
        edges_[PackEdge(prev, logical)] += bonus / discount;
        if (edges_.size() > options_.max_edges) DecayLocked();
      }
    }
  }

  // Forgets per-query cursor state (call between epochs so the last page
  // of one sweep does not chain to the first page of the next).
  void EndEpoch() {
    std::lock_guard<std::mutex> lock(mu_);
    last_page_.clear();
  }

  std::vector<AffinityEdge> Edges() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<AffinityEdge> out;
    out.reserve(edges_.size());
    for (const auto& [key, weight] : edges_) {
      out.push_back(AffinityEdge{key.first, key.second, weight});
    }
    return out;
  }

  size_t edge_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return edges_.size();
  }
  size_t pages_observed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pages_.size();
  }
  uint64_t observations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return observations_;
  }
  double occupancy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return options_.max_edges == 0
               ? 0.0
               : static_cast<double>(edges_.size()) /
                     static_cast<double>(options_.max_edges);
  }
  uint64_t decays() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decays_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    edges_.clear();
    last_page_.clear();
    pages_.clear();
    observations_ = 0;
    decays_ = 0;
  }

 private:
  struct PairHash {
    size_t operator()(const std::pair<PageId, PageId>& p) const {
      // splitmix64-style mix of the two ids.
      uint64_t x = p.first * 0x9e3779b97f4a7c15ull + p.second;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x * 0x94d049bb133111ebull);
    }
  };
  static std::pair<PageId, PageId> PackEdge(PageId from, PageId to) {
    return {from, to};
  }

  // Lossy-counting decay: halve everything, drop what faded out.  Caller
  // holds mu_.
  void DecayLocked() {
    ++decays_;
    for (auto it = edges_.begin(); it != edges_.end();) {
      it->second *= 0.5;
      it = it->second < 0.25 ? edges_.erase(it) : std::next(it);
    }
  }

  mutable std::mutex mu_;
  AffinityOptions options_;
  std::unordered_map<std::pair<PageId, PageId>, double, PairHash> edges_;
  std::unordered_map<uint64_t, PageId> last_page_;  // query -> last logical
  std::unordered_set<PageId> pages_;
  uint64_t observations_ = 0;
  uint64_t decays_ = 0;
};

// Feeds the sketch from the disk's event stream.  Attach it as the disk
// listener, or add it to an obs::TelemetryHub next to other sinks;
// thread-safe.
class AffinityDiskListener : public DiskEventListener {
 public:
  AffinityDiskListener(AffinitySketch* sketch,
                       const PageForwarding* forwarding)
      : sketch_(sketch), forwarding_(forwarding) {}

  // Every page of a vectored transfer is a proven-contiguous co-access, in
  // transfer order; the seek cost belongs to reaching the entry page only.
  void OnDiskIo(const IoEvent& event) override {
    if (!event.is_read()) return;
    for (size_t i = 0; i < event.pages; ++i) {
      Observe(event.PageAt(i), i == 0 ? event.seek_pages : 0, event.pages);
    }
  }

 private:
  void Observe(PageId physical, uint64_t seek_pages, size_t run_length) {
    PageId logical = forwarding_ == nullptr
                         ? physical
                         : forwarding_->ToLogical(physical);
    sketch_->ObserveRead(obs::CurrentQueryId(), logical, seek_pages,
                         run_length);
  }

  AffinitySketch* sketch_;
  const PageForwarding* forwarding_;
};

}  // namespace cobra::recluster
