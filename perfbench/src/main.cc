// cobra_perfbench: COBRA's end-to-end and per-layer benchmark.
//
//   cobra_perfbench --workload scan_cold|scan_shared|zipf_rw --seed N
//                   --seconds S --trace 0|1 [--trace-out PATH]
//
// Every workload runs the paper's largest database (4,000 complex objects
// of 7 components) through the public QueryService API, window 50 with the
// elevator scheduler.  See perfbench/BENCHMARK.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
// --trace 0 builds the database and stack several times (set-up time is
// the median), then measures S seconds with no instrument attached and
// prints the end-to-end metrics.  --trace 1 measures S/2 seconds on a plain
// stack, rebuilds it with the bench-side decorators and listeners
// (layers.h), measures S/2 seconds traced, runs the CPU probes, and prints
// the per-layer metrics.  Either way every delivered object is checked and
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "assembly/naive.h"
#include "buffer/buffer_manager.h"
#include "cache/object_cache.h"
#include "file/heap_file.h"
#include "layers.h"
#include "object/assembled_object.h"
#include "object/object_store.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "storage/checksum.h"
#include "storage/slotted_page.h"
#include "wal/wal.h"
#include "workload/acob.h"

namespace perfbench {
namespace {

using namespace cobra;  // NOLINT: benchmark brevity

constexpr size_t kComplexObjects = 4000;
constexpr size_t kWindowSize = 50;
constexpr size_t kScanQueryRoots = 50;
constexpr size_t kScanSharedClients = 4;
constexpr size_t kScanFrames = 32768;  // holds the whole database
constexpr size_t kZipfReaders = 3;
constexpr size_t kZipfQueryRoots = 16;
constexpr double kZipfTheta = 0.99;
constexpr size_t kZipfFrames = 512;          // ~16% of the data pages
constexpr size_t kZipfCacheEntries = 1024;   // ~25% of the roots
constexpr size_t kZipfWarmQueries = 100;     // per reader, at set-up
constexpr size_t kZipfCheckedRoots = 256;    // hottest ranks, checked after
constexpr uint64_t kCommitPeriodNs = 40'000'000;  // 25 commits/s
constexpr uint64_t kCommitLimitNs = 50'000'000;
constexpr size_t kStructuralEvery = 4;
constexpr PageId kLogGap = 128;
constexpr size_t kLogPages = 4096;  // fixed: never sized to the run
constexpr size_t kSetups = 3;
constexpr size_t kScanColdWarmPasses = 3;
constexpr size_t kScanSharedWarmPasses = 1;
constexpr size_t kMinPasses = 3;
constexpr size_t kZipfSlices = 10;
constexpr size_t kSpanCapacity = size_t{1} << 17;
constexpr uint64_t kProbeNs = 20'000'000;

enum class Workload { kScanCold, kScanShared, kZipfRw };

uint64_t Now() { return obs::SpanNowNanos(); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

uint64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile of a sample, in the sample's unit.
double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::ceil(p * n));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]);
}

// Order-independent digest of an assembled complex object: the sum of one
// hash per node over (oid, fields).  Computed identically for the
// NaiveAssembler reference and for every delivered object.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t TreeDigest(const AssembledObject* node) {
  if (node == nullptr) return 0;
  uint64_t h = Mix(node->oid);
  for (int32_t f : node->fields) h = Mix(h ^ static_cast<uint32_t>(f));
  for (const AssembledObject* child : node->children) h += TreeDigest(child);
  return h;
}

void CollectTreeOids(const AssembledObject* node, std::vector<Oid>* out) {
  if (node == nullptr) return;
  out->push_back(node->oid);
  for (const AssembledObject* child : node->children) {
    CollectTreeOids(child, out);
  }
}

// Zipf(theta) over ranks by inverse CDF (same construction as cache_zipf).
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// One database plus the measured stack over it.  Member order is teardown
// order reversed: the service drains first, the pool flushes through a
// still-live WAL gate and AsyncDisk, and instruments outlive what they
// observe.
struct Rig {
  Workload workload = Workload::kScanCold;
  bool traced = false;
  std::unique_ptr<CountingListener> listener;
  std::unique_ptr<SpanRecorder> spans;
  std::unique_ptr<AcobDatabase> db;
  std::unique_ptr<TimedDisk> timed_disk;
  std::unique_ptr<TimedDirectory> timed_directory;
  std::unique_ptr<AsyncDisk> async;
  std::unique_ptr<wal::WalManager> wal;
  std::unique_ptr<BufferManager> pool;
  std::unique_ptr<HeapFile> write_file;
  std::unique_ptr<cache::ObjectCache> cache;
  std::unique_ptr<service::QueryService> service;
  Directory* directory = nullptr;  // what the service resolves OIDs with

  // NaiveAssembler reference digest of every root, taken at set-up.
  std::unordered_map<Oid, uint64_t> root_digest;

  // zipf_rw: component OIDs per root index ([0] is the root), the
  // committed image of every object the writer may touch, and the hot-rank
  // order of the roots.
  std::vector<std::vector<Oid>> components;
  std::unordered_map<Oid, ObjectData> image;
  std::vector<size_t> rank_to_root;
  std::unique_ptr<ZipfPicker> zipf;
  // Objects some acknowledged write changed; written by the writer thread
  // only, read after it is joined.
  std::vector<Oid> updated;

  Oid RootOfRank(size_t rank) const { return db->roots[rank_to_root[rank]]; }
};

struct QueryRecord {
  uint64_t query_id = 0;
  uint64_t submit_ns = 0;
  uint64_t ready_ns = 0;
  uint64_t rows = 0;
  bool ok = false;
  uint64_t queue_ns = 0;
  uint64_t io_ns = 0;
  uint64_t cpu_ns = 0;
  AssemblyStats assembly;
};

// What a client keeps of its queries: one compact completion per query
// (latency and sample assignment) and sums for the per-layer metrics.
// Whole QueryRecords are not kept, so the window's own bookkeeping stays
// small next to peak_rss_mb.
struct Completion {
  uint64_t ready_ns = 0;
  uint64_t latency_ns = 0;
  uint64_t rows = 0;
};

struct QueryLog {
  std::vector<Completion> done;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  double queue_ns = 0;
  double io_ns = 0;
  double cpu_ns = 0;
  double fetched = 0;
  double refs = 0;
  double shared_hits = 0;
  size_t max_pool = 0;
  size_t max_window_pages = 0;

  void Add(const QueryRecord& rec) {
    done.push_back({rec.ready_ns, rec.ready_ns - rec.submit_ns, rec.rows});
    queries++;
    if (!rec.ok) failed++;
    rows += rec.rows;
    queue_ns += static_cast<double>(rec.queue_ns);
    io_ns += static_cast<double>(rec.io_ns);
    cpu_ns += static_cast<double>(rec.cpu_ns);
    fetched += static_cast<double>(rec.assembly.objects_fetched);
    refs += static_cast<double>(rec.assembly.refs_resolved);
    shared_hits += static_cast<double>(rec.assembly.shared_hits);
    max_pool = std::max(max_pool, rec.assembly.max_pool_size);
    max_window_pages =
        std::max(max_window_pages, rec.assembly.max_window_pages);
  }

  // Folds in `other`'s sums; its completions are taken by the caller.
  void MergeSums(const QueryLog& other) {
    queries += other.queries;
    failed += other.failed;
    rows += other.rows;
    queue_ns += other.queue_ns;
    io_ns += other.io_ns;
    cpu_ns += other.cpu_ns;
    fetched += other.fetched;
    refs += other.refs;
    shared_hits += other.shared_hits;
    max_pool = std::max(max_pool, other.max_pool);
    max_window_pages = std::max(max_window_pages, other.max_window_pages);
  }
};

QueryRecord RunQuery(Rig& rig, const std::string& client,
                     std::vector<Oid> roots, bool check_digest) {
  service::QueryJob job;
  job.client = client;
  job.tmpl = &rig.db->tmpl;
  job.assembly.window_size = kWindowSize;
  job.assembly.scheduler = SchedulerKind::kElevator;
  const size_t expected_rows = roots.size();
  uint64_t expected_digest = 0;
  auto digest = std::make_shared<uint64_t>(0);
  if (check_digest) {
    for (Oid root : roots) expected_digest += rig.root_digest.at(root);
    job.on_object = [digest](const AssembledObject& object) {
      *digest += TreeDigest(&object);
    };
  }
  job.roots = std::move(roots);
  QueryRecord rec;
  rec.submit_ns = Now();
  service::QueryResult result = rig.service->Submit(std::move(job)).get();
  rec.ready_ns = Now();
  rec.query_id = result.query_id;
  rec.rows = result.rows;
  rec.ok = result.status.ok() && result.rows == expected_rows &&
           (!check_digest || *digest == expected_digest);
  rec.queue_ns = result.queue_ns;
  rec.io_ns = result.io_ns;
  rec.cpu_ns = result.cpu_ns;
  rec.assembly = result.assembly;
  if (rig.spans != nullptr) {
    // The service's decomposition laid end to end under the query span.
    SpanRecorder& spans = *rig.spans;
    const uint64_t id = rec.query_id;
    const uint64_t queue_end = rec.submit_ns + rec.queue_ns;
    const uint64_t io_end = queue_end + rec.io_ns;
    spans.Record(SpanKind::kQuery, id, rec.submit_ns, rec.ready_ns);
    spans.Record(SpanKind::kQueue, id, rec.submit_ns, queue_end);
    spans.Record(SpanKind::kIo, id, queue_end, io_end);
    spans.Record(SpanKind::kCpu, id, io_end, io_end + rec.cpu_ns);
  }
  return rec;
}

// --- Scan workloads ---------------------------------------------------------

// Cold restart between passes: every frame dropped, the arm parked at 0.
void ColdRestart(Rig& rig) {
  rig.service->Drain();
  if (rig.async != nullptr) rig.async->Drain();
  Check(rig.pool->DropAll(), "drop pool");
  rig.db->disk->ParkHead(0);
}

// One sweep of all roots in 50-root queries: one client in order
// (scan_cold) or four clients over disjoint quarters (scan_shared).
// Adds the pass's queries to `log` (completions to log->done) and returns
// the pass's wall time and (in *cpu_ns) process CPU time, cold restart
// excluded.
uint64_t RunScanPass(Rig& rig, QueryLog* log, uint64_t* cpu_ns) {
  ColdRestart(rig);
  const std::vector<Oid>& roots = rig.db->roots;
  const size_t clients =
      rig.workload == Workload::kScanCold ? 1 : kScanSharedClients;
  auto sweep = [&rig, &roots, clients](size_t c, QueryLog* out) {
    const size_t begin = c * roots.size() / clients;
    const size_t end = (c + 1) * roots.size() / clients;
    const std::string name = "c" + std::to_string(c);
    for (size_t i = begin; i < end; i += kScanQueryRoots) {
      const size_t last = std::min(end, i + kScanQueryRoots);
      std::vector<Oid> batch(roots.begin() + i, roots.begin() + last);
      out->Add(RunQuery(rig, name, std::move(batch), true));
    }
  };
  const uint64_t cpu_start = ProcessCpuNs();
  const uint64_t start = Now();
  if (clients == 1) {
    sweep(0, log);
  } else {
    std::vector<QueryLog> per_client(clients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back(sweep, c, &per_client[c]);
    }
    for (std::thread& t : threads) t.join();
    for (const QueryLog& client : per_client) {
      log->MergeSums(client);
      log->done.insert(log->done.end(), client.done.begin(),
                       client.done.end());
    }
  }
  const uint64_t wall_ns = Now() - start;
  *cpu_ns = ProcessCpuNs() - cpu_start;
  return wall_ns;
}

// --- zipf_rw ----------------------------------------------------------------

struct CommitRecord {
  uint64_t due_ns = 0;
  uint64_t issue_ns = 0;  // 0: due before the window closed, never issued
  uint64_t ack_ns = 0;    // 0: not acknowledged
  bool ok = false;
};

std::vector<Oid> ZipfRoots(const Rig& rig, std::mt19937_64* rng) {
  std::vector<Oid> roots;
  roots.reserve(kZipfQueryRoots);
  for (size_t i = 0; i < kZipfQueryRoots; ++i) {
    roots.push_back(rig.RootOfRank(rig.zipf->Draw(rng)));
  }
  return roots;
}

// Closed-loop reader: Zipf queries back to back until `deadline_ns`.
void ReaderLoop(Rig& rig, size_t reader, uint64_t seed, uint64_t deadline_ns,
                size_t max_queries, QueryLog* out) {
  std::mt19937_64 rng(seed * 7919 + reader);
  const std::string name = "r" + std::to_string(reader);
  for (size_t q = 0; q < max_queries && Now() < deadline_ns; ++q) {
    out->Add(RunQuery(rig, name, ZipfRoots(rig, &rng), false));
  }
}

// Builds transaction `i`: a scalar update of a non-root component of a
// Zipf-drawn root (the cache's patch path), plus on every 4th transaction a
// reference update of another Zipf-drawn root's unused slot 7 (the
// invalidation path).  Roots and components never share a target, so a
// scalar update always stays patchable.
service::WriteJob MakeWrite(const Rig& rig, uint64_t i, std::mt19937_64* rng) {
  service::WriteJob job;
  job.client = "writer";
  {
    const size_t root = rig.rank_to_root[rig.zipf->Draw(rng)];
    const std::vector<Oid>& parts = rig.components[root];
    const Oid target = parts[1 + (*rng)() % (parts.size() - 1)];
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kUpdate;
    op.obj = rig.image.at(target);
    op.obj.fields[3] = static_cast<int32_t>(1'000'000 + i);
    job.ops.push_back(std::move(op));
  }
  if (i % kStructuralEvery == kStructuralEvery - 1) {
    const Oid root = rig.RootOfRank(rig.zipf->Draw(rng));
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kUpdate;
    op.obj = rig.image.at(root);
    Oid ref = op.obj.refs[7];
    while (ref == op.obj.refs[7]) {
      ref = rig.db->roots[(*rng)() % rig.db->roots.size()];
    }
    op.obj.refs[7] = ref;
    job.ops.push_back(std::move(op));
  }
  return job;
}

// Open-loop writer: transaction i is due at start + i * 40 ms whatever
// happened to transaction i - 1.  Latency runs from the due time.  Due
// transactions the generator could not issue before the deadline are
// recorded unissued (late); nothing thins the readers to let it through.
void WriterLoop(Rig& rig, uint64_t seed, uint64_t start_ns,
                uint64_t deadline_ns, std::vector<CommitRecord>* out) {
  std::mt19937_64 rng(seed * 104729 + 17);
  for (uint64_t i = 0;; ++i) {
    CommitRecord rec;
    rec.due_ns = start_ns + i * kCommitPeriodNs;
    if (rec.due_ns >= deadline_ns) return;
    const uint64_t now = Now();
    if (now < rec.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(rec.due_ns - now));
    }
    if (Now() >= deadline_ns) {
      out->push_back(rec);
      continue;
    }
    service::WriteJob job = MakeWrite(rig, i, &rng);
    rec.issue_ns = Now();
    service::WriteResult result = rig.service->ExecuteWrite(job);
    rec.ack_ns = Now();
    rec.ok = result.status.ok() && !result.aborted;
    if (rec.ok) {
      for (const service::WriteOp& op : job.ops) {
        rig.image[op.obj.oid] = op.obj;
        rig.updated.push_back(op.obj.oid);
      }
    }
    out->push_back(rec);
  }
}

// --- Set-up ---------------------------------------------------------------

std::unique_ptr<Rig> BuildRig(Workload workload, uint64_t seed, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->workload = workload;
  rig->traced = traced;
  const bool zipf = workload == Workload::kZipfRw;

  AcobOptions options;
  options.num_complex_objects = kComplexObjects;
  options.clustering = workload == Workload::kScanShared
                           ? Clustering::kIntraObject
                           : Clustering::kInterObject;
  options.seed = seed;
  auto built = BuildAcobDatabase(options);
  if (!built.ok()) Die("build database: " + built.status().ToString());
  rig->db = std::move(*built);
  AcobDatabase& db = *rig->db;
  Check(db.ColdRestart(), "cold restart");

  // Reference results: the naive object-at-a-time walk of every root.
  {
    NaiveAssembler naive(db.store.get(), &db.tmpl);
    ObjectArena arena;
    if (zipf) rig->components.resize(db.roots.size());
    for (size_t i = 0; i < db.roots.size(); ++i) {
      auto object = naive.AssembleOne(db.roots[i], &arena);
      if (!object.ok() || *object == nullptr) Die("reference assembly failed");
      rig->root_digest[db.roots[i]] = TreeDigest(*object);
      if (zipf) CollectTreeOids(*object, &rig->components[i]);
    }
  }
  if (zipf) {
    for (const std::vector<Oid>& parts : rig->components) {
      for (Oid oid : parts) {
        auto data = db.store->Get(oid);
        if (!data.ok()) Die("read image: " + data.status().ToString());
        rig->image.emplace(oid, std::move(*data));
      }
    }
    rig->rank_to_root.resize(db.roots.size());
    for (size_t i = 0; i < db.roots.size(); ++i) rig->rank_to_root[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(rig->rank_to_root.begin(), rig->rank_to_root.end(), rng);
    rig->zipf = std::make_unique<ZipfPicker>(db.roots.size(), kZipfTheta);
  }

  SimulatedDisk* device = db.disk.get();
  rig->directory = db.directory.get();
  if (traced) {
    rig->listener = std::make_unique<CountingListener>();
    rig->spans = std::make_unique<SpanRecorder>(kSpanCapacity);
    rig->timed_disk = std::make_unique<TimedDisk>(device, rig->spans.get());
    rig->timed_directory =
        std::make_unique<TimedDirectory>(rig->directory, rig->spans.get());
    db.disk->set_listener(rig->listener.get());
    device = rig->timed_disk.get();
    rig->directory = rig->timed_directory.get();
  }
  SimulatedDisk* pool_disk = device;
  if (workload != Workload::kScanCold) {
    rig->async = std::make_unique<AsyncDisk>(device);
    pool_disk = rig->async.get();
  }
  BufferOptions buffer_options;
  buffer_options.num_frames = zipf ? kZipfFrames : kScanFrames;
  buffer_options.num_shards = workload == Workload::kScanCold    ? 1
                              : workload == Workload::kScanShared ? 16
                                                                  : 8;
  rig->pool = std::make_unique<BufferManager>(pool_disk, buffer_options);

  service::ServiceOptions service_options;
  service_options.num_workers = workload == Workload::kScanCold ? 1
                                : zipf ? kZipfReaders
                                       : kScanSharedClients;
  service_options.async_disk = rig->async.get();
  if (zipf) {
    // Inter-object clustering places type extents past data_pages, so the
    // write file spans the whole written address range.
    const PageId span = db.disk->page_span();
    wal::WalOptions wal_options;
    wal_options.log_first_page = span + kLogGap;
    wal_options.log_max_pages = kLogPages;
    if (traced) rig->timed_disk->set_log_extent(span + kLogGap, kLogPages);
    rig->wal = std::make_unique<wal::WalManager>(device, wal_options);
    Check(rig->wal->Recover(), "wal recover");
    rig->pool->set_write_gate(rig->wal.get());
    auto file = HeapFile::Open(rig->pool.get(), 0, span);
    if (!file.ok()) Die("open write file: " + file.status().ToString());
    rig->write_file = std::make_unique<HeapFile>(std::move(*file));
    rig->write_file->set_wal(rig->wal.get());
    cache::CacheOptions cache_options;
    cache_options.capacity = kZipfCacheEntries;
    cache_options.policy = cache::CachePolicyKind::kTwoQ;
    rig->cache = std::make_unique<cache::ObjectCache>(cache_options);
    service_options.wal = rig->wal.get();
    service_options.write_file = rig->write_file.get();
    service_options.next_oid = db.store->next_oid() + 1'000'000;
    service_options.cache = rig->cache.get();
  }
  if (traced) {
    rig->pool->set_listener(rig->listener.get());
    if (rig->wal != nullptr) rig->wal->set_listener(rig->listener.get());
    if (rig->cache != nullptr) rig->cache->set_listener(rig->listener.get());
  }
  rig->service = std::make_unique<service::QueryService>(
      rig->pool.get(), rig->directory, service_options);

  // Warm-up: whole passes for the scans, a fixed query count for zipf_rw
  // (fills the object cache and the pool before the window opens).
  QueryLog warm;
  if (zipf) {
    std::vector<QueryLog> per_reader(kZipfReaders);
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kZipfReaders; ++r) {
      readers.emplace_back(ReaderLoop, std::ref(*rig), r, seed + 1, UINT64_MAX,
                           kZipfWarmQueries, &per_reader[r]);
    }
    for (std::thread& t : readers) t.join();
    for (const QueryLog& reader : per_reader) warm.MergeSums(reader);
  } else {
    const size_t passes = workload == Workload::kScanCold
                              ? kScanColdWarmPasses
                              : kScanSharedWarmPasses;
    uint64_t cpu_ns = 0;
    for (size_t p = 0; p < passes; ++p) RunScanPass(*rig, &warm, &cpu_ns);
  }
  if (warm.failed != 0) Die("warm-up query failed its output check");
  rig->service->Drain();
  if (rig->async != nullptr) rig->async->Drain();
  return rig;
}

// --- Measurement window ---------------------------------------------------

struct Sample {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t rows = 0;
  std::vector<uint64_t> latency_ns;

  double rate() const {
    return Ratio(static_cast<double>(rows) * 1e9, static_cast<double>(wall_ns));
  }
  double cpu_ms_per_kobject() const {
    return Ratio(static_cast<double>(cpu_ns) / 1e6,
                 static_cast<double>(rows) / 1000.0);
  }
  double p50_ms() const { return Percentile(latency_ns, 0.50) / 1e6; }
};

double MedianOf(const std::vector<Sample>& samples,
                double (Sample::*metric)() const) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back((s.*metric)());
  return Median(std::move(values));
}

// The window cut into kTailGroups runs of consecutive samples: the median
// of each run's p99, so a host stall confined to a few groups does not set
// the tail.
constexpr size_t kTailGroups = 10;

double GroupedP99Ms(const std::vector<Sample>& samples) {
  std::vector<double> p99s;
  for (size_t g = 0; g < kTailGroups; ++g) {
    std::vector<uint64_t> latency;
    const size_t begin = g * samples.size() / kTailGroups;
    const size_t end = (g + 1) * samples.size() / kTailGroups;
    for (size_t i = begin; i < end; ++i) {
      latency.insert(latency.end(), samples[i].latency_ns.begin(),
                     samples[i].latency_ns.end());
    }
    if (!latency.empty()) p99s.push_back(Percentile(latency, 0.99) / 1e6);
  }
  return Median(std::move(p99s));
}

// Layer counters; a window's result holds the change across it.
struct Snapshot {
  DiskStats disk;
  BufferStats buffer;
  AsyncDiskStats async;
  cache::CacheStats cache;
  wal::WalStats wal;
  TimedDisk::Counts timed;
  uint64_t lookups = 0;
  uint64_t lookup_ns = 0;
  EventCounts events;
};

struct WindowResult {
  uint64_t window_close_ns = 0;  // start + the requested seconds
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  // One sample per pass (scans) or per tenth of the window (zipf_rw);
  // the throughput, median latency and CPU metrics are medians over them.
  std::vector<Sample> samples;
  QueryLog log;  // completions moved into `samples`
  std::vector<CommitRecord> commits;
  uint64_t attempted = 0;  // queries and due commits
  uint64_t failed = 0;
  Snapshot delta;
};

// Read only while the rig is quiescent.
Snapshot TakeSnapshot(const Rig& rig) {
  Snapshot s;
  s.disk = rig.db->disk->stats();
  s.buffer = rig.pool->stats();
  if (rig.async != nullptr) s.async = rig.async->async_stats();
  if (rig.cache != nullptr) s.cache = rig.cache->stats();
  if (rig.wal != nullptr) s.wal = rig.wal->stats();
  if (rig.traced) {
    s.timed = rig.timed_disk->counts();
    s.lookups = rig.timed_directory->lookups();
    s.lookup_ns = rig.timed_directory->lookup_ns();
    s.events = rig.listener->counts();
  }
  return s;
}

// b - a; max_queue_depth is a high-water mark and is taken from b.
Snapshot Subtract(const Snapshot& a, const Snapshot& b) {
  Snapshot d;
  Snapshot* w = &d;
  w->disk.reads = b.disk.reads - a.disk.reads;
  w->disk.writes = b.disk.writes - a.disk.writes;
  w->disk.read_seek_pages = b.disk.read_seek_pages - a.disk.read_seek_pages;
  w->disk.write_seek_pages = b.disk.write_seek_pages - a.disk.write_seek_pages;
  w->disk.pages_read = b.disk.pages_read - a.disk.pages_read;
  w->disk.coalesced_runs = b.disk.coalesced_runs - a.disk.coalesced_runs;
  w->buffer.hits = b.buffer.hits - a.buffer.hits;
  w->buffer.faults = b.buffer.faults - a.buffer.faults;
  w->buffer.evictions = b.buffer.evictions - a.buffer.evictions;
  w->buffer.dirty_writebacks =
      b.buffer.dirty_writebacks - a.buffer.dirty_writebacks;
  w->buffer.retries = b.buffer.retries - a.buffer.retries;
  w->async.reads_submitted = b.async.reads_submitted - a.async.reads_submitted;
  w->async.max_queue_depth = b.async.max_queue_depth;
  w->async.merged_picks = b.async.merged_picks - a.async.merged_picks;
  w->async.coalesced_runs = b.async.coalesced_runs - a.async.coalesced_runs;
  w->cache.hits = b.cache.hits - a.cache.hits;
  w->cache.misses = b.cache.misses - a.cache.misses;
  w->cache.evictions = b.cache.evictions - a.cache.evictions;
  w->cache.invalidations = b.cache.invalidations - a.cache.invalidations;
  w->cache.patches = b.cache.patches - a.cache.patches;
  w->cache.shared_reuses = b.cache.shared_reuses - a.cache.shared_reuses;
  w->wal.commits = b.wal.commits - a.wal.commits;
  w->wal.batches_flushed = b.wal.batches_flushed - a.wal.batches_flushed;
  w->wal.log_pages_written = b.wal.log_pages_written - a.wal.log_pages_written;
  w->wal.bytes_flushed = b.wal.bytes_flushed - a.wal.bytes_flushed;
  w->wal.images_logged = b.wal.images_logged - a.wal.images_logged;
  w->timed.read_calls = b.timed.read_calls - a.timed.read_calls;
  w->timed.pages_read = b.timed.pages_read - a.timed.pages_read;
  w->timed.read_ns = b.timed.read_ns - a.timed.read_ns;
  w->timed.write_calls = b.timed.write_calls - a.timed.write_calls;
  w->timed.write_ns = b.timed.write_ns - a.timed.write_ns;
  w->timed.log_write_calls = b.timed.log_write_calls - a.timed.log_write_calls;
  w->timed.log_write_ns = b.timed.log_write_ns - a.timed.log_write_ns;
  w->lookups = b.lookups - a.lookups;
  w->lookup_ns = b.lookup_ns - a.lookup_ns;
  const EventCounts& x = a.events;
  const EventCounts& y = b.events;
  w->events.disk_reads = y.disk_reads - x.disk_reads;
  w->events.disk_pages_read = y.disk_pages_read - x.disk_pages_read;
  w->events.disk_writes = y.disk_writes - x.disk_writes;
  w->events.buffer_hits = y.buffer_hits - x.buffer_hits;
  w->events.buffer_faults = y.buffer_faults - x.buffer_faults;
  w->events.buffer_evictions = y.buffer_evictions - x.buffer_evictions;
  w->events.wal_flushes = y.wal_flushes - x.wal_flushes;
  w->events.wal_pages = y.wal_pages - x.wal_pages;
  w->events.cache_hits = y.cache_hits - x.cache_hits;
  w->events.cache_misses = y.cache_misses - x.cache_misses;
  w->events.cache_evictions = y.cache_evictions - x.cache_evictions;
  w->events.cache_invalidations =
      y.cache_invalidations - x.cache_invalidations;
  w->events.cache_patches = y.cache_patches - x.cache_patches;
  return d;
}

void RunScanWindow(Rig& rig, uint64_t seconds_ns, WindowResult* w) {
  const uint64_t start = Now();
  for (size_t pass = 0; pass < kMinPasses || Now() - start < seconds_ns;
       ++pass) {
    Sample sample;
    sample.wall_ns = RunScanPass(rig, &w->log, &sample.cpu_ns);
    for (const Completion& done : w->log.done) {
      sample.rows += done.rows;
      sample.latency_ns.push_back(done.latency_ns);
    }
    w->log.done.clear();
    w->samples.push_back(std::move(sample));
  }
  rig.service->Drain();
  if (rig.async != nullptr) rig.async->Drain();
}

void RunZipfWindow(Rig& rig, uint64_t seed, uint64_t seconds_ns,
                   WindowResult* w) {
  const uint64_t start = Now();
  const uint64_t deadline = start + seconds_ns;
  std::vector<QueryLog> per_reader(kZipfReaders);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kZipfReaders; ++r) {
    threads.emplace_back(ReaderLoop, std::ref(rig), r, seed + 2, deadline,
                         SIZE_MAX, &per_reader[r]);
  }
  threads.emplace_back(WriterLoop, std::ref(rig), seed, start, deadline,
                       &w->commits);
  // Process CPU at each slice boundary, sampled from this thread.
  const uint64_t slice_ns = seconds_ns / kZipfSlices;
  w->samples.resize(kZipfSlices);
  uint64_t cpu = ProcessCpuNs();
  for (size_t i = 0; i < kZipfSlices; ++i) {
    const uint64_t boundary = start + (i + 1) * slice_ns;
    const uint64_t now = Now();
    if (now < boundary) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - now));
    }
    const uint64_t next = ProcessCpuNs();
    w->samples[i].wall_ns = slice_ns;
    w->samples[i].cpu_ns = next - cpu;
    cpu = next;
  }
  for (std::thread& t : threads) t.join();
  rig.service->Drain();
  rig.async->Drain();
  for (const QueryLog& reader : per_reader) {
    w->log.MergeSums(reader);
    for (const Completion& done : reader.done) {
      const uint64_t at = done.ready_ns - start;
      if (at < slice_ns * kZipfSlices) {
        Sample& sample = w->samples[at / slice_ns];
        sample.rows += done.rows;
        sample.latency_ns.push_back(done.latency_ns);
      }
    }
  }
}


WindowResult MeasureWindow(Rig& rig, uint64_t seed, double seconds) {
  WindowResult w;
  const uint64_t seconds_ns = static_cast<uint64_t>(seconds * 1e9);
  if (rig.spans != nullptr) rig.spans->set_recording(true);
  const Snapshot before = TakeSnapshot(rig);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = Now();
  w.window_close_ns = t0 + seconds_ns;
  if (rig.workload == Workload::kZipfRw) {
    RunZipfWindow(rig, seed, seconds_ns, &w);
  } else {
    RunScanWindow(rig, seconds_ns, &w);
  }
  w.wall_ns = Now() - t0;
  w.cpu_ns = ProcessCpuNs() - cpu0;
  const Snapshot after = TakeSnapshot(rig);
  if (rig.spans != nullptr) rig.spans->set_recording(false);
  w.delta = Subtract(before, after);
  w.attempted = w.log.queries;
  w.failed = w.log.failed;
  for (const CommitRecord& rec : w.commits) {
    w.attempted++;
    if (rec.issue_ns != 0 && !rec.ok) w.failed++;
  }
  return w;
}

// --- Output checks after the window (zipf_rw) -------------------------------

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// A cache-served pass over the hottest roots must equal an uncached
// NaiveAssembler walk of the same pages (under the same shared-lock hold),
// and every acknowledged update must be visible in the store.
CheckResult CheckZipfOutputs(Rig& rig) {
  CheckResult out;
  std::vector<Oid> hot;
  for (size_t r = 0; r < kZipfCheckedRoots; ++r) {
    hot.push_back(rig.RootOfRank(r));
  }
  auto mismatches = std::make_shared<uint64_t>(0);
  service::QueryJob job;
  job.client = "check";
  job.tmpl = &rig.db->tmpl;
  job.roots = hot;
  job.assembly.window_size = kWindowSize;
  job.assembly.scheduler = SchedulerKind::kElevator;
  Rig* r = &rig;
  job.on_object = [r, mismatches](const AssembledObject& got) {
    ObjectStore shadow_store(r->pool.get(), r->directory);
    NaiveAssembler shadow(&shadow_store, &r->db->tmpl);
    ObjectArena arena;
    auto want = shadow.AssembleOne(got.oid, &arena);
    if (!want.ok() || *want == nullptr ||
        TreeDigest(*want) != TreeDigest(&got)) {
      ++*mismatches;
    }
  };
  service::QueryResult result = rig.service->Submit(std::move(job)).get();
  out.attempted++;
  if (!result.status.ok() || result.rows != hot.size() || *mismatches != 0) {
    out.failed++;
  }

  rig.service->WithReadLock([&] {
    ObjectStore store(rig.pool.get(), rig.directory);
    for (Oid oid : rig.updated) {
      const ObjectData& want = rig.image.at(oid);
      auto got = store.Get(oid);
      out.attempted++;
      if (!got.ok() || got->fields != want.fields || got->refs != want.refs) {
        out.failed++;
      }
    }
  });
  rig.service->Drain();
  rig.async->Drain();
  return out;
}

// --- CPU-layer probes (traced run) ------------------------------------------

struct Probes {
  double checksum_ns_per_page = 0;
  double lookup_ns = 0;
  double decode_ns_per_object = 0;
  double fix_hit_ns = 0;
  bool ok = true;
};

template <typename Fn>
double TimePerOp(Fn&& op_batch) {
  uint64_t ops = 0;
  const uint64_t start = Now();
  uint64_t elapsed = 0;
  do {
    ops += op_batch();
    elapsed = Now() - start;
  } while (elapsed < kProbeNs);
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

// Times the public calls that run inside a query, on the run's own data:
// VerifyPageChecksum and ObjectData::Deserialize over copies of resident
// data pages, BufferManager::FetchPage of those (resident) pages, and
// Directory::Lookup of the run's OIDs without the per-call timer.
Probes RunProbes(Rig& rig) {
  Probes p;
  const size_t page_size = rig.db->disk->page_size();
  std::vector<PageId> ids;
  std::vector<std::vector<std::byte>> pages;
  for (Oid root : rig.db->roots) {
    if (pages.size() >= 256) break;
    auto loc = rig.db->directory->Lookup(root);
    if (!loc.ok() || !rig.pool->IsResident(loc->page) ||
        std::find(ids.begin(), ids.end(), loc->page) != ids.end()) {
      continue;
    }
    auto guard = rig.pool->FetchPage(loc->page);
    if (!guard.ok()) continue;
    ids.push_back(loc->page);
    pages.emplace_back(guard->data().begin(), guard->data().end());
  }
  std::vector<std::span<const std::byte>> records;
  for (std::vector<std::byte>& page : pages) {
    SlottedPage view(page.data(), page.size());
    for (uint16_t slot = 0; slot < view.slot_count(); ++slot) {
      if (!view.IsLive(slot)) continue;
      auto body = view.Get(slot);
      if (body.ok()) records.push_back(*body);
    }
  }
  if (pages.empty() || records.empty()) {
    p.ok = false;
    return p;
  }
  uint64_t failures = 0;
  p.checksum_ns_per_page = TimePerOp([&] {
    for (size_t i = 0; i < pages.size(); ++i) {
      if (!VerifyPageChecksum(pages[i].data(), page_size, ids[i]).ok()) {
        failures++;
      }
    }
    return pages.size();
  });
  std::vector<Oid> oids;
  for (const auto& [root, digest] : rig.root_digest) oids.push_back(root);
  p.lookup_ns = TimePerOp([&] {
    for (Oid oid : oids) {
      if (!rig.db->directory->Lookup(oid).ok()) failures++;
    }
    return oids.size();
  });
  uint64_t oid_sum = 0;
  p.decode_ns_per_object = TimePerOp([&] {
    for (const auto& body : records) {
      auto obj = ObjectData::Deserialize(body);
      if (obj.ok()) {
        oid_sum += obj->oid;
      } else {
        failures++;
      }
    }
    return records.size();
  });
  p.fix_hit_ns = TimePerOp([&] {
    for (PageId id : ids) {
      auto guard = rig.pool->FetchPage(id);
      if (!guard.ok()) failures++;
    }
    return ids.size();
  });
  p.ok = failures == 0 && oid_sum != 0;
  return p;
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct CommitSummary {
  double p50_ms = 0;
  double p90_ms = 0;
  double late_ratio = 0;
  double writer_lag_ms = 0;
  uint64_t due = 0;
  uint64_t acked = 0;
};

// Latency from the due time.  A commit still unacknowledged when the window
// closed is late; an unissued one enters the percentiles censored at the
// window's close (a lower bound on its latency).
CommitSummary SummarizeCommits(const WindowResult& w, uint64_t close_ns) {
  CommitSummary s;
  std::vector<uint64_t> latency;
  uint64_t late = 0;
  double lag = 0;
  uint64_t issued = 0;
  for (const CommitRecord& rec : w.commits) {
    s.due++;
    const bool acked = rec.issue_ns != 0 && rec.ack_ns != 0;
    const uint64_t end = acked ? rec.ack_ns : close_ns;
    latency.push_back(end > rec.due_ns ? end - rec.due_ns : 0);
    if (acked) s.acked++;
    if (!acked || !rec.ok || rec.ack_ns > close_ns ||
        rec.ack_ns - rec.due_ns > kCommitLimitNs) {
      late++;
    }
    if (rec.issue_ns != 0) {
      issued++;
      lag += static_cast<double>(rec.issue_ns - rec.due_ns);
    }
  }
  s.p50_ms = Percentile(latency, 0.50) / 1e6;
  s.p90_ms = Percentile(latency, 0.90) / 1e6;
  s.late_ratio = Ratio(static_cast<double>(late), static_cast<double>(s.due));
  s.writer_lag_ms = Ratio(lag, static_cast<double>(issued)) / 1e6;
  return s;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

Workload ParseWorkload(const std::string& name) {
  if (name == "scan_cold") return Workload::kScanCold;
  if (name == "scan_shared") return Workload::kScanShared;
  if (name == "zipf_rw") return Workload::kZipfRw;
  Die("unknown workload " + name);
}

// --trace 0: set up kSetups times, measure the last rig untraced.
int RunEndToEnd(Workload workload, const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (size_t i = 0; i < kSetups; ++i) {
    rig.reset();
    const uint64_t start = Now();
    rig = BuildRig(workload, args.seed, /*traced=*/false);
    setup_s.push_back(static_cast<double>(Now() - start) / 1e9);
  }
  WindowResult w = MeasureWindow(*rig, args.seed, args.seconds);
  CheckResult check;
  if (workload == Workload::kZipfRw) check = CheckZipfOutputs(*rig);
  const uint64_t attempted = w.attempted + check.attempted;
  const uint64_t failed = w.failed + check.failed;

  const Snapshot& d = w.delta;
  const double objects = static_cast<double>(w.log.rows);
  std::vector<Metric> m;
  m.push_back({"objects_per_s", MedianOf(w.samples, &Sample::rate),
               "objects/s"});
  m.push_back({"query_p50_ms", MedianOf(w.samples, &Sample::p50_ms), "ms"});
  m.push_back({"query_p99_ms", GroupedP99Ms(w.samples), "ms"});
  m.push_back({"seek_pages_per_object",
               Ratio(static_cast<double>(d.disk.read_seek_pages +
                                         d.disk.write_seek_pages),
                     objects),
               "pages"});
  m.push_back({"disk_reads_per_object",
               Ratio(static_cast<double>(d.disk.reads), objects), "reads"});
  m.push_back({"cpu_ms_per_kobject",
               MedianOf(w.samples, &Sample::cpu_ms_per_kobject), "ms"});
  m.push_back({"ok_ratio",
               1.0 - Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
               "ratio"});
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::vector<double> sorted_rates;
  for (const Sample& sample : w.samples) sorted_rates.push_back(sample.rate());
  std::sort(sorted_rates.begin(), sorted_rates.end());
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %zu queries, %llu objects, %zu "
               "commits due, %.2f s window; %zu rate samples, min %.0f "
               "median %.0f max %.0f objects/s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<size_t>(w.log.queries),
               static_cast<unsigned long long>(w.log.rows), w.commits.size(),
               static_cast<double>(w.wall_ns) / 1e9, sorted_rates.size(),
               sorted_rates.front(), Median(sorted_rates),
               sorted_rates.back());
  if (workload == Workload::kZipfRw) {
    const CommitSummary commit = SummarizeCommits(w, w.window_close_ns);
    std::fprintf(stderr,
                 "perfbench: writer: %llu commits due, %llu acknowledged, "
                 "p50 %.1f ms, p90 %.1f ms from due time\n",
                 static_cast<unsigned long long>(commit.due),
                 static_cast<unsigned long long>(commit.acked), commit.p50_ms,
                 commit.p90_ms);
  }
  rig.reset();
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

// --trace 1: an untraced half-window, then a traced half-window on a rig
// rebuilt with the decorators and listeners.
int RunTraced(Workload workload, const Args& args) {
  double untraced_rate = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  {
    std::unique_ptr<Rig> plain = BuildRig(workload, args.seed, false);
    WindowResult w = MeasureWindow(*plain, args.seed, args.seconds / 2);
    untraced_rate = MedianOf(w.samples, &Sample::rate);
    attempted += w.attempted;
    failed += w.failed;
  }
  std::unique_ptr<Rig> rig = BuildRig(workload, args.seed, true);
  WindowResult w = MeasureWindow(*rig, args.seed, args.seconds / 2);
  attempted += w.attempted;
  failed += w.failed;
  if (workload == Workload::kZipfRw) {
    CheckResult check = CheckZipfOutputs(*rig);
    attempted += check.attempted;
    failed += check.failed;
  }
  const Probes probes = RunProbes(*rig);

  const bool zipf = workload == Workload::kZipfRw;
  const bool async = workload != Workload::kScanCold;
  const double objects = static_cast<double>(w.log.rows);
  const double kobj = objects / 1000.0;
  const QueryLog& log = w.log;
  const double queue_ns = log.queue_ns;
  const double io_ns = log.io_ns;
  const double cpu_ns = log.cpu_ns;
  const double fetched = log.fetched;
  const double queries = static_cast<double>(log.queries);
  const double process_cpu = static_cast<double>(w.cpu_ns);
  const Snapshot& d = w.delta;
  const EventCounts& ev = d.events;

  // Listener events must equal the stats structs over the same window.
  const bool consistent =
      ev.disk_reads == d.disk.reads &&
      ev.disk_pages_read == d.disk.pages_read &&
      ev.disk_writes == d.disk.writes && d.timed.read_calls == d.disk.reads &&
      d.timed.pages_read == d.disk.pages_read &&
      d.timed.write_calls + d.timed.log_write_calls == d.disk.writes &&
      ev.buffer_hits == d.buffer.hits && ev.buffer_faults == d.buffer.faults &&
      ev.buffer_evictions == d.buffer.evictions &&
      ev.wal_flushes == d.wal.batches_flushed &&
      ev.wal_pages == d.wal.log_pages_written &&
      ev.cache_hits == d.cache.hits && ev.cache_misses == d.cache.misses &&
      ev.cache_evictions == d.cache.evictions &&
      ev.cache_invalidations == d.cache.invalidations &&
      ev.cache_patches == d.cache.patches;
  if (!consistent) {
    std::fprintf(stderr,
                 "perfbench: listener events disagree with layer stats "
                 "(disk %llu/%llu reads, buffer %llu/%llu faults, cache "
                 "%llu/%llu hits)\n",
                 static_cast<unsigned long long>(ev.disk_reads),
                 static_cast<unsigned long long>(d.disk.reads),
                 static_cast<unsigned long long>(ev.buffer_faults),
                 static_cast<unsigned long long>(d.buffer.faults),
                 static_cast<unsigned long long>(ev.cache_hits),
                 static_cast<unsigned long long>(d.cache.hits));
  }

  std::vector<Metric> m;
  auto per_kobj = [&](uint64_t count) {
    return Ratio(static_cast<double>(count), kobj);
  };
  // service
  m.push_back({"service.queue_us_per_query", Ratio(queue_ns / 1e3, queries),
               "us"});
  m.push_back({"service.io_us_per_query", Ratio(io_ns / 1e3, queries), "us"});
  m.push_back({"service.cpu_us_per_query", Ratio(cpu_ns / 1e3, queries),
               "us"});
  m.push_back({"service.cpu_gap_ratio", Ratio(cpu_ns - process_cpu, cpu_ns),
               "ratio"});
  // storage
  m.push_back({"storage.read_calls", per_kobj(d.timed.read_calls),
               "calls/kobj"});
  m.push_back({"storage.pages_read", per_kobj(d.timed.pages_read),
               "pages/kobj"});
  m.push_back({"storage.read_seek_pages", per_kobj(d.disk.read_seek_pages),
               "pages/kobj"});
  m.push_back({"storage.read_us_per_call",
               Ratio(static_cast<double>(d.timed.read_ns) / 1e3,
                     static_cast<double>(d.timed.read_calls)),
               "us"});
  m.push_back({"storage.write_calls", per_kobj(d.timed.write_calls),
               "calls/kobj"});
  m.push_back({"storage.write_us_per_call",
               Ratio(static_cast<double>(d.timed.write_ns) / 1e3,
                     static_cast<double>(d.timed.write_calls)),
               "us"});
  m.push_back({"storage.checksum_ns_per_page", probes.checksum_ns_per_page,
               "ns"});
  // storage.async (0 where the stack has no AsyncDisk)
  m.push_back({"storage.async.max_queue_depth",
               async ? static_cast<double>(d.async.max_queue_depth) : 0.0,
               "count"});
  m.push_back({"storage.async.merged_pick_ratio",
               Ratio(static_cast<double>(d.async.merged_picks),
                     static_cast<double>(d.async.reads_submitted)),
               "ratio"});
  m.push_back({"storage.async.coalesced_runs",
               per_kobj(d.async.coalesced_runs), "runs/kobj"});
  m.push_back({"storage.async.wait_us_per_read",
               async ? Ratio((io_ns - static_cast<double>(d.timed.read_ns)) /
                                 1e3,
                             static_cast<double>(d.timed.read_calls))
                     : 0.0,
               "us"});
  // buffer
  m.push_back({"buffer.hit_rate", d.buffer.HitRate(), "ratio"});
  m.push_back({"buffer.faults", per_kobj(d.buffer.faults), "faults/kobj"});
  m.push_back({"buffer.evictions", per_kobj(d.buffer.evictions),
               "evicts/kobj"});
  m.push_back({"buffer.dirty_writebacks", per_kobj(d.buffer.dirty_writebacks),
               "writes/kobj"});
  m.push_back({"buffer.retries", per_kobj(d.buffer.retries), "retries/kobj"});
  m.push_back({"buffer.fix_hit_ns", probes.fix_hit_ns, "ns"});
  // object
  m.push_back({"object.directory_lookups_per_object",
               Ratio(static_cast<double>(d.lookups), objects), "lookups"});
  m.push_back({"object.directory_ns_per_lookup",
               Ratio(static_cast<double>(d.lookup_ns),
                     static_cast<double>(d.lookups)),
               "ns"});
  m.push_back({"object.decode_ns_per_object", probes.decode_ns_per_object,
               "ns"});
  // assembly
  m.push_back({"assembly.objects_fetched_per_object", Ratio(fetched, objects),
               "objects"});
  m.push_back({"assembly.refs_resolved_per_object", Ratio(log.refs, objects),
               "refs"});
  m.push_back({"assembly.shared_hits", Ratio(log.shared_hits, kobj),
               "hits/kobj"});
  m.push_back({"assembly.max_pool_size", static_cast<double>(log.max_pool),
               "refs"});
  m.push_back({"assembly.max_window_pages",
               static_cast<double>(log.max_window_pages), "pages"});
  // cache (0 where the service has no cache)
  m.push_back({"cache.hit_rate",
               Ratio(static_cast<double>(d.cache.hits),
                     static_cast<double>(d.cache.hits + d.cache.misses)),
               "ratio"});
  m.push_back({"cache.evictions", per_kobj(d.cache.evictions), "evicts/kobj"});
  m.push_back({"cache.invalidations", per_kobj(d.cache.invalidations),
               "drops/kobj"});
  m.push_back({"cache.patches", per_kobj(d.cache.patches), "patches/kobj"});
  m.push_back({"cache.shared_reuses", per_kobj(d.cache.shared_reuses),
               "reuses/kobj"});
  // wal (0 where the stack has no WAL)
  const double commits = static_cast<double>(d.wal.commits);
  m.push_back({"wal.commits_per_flush",
               Ratio(commits, static_cast<double>(d.wal.batches_flushed)),
               "commits"});
  m.push_back({"wal.log_pages_per_commit",
               Ratio(static_cast<double>(d.wal.log_pages_written), commits),
               "pages"});
  m.push_back({"wal.bytes_per_commit",
               Ratio(static_cast<double>(d.wal.bytes_flushed), commits),
               "bytes"});
  m.push_back({"wal.images_per_commit",
               Ratio(static_cast<double>(d.wal.images_logged), commits),
               "images"});
  m.push_back({"wal.log_fill_ratio",
               zipf ? Ratio(static_cast<double>(
                                rig->wal->stats().log_pages_written),
                            static_cast<double>(kLogPages))
                    : 0.0,
               "ratio"});
  m.push_back({"wal.flush_write_us",
               Ratio(static_cast<double>(d.timed.log_write_ns) / 1e3,
                     static_cast<double>(d.wal.batches_flushed)),
               "us"});
  // commits (zipf_rw's writer; 0 elsewhere)
  const CommitSummary commit = SummarizeCommits(w, w.window_close_ns);
  m.push_back({"commit_p50_ms", commit.p50_ms, "ms"});
  m.push_back({"commit_p90_ms", commit.p90_ms, "ms"});
  m.push_back({"commit_late_ratio", commit.late_ratio, "ratio"});
  // CPU shares of the probed layers: ns/op x live op count / process CPU.
  m.push_back({"storage.checksum_cpu_share",
               Ratio(probes.checksum_ns_per_page *
                         static_cast<double>(d.timed.pages_read),
                     process_cpu),
               "ratio"});
  m.push_back({"object.decode_cpu_share",
               Ratio(probes.decode_ns_per_object * fetched, process_cpu),
               "ratio"});
  m.push_back({"object.directory_cpu_share",
               Ratio(probes.lookup_ns * static_cast<double>(d.lookups),
                     process_cpu),
               "ratio"});
  m.push_back({"buffer.fix_cpu_share",
               Ratio(probes.fix_hit_ns *
                         static_cast<double>(d.buffer.hits + d.buffer.faults),
                     process_cpu),
               "ratio"});
  // bench
  const double traced_rate = MedianOf(w.samples, &Sample::rate);
  m.push_back({"bench.trace_overhead_ratio", Ratio(traced_rate, untraced_rate),
               "ratio"});
  m.push_back({"bench.writer_lag_ms", commit.writer_lag_ms, "ms"});

  // Commit spans (due to acknowledgement) join the window's spans, and the
  // whole set is written once.
  {
    SpanRecorder* spans = rig->spans.get();
    spans->set_recording(true);
    for (const CommitRecord& rec : w.commits) {
      if (rec.ack_ns != 0) {
        spans->Record(SpanKind::kCommit, 0, rec.due_ns, rec.ack_ns);
      }
    }
    spans->set_recording(false);
    if (!args.trace_out.empty() && !spans->WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
    std::fprintf(stderr, "perfbench: %zu spans kept, %zu dropped\n",
                 spans->recorded(), spans->dropped());
  }
  if (zipf) {
    std::fprintf(stderr,
                 "perfbench: writer: %llu commits due, %llu acknowledged\n",
                 static_cast<unsigned long long>(commit.due),
                 static_cast<unsigned long long>(commit.acked));
  }
  rig.reset();
  PrintResult(failed == 0 && consistent && probes.ok, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const Workload workload = ParseWorkload(args.workload);
  return args.trace != 0 ? RunTraced(workload, args)
                         : RunEndToEnd(workload, args);
}
