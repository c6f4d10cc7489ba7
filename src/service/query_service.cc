#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "assembly/scheduler.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "exec/scan.h"
#include "exec/value.h"
#include "object/object_store.h"
#include "obs/telemetry.h"

namespace cobra::service {
namespace {

// Oldest slow-query reports are dropped past this cap, like the flight
// recorder's ring: the slow-query log must not grow without bound.
constexpr size_t kMaxSlowReports = 64;

}  // namespace

QueryService::QueryService(BufferManager* buffer, Directory* directory,
                           ServiceOptions options)
    : buffer_(buffer),
      directory_(directory),
      options_(options),
      next_write_oid_(options.next_oid),
      flight_(options.flight_capacity) {
  size_t workers = options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::future<QueryResult> QueryService::Submit(QueryJob job) {
  Task task;
  task.job = std::move(job);
  task.ctx = std::make_shared<obs::QueryContext>(
      next_query_id_.fetch_add(1, std::memory_order_relaxed),
      task.job.client);
  // Sink before sharing: every span the query ever records lands in the
  // always-on flight recorder.
  task.ctx->set_sink(&flight_);
  task.ctx->submit_ns.store(obs::SpanNowNanos(), std::memory_order_relaxed);
  tracker_.Register(task.ctx);
  task.ctx->Record({obs::SpanEventKind::kQueryBegin, 0, 0, 0, 0, 0});
  std::future<QueryResult> future = task.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return future;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

size_t QueryService::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

std::vector<obs::SlowQueryReport> QueryService::slow_reports() const {
  std::lock_guard<std::mutex> lock(reports_mu_);
  return std::vector<obs::SlowQueryReport>(slow_reports_.begin(),
                                           slow_reports_.end());
}

obs::Snapshot QueryService::TakeSnapshot() const {
  obs::Snapshot snapshot = tracker_.TakeSnapshot();
  snapshot.ts_ns = obs::SpanNowNanos();
  BufferManager::Residency residency = buffer_->GetResidency();
  snapshot.pool.total_frames = residency.total_frames;
  snapshot.pool.resident = residency.resident;
  snapshot.pool.pinned = residency.pinned;
  snapshot.pool.dirty = residency.dirty;
  snapshot.pool.free_frames = residency.free_frames;
  snapshot.pool.pending = residency.pending;
  snapshot.pool.per_shard_resident = std::move(residency.per_shard_resident);
  return snapshot;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ with an empty queue: outstanding work (if any) belongs to
        // other workers; this one is done.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      running_++;
    }
    const std::shared_ptr<obs::QueryContext>& ctx = task.ctx;
    const uint64_t start = obs::SpanNowNanos();
    ctx->start_ns.store(start, std::memory_order_relaxed);
    obs::Registry job_registry;
    std::string explain;
    QueryResult result;
    {
      obs::ScopedQueryContext scope(ctx);
      result = Execute(task.job, &job_registry, &explain);
    }
    const uint64_t end = obs::SpanNowNanos();
    ctx->end_ns.store(end, std::memory_order_relaxed);
    ctx->Record({obs::SpanEventKind::kQueryEnd, 0, 0, 0, result.rows,
                 result.status.ok() ? uint64_t{0} : uint64_t{1}});

    result.query_id = ctx->query_id();
    result.io = ctx->io.Snapshot();
    // Exact decomposition: queue is submit->start, execution is start->end;
    // the worker's storage-blocked time (clamped — the I/O thread can charge
    // a trailing prefetch wait) is io, the remainder cpu.
    const uint64_t submit = ctx->submit_ns.load(std::memory_order_relaxed);
    const uint64_t exec = end > start ? end - start : 0;
    result.queue_ns = start > submit ? start - submit : 0;
    result.io_ns = std::min(result.io.io_wait_ns, exec);
    result.cpu_ns = exec - result.io_ns;
    result.total_ns = result.queue_ns + exec;

    Account(result, job_registry);
    tracker_.Complete(ctx, result.rows, result.status.ok(), result.total_ns);
    MaybeReportSlow(ctx, result, std::move(explain));
    task.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_--;
      if (queue_.empty() && running_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

WriteResult QueryService::ExecuteWrite(const WriteJob& job) {
  WriteResult result;
  result.client = job.client;
  if (options_.wal == nullptr || options_.write_file == nullptr) {
    result.status = Status::InvalidArgument(
        "service has no write path (set ServiceOptions::wal and write_file)");
    return result;
  }
  // Private store view, like Execute(): the txn undo state and stats are
  // per-call; buffer, directory and WAL are the shared layers underneath.
  ObjectStore store(buffer_, directory_);
  store.set_wal(options_.wal);
  Status status;
  // Cache maintenance collected as ops apply, deferred to commit: entries
  // must never drop (or patch) while the transaction can still abort — undo
  // would restore the pages but not the cache.
  std::vector<cache::CommittedWrite> cache_ops;
  cache::WriteEffect cache_effect;
  {
    std::unique_lock<std::shared_mutex> lock(store_mu_);
    store.set_next_oid(next_write_oid_);
    Result<wal::TxnId> begin = store.BeginTxn();
    if (!begin.ok()) {
      result.status = begin.status();
      return result;
    }
    result.txn = *begin;
    for (const WriteOp& op : job.ops) {
      switch (op.kind) {
        case WriteOp::Kind::kInsert: {
          Result<Oid> inserted =
              store.InsertTxn(result.txn, op.obj, options_.write_file);
          status = inserted.status();
          if (status.ok() && options_.cache != nullptr) {
            // The new record may share its heap page with cached components;
            // footprint intersection decides whether anything drops.
            Result<RecordId> loc = store.Locate(*inserted);
            if (loc.ok()) {
              cache_ops.push_back({loc->page, /*patch=*/false, {}});
            }
          }
          break;
        }
        case WriteOp::Kind::kUpdate: {
          bool patchable = false;
          if (options_.cache != nullptr) {
            // Scalar-only change (same type, same refs, same field count)
            // can be patched into resident copies; anything that moves
            // references must invalidate — it changes assembly structure.
            Result<ObjectData> before = store.Get(op.obj.oid);
            patchable = before.ok() && before->type_id == op.obj.type_id &&
                        before->refs == op.obj.refs &&
                        before->fields.size() == op.obj.fields.size();
          }
          status = store.UpdateTxn(result.txn, op.obj, options_.write_file);
          if (status.ok() && options_.cache != nullptr) {
            Result<RecordId> loc = store.Locate(op.obj.oid);
            if (loc.ok()) {
              cache_ops.push_back({loc->page, patchable, op.obj});
            }
          }
          break;
        }
        case WriteOp::Kind::kRemove: {
          // Locate before the removal unregisters the OID.
          RecordId removed{};
          if (options_.cache != nullptr) {
            Result<RecordId> loc = store.Locate(op.oid);
            if (loc.ok()) removed = *loc;
          }
          status = store.RemoveTxn(result.txn, op.oid, options_.write_file);
          if (status.ok() && removed.valid()) {
            cache_ops.push_back({removed.page, /*patch=*/false, {}});
          }
          break;
        }
      }
      if (!status.ok()) break;
      result.ops_applied++;
    }
    if (!status.ok() || job.abort) {
      // Physical undo must happen under the exclusive lock — it mutates
      // the pages queries read.
      Status abort_status = store.AbortTxn(result.txn);
      if (status.ok()) status = abort_status;
      result.aborted = true;
      cache_ops.clear();  // the pages roll back; cached entries stay valid
    } else if (options_.cache != nullptr && !cache_ops.empty()) {
      // Commit-time invalidation, still under the exclusive lock: no reader
      // can observe the new pages before the stale entries are gone, and no
      // entry drops before the outcome is decided.  The durability wait
      // below happens after — a crash between commit record and here just
      // means recovery restarts with a cold (trivially consistent) cache.
      cache_effect = options_.cache->ApplyCommittedWrite(cache_ops);
    }
    next_write_oid_ = store.next_oid();
  }
  if (!result.aborted) {
    // Outside the lock: the durability wait is where concurrent committers
    // pile up and share a single group-commit flush.
    status = store.CommitTxn(result.txn);
  }
  result.status = status;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    aggregate_.GetCounter("service.writes_submitted")->Inc();
    aggregate_.GetCounter("service.write_ops")->Inc(result.ops_applied);
    if (result.aborted) {
      aggregate_.GetCounter("service.writes_aborted")->Inc();
    } else if (status.ok()) {
      aggregate_.GetCounter("service.writes_committed")->Inc();
    }
    if (!status.ok()) {
      aggregate_.GetCounter("service.writes_failed")->Inc();
    }
    // Lazy, like cache.hits/cache.misses on the read side.
    if (cache_effect.invalidated > 0) {
      aggregate_.GetCounter("cache.invalidations")
          ->Inc(cache_effect.invalidated);
    }
    if (cache_effect.patched > 0) {
      aggregate_.GetCounter("cache.patches")->Inc(cache_effect.patched);
    }
  }
  return result;
}

QueryResult QueryService::Execute(QueryJob& job, obs::Registry* job_registry,
                                  std::string* explain) {
  // Shared side of the writer lock: assembly reads race only with other
  // readers; write transactions are exclusive.
  std::shared_lock<std::shared_mutex> store_lock(store_mu_);
  QueryResult result;
  result.client = job.client;
  if (job.tmpl == nullptr) {
    result.status = Status::InvalidArgument("job has no assembly template");
    return result;
  }
  // Private store view: Get() updates per-store stats, so the instance must
  // not be shared across workers.  Buffer and directory are the shared,
  // thread-safe layers underneath.
  ObjectStore store(buffer_, directory_);
  const size_t num_roots = job.roots.size();
  obs::RegistryPublisher publisher(job_registry);
  const uint64_t exec_begin = obs::SpanNowNanos();
  // With no cache configured this is the historical drain, operator for
  // operator; with one, hits are served from resident copies and only the
  // miss set is assembled (still under the shared store lock, so cached and
  // fresh values are mutually consistent).
  cache::CachedAssemblyResult assembled = cache::AssembleThroughCache(
      options_.cache, job.tmpl, &store, job.roots, job.assembly,
      job.batch_size, &publisher, job.on_object);
  result.status = assembled.status;
  result.rows = assembled.rows;
  result.assembly = assembled.assembly;
  const uint64_t batches = assembled.batches;
  // Lazy instruments, like the WAL counters: only queries that actually ran
  // against a cache emit them, so cache-off registries are unchanged.
  if (assembled.cache_hits > 0 || assembled.cache_misses > 0) {
    job_registry->GetCounter("cache.hits")->Inc(assembled.cache_hits);
    job_registry->GetCounter("cache.misses")->Inc(assembled.cache_misses);
  }
  const uint64_t exec_ns = obs::SpanNowNanos() - exec_begin;

  // EXPLAIN ANALYZE summary of the executed (fixed-shape) plan, kept for
  // the slow-query report.
  if (explain != nullptr) {
    const AssemblyStats& s = result.assembly;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "Assembly(window=%zu, scheduler=%s, io_batch=%zu) "
                  "(rows=%llu batches=%llu time=%.3fms)\n",
                  job.assembly.window_size,
                  SchedulerKindName(job.assembly.scheduler),
                  job.assembly.io_batch_pages,
                  static_cast<unsigned long long>(result.rows),
                  static_cast<unsigned long long>(batches),
                  static_cast<double>(exec_ns) / 1e6);
    *explain += line;
    std::snprintf(line, sizeof(line),
                  "  fetched=%llu shared_hits=%llu prebuilt_hits=%llu "
                  "refs=%llu admitted=%llu emitted=%llu aborted=%llu "
                  "dropped=%llu\n",
                  static_cast<unsigned long long>(s.objects_fetched),
                  static_cast<unsigned long long>(s.shared_hits),
                  static_cast<unsigned long long>(s.prebuilt_hits),
                  static_cast<unsigned long long>(s.refs_resolved),
                  static_cast<unsigned long long>(s.complex_admitted),
                  static_cast<unsigned long long>(s.complex_emitted),
                  static_cast<unsigned long long>(s.complex_aborted),
                  static_cast<unsigned long long>(s.objects_dropped));
    *explain += line;
    std::snprintf(line, sizeof(line), "  -> VectorScan(roots=%zu)\n",
                  num_roots);
    *explain += line;
  }
  return result;
}

void QueryService::Account(const QueryResult& result,
                           const obs::Registry& job_registry) {
  std::lock_guard<std::mutex> lock(agg_mu_);
  aggregate_.Merge(job_registry);
  aggregate_.GetCounter("service.jobs_completed")->Inc();
  if (!result.status.ok()) {
    aggregate_.GetCounter("service.jobs_failed")->Inc();
  }
  aggregate_.GetCounter("service.rows")->Inc(result.rows);
  aggregate_.GetCounter("service.objects_dropped")
      ->Inc(result.assembly.objects_dropped);
  // Latency decomposition distributions.  The `_ns` suffix marks them as
  // run-time-dependent for the golden comparator, like elapsed_ns.
  aggregate_.GetHistogram("service.latency.total_ns")->Add(result.total_ns);
  aggregate_.GetHistogram("service.latency.queue_ns")->Add(result.queue_ns);
  aggregate_.GetHistogram("service.latency.io_ns")->Add(result.io_ns);
  aggregate_.GetHistogram("service.latency.cpu_ns")->Add(result.cpu_ns);
  // Per-query attribution rolled up service-wide; under the conservation
  // invariant these equal the disk/buffer deltas of the same window.
  const obs::QueryIoSnapshot& io = result.io;
  aggregate_.GetCounter("service.attributed.disk_reads")->Inc(io.disk_reads);
  aggregate_.GetCounter("service.attributed.disk_writes")
      ->Inc(io.disk_writes);
  aggregate_.GetCounter("service.attributed.read_seek_pages")
      ->Inc(io.read_seek_pages);
  aggregate_.GetCounter("service.attributed.write_seek_pages")
      ->Inc(io.write_seek_pages);
  aggregate_.GetCounter("service.attributed.pages_read")->Inc(io.pages_read);
  aggregate_.GetCounter("service.attributed.coalesced_runs")
      ->Inc(io.coalesced_runs);
  aggregate_.GetCounter("service.attributed.piggyback_pages")
      ->Inc(io.piggyback_pages);
  aggregate_.GetCounter("service.attributed.buffer_hits")
      ->Inc(io.buffer_hits);
  aggregate_.GetCounter("service.attributed.buffer_faults")
      ->Inc(io.buffer_faults);
  aggregate_.GetCounter("service.attributed.retries")->Inc(io.retries);
  aggregate_.GetCounter("service.attributed.checksum_failures")
      ->Inc(io.checksum_failures);
  aggregate_.GetCounter("service.attributed.faults_injected")
      ->Inc(io.faults_injected);
  const std::string prefix = "service.client." + result.client;
  aggregate_.GetCounter(prefix + ".jobs")->Inc();
  aggregate_.GetCounter(prefix + ".rows")->Inc(result.rows);
  aggregate_.GetCounter(prefix + ".objects_dropped")
      ->Inc(result.assembly.objects_dropped);
  aggregate_.GetHistogram(prefix + ".latency.total_ns")
      ->Add(result.total_ns);
}

void QueryService::MaybeReportSlow(
    const std::shared_ptr<obs::QueryContext>& ctx, const QueryResult& result,
    std::string explain) {
  const uint64_t exec_ns = result.io_ns + result.cpu_ns;
  const bool slow =
      options_.slow_query_ns > 0 && exec_ns >= options_.slow_query_ns;
  const bool faulted = result.io.faults_injected > 0;
  const bool failed = !result.status.ok();
  if (!slow && !faulted && !failed) {
    return;
  }
  obs::SlowQueryReport report;
  report.query_id = result.query_id;
  report.client = result.client;
  report.reason = slow ? "latency-threshold" : faulted ? "fault" : "error";
  report.status = result.status.ok() ? "OK" : result.status.ToString();
  report.rows = result.rows;
  report.total_ns = result.total_ns;
  report.queue_ns = result.queue_ns;
  report.io_ns = result.io_ns;
  report.cpu_ns = result.cpu_ns;
  report.io = result.io;
  report.explain = std::move(explain);
  report.timeline = ctx->Timeline();
  report.timeline_dropped = ctx->timeline_dropped();
  std::lock_guard<std::mutex> lock(reports_mu_);
  slow_reports_.push_back(std::move(report));
  while (slow_reports_.size() > kMaxSlowReports) {
    slow_reports_.pop_front();
  }
}

}  // namespace cobra::service
