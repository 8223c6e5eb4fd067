#ifndef UNIKV_CORE_UNIKV_DB_H_
#define UNIKV_CORE_UNIKV_DB_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/anchor_view.h"
#include "core/db.h"
#include "core/dbformat.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "index/hash_index.h"
#include "mem/memtable.h"
#include "util/event_logger.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "vlog/value_log.h"
#include "wal/log_writer.h"

namespace unikv {

class Cache;

/// Counters describing the background work a UniKV instance has done.
/// Exposed through GetProperty("db.stats").
struct UniKVStats {
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t scan_merges = 0;
  uint64_t gcs = 0;
  uint64_t splits = 0;
  uint64_t flush_bytes = 0;
  uint64_t merge_bytes_written = 0;
  uint64_t merge_bytes_read = 0;
  uint64_t gc_bytes_written = 0;
  uint64_t gc_bytes_read = 0;
};

/// Background work done on behalf of one partition (guarded by the DB
/// mutex; reported per partition through db.metrics[.json]).
struct PartitionCounters {
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t scan_merges = 0;
  uint64_t gcs = 0;
  uint64_t splits = 0;
  /// Heat accounting — the substrate for hotness-aware GC scheduling.
  /// Reads count Gets routed into the partition; writes count entries
  /// flushed into it (update frequency is measured at flush routing
  /// time, where keys first meet partition boundaries, not per Put).
  uint64_t heat_reads = 0;
  uint64_t heat_writes = 0;
  /// Byte accounting for per-partition write amplification: logical user
  /// bytes flushed in (the denominator) vs. physical bytes written by
  /// flush/merge/GC on the partition's behalf (the numerator).
  uint64_t user_bytes_flushed = 0;
  uint64_t flush_bytes = 0;
  uint64_t merge_bytes_written = 0;
  uint64_t gc_bytes_written = 0;
};

/// The engine-wide metrics surface: a MetricsRegistry plus cached pointers
/// to the hot-path counters/histograms, so instrumented paths never pay a
/// map lookup. Counters are folded in from the thread-local PerfContext
/// after each operation and after each background job; value-log reads are
/// wired directly (they can run on thread-pool workers).
struct EngineMetrics {
  EngineMetrics();

  /// Adds a PerfContext delta into the engine counters. Skips the vlog_*
  /// fields (counted at source via ValueLogCache::SetCounters, which sees
  /// all threads).
  void FoldPerf(const PerfContext& d);

  MetricsRegistry registry;

  // Read path.
  Counter* gets;
  Counter* memtable_hits;
  Counter* hash_index_lookups;
  Counter* hash_index_probes;
  Counter* hash_index_candidates;
  Counter* bloom_checks;
  Counter* bloom_negatives;
  Counter* bloom_false_positives;
  Counter* unsorted_tables_probed;
  Counter* sorted_seeks;
  Counter* table_cache_hits;
  Counter* table_cache_misses;
  Counter* block_cache_hits;
  Counter* block_cache_misses;
  Counter* block_reads;
  Counter* vlog_reads;
  Counter* vlog_span_reads;
  Counter* vlog_read_bytes;
  Counter* vlog_mmap_reads;

  // Batched read path (DESIGN.md §11).
  Counter* multigets;
  Counter* multiget_keys;
  Counter* multiget_coalesced_reads;
  Counter* multiget_io_bytes_saved;

  // Write path.
  Counter* writes;
  Counter* write_bytes;
  Counter* write_stalls;
  Counter* stall_micros;
  Counter* wal_micros_total;
  Counter* memtable_micros_total;

  // Scans.
  Counter* scans;
  Counter* scan_entries;

  // Sorted anchor view (DESIGN.md §12).
  Counter* anchor_view_builds;  // Views built or extended (installs, recovery).
  Counter* scan_anchor_hits;    // Iterator trees that used a view.
  Gauge* anchor_view_bytes;     // Current total view bytes across partitions.

  // Operation and background-job latencies (microseconds).
  ConcurrentHistogram* get_latency;
  ConcurrentHistogram* write_latency;
  ConcurrentHistogram* scan_latency;
  ConcurrentHistogram* multiget_latency;
  ConcurrentHistogram* multiget_keys_per_batch;
  ConcurrentHistogram* flush_latency;
  ConcurrentHistogram* merge_latency;
  ConcurrentHistogram* scan_merge_latency;
  ConcurrentHistogram* gc_latency;
  ConcurrentHistogram* split_latency;
};

/// The UniKV store: differentiated indexing (hash-indexed UnsortedStore +
/// fully-sorted SortedStore with partial KV separation), dynamic range
/// partitioning, and scan/GC machinery. See DESIGN.md.
class UniKVDB : public DB {
 public:
  UniKVDB(const Options& options, const std::string& dbname);
  ~UniKVDB() override;

  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Status MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  Status Scan(const ReadOptions& options, const Slice& start, int count,
              std::vector<std::pair<std::string, std::string>>* out) override;
  Status CompactAll() override;
  Status FlushMemTable() override;
  Status GetBackgroundError() override;
  bool GetProperty(const Slice& property, std::string* value) override;

  /// Test-only: reintroduces the historical unsafe GC ordering (old value
  /// logs deleted before the manifest install is durable), so the crash
  /// harness can prove it catches ordering bugs. Never set in production.
  static std::atomic<bool> TEST_gc_unsafe_delete_before_install_;

 private:
  friend class DB;
  struct Writer;

  /// One foreground write shard (DESIGN.md §10). Keys are striped across
  /// shards by user-key hash; each shard owns a memtable pair, a WAL
  /// (.swal), a writer deque with LevelDB-style group commit, and its own
  /// stall accounting — so concurrent writers to different shards never
  /// contend. Lock order: mu_ (DB) -> mu (shard) -> log_mu (shard);
  /// err_mu_ is a leaf taken after any of them.
  struct WriteShard {
    WriteShard() : cv(&mu) {}

    /// Guards the writer queue, memtable pointers, rotation, and the
    /// stall wait. Writers take this, never mu_.
    Mutex mu;
    CondVar cv;  // Queue-front handoff + stall wakeup.

    MemTable* mem GUARDED_BY(mu) = nullptr;
    /// Non-null while a rotation awaits flush. Guarded by mu; the flush
    /// worker additionally pins it (Ref under mu) before reading outside.
    MemTable* imm GUARDED_BY(mu) = nullptr;
    std::unique_ptr<WritableFile> wal_file GUARDED_BY(log_mu);
    std::unique_ptr<log::Writer> wal GUARDED_BY(log_mu);
    /// Numbers of the active WAL and (while imm != nullptr) the retired
    /// WAL the imm's contents live in; 0 = no retired WAL. Atomics so the
    /// flush installer can compute the manifest log-number floor.
    std::atomic<uint64_t> wal_number{0};
    std::atomic<uint64_t> imm_wal_number{0};

    std::deque<Writer*> writers GUARDED_BY(mu);
    WriteBatch scratch;  // Group-commit scratch; only the group leader's.

    /// Serializes {sequence allocation, WAL append, own sync} as one
    /// critical section, and cross-shard syncs against rotation. Held by
    /// the group leader (inside mu) and, alone, by sync writers and the
    /// flush installer syncing peer shards. Lock order: mu before log_mu.
    Mutex log_mu;
    /// Lowest sequence the active WAL may hold unsynced: 0 = fully
    /// synced, kSeqAllocating = a group is mid-allocation (transient,
    /// nanoseconds). Published (seq_cst) BEFORE the group allocates its
    /// sequences and reset to 0 only by a Sync covering the append — so
    /// a reader holding sequence C who then sees 0 or a value > C has a
    /// lock-free proof that every sequence <= C on this shard is
    /// durable. Mutated only under log_mu; read lock-free by the
    /// sync-all fast path (see SyncAllShardWals).
    std::atomic<uint64_t> first_unsynced_seq{0};

    /// Scheduler-visible flush signal (set by rotation, cleared by the
    /// flush install). flush_in_progress is scheduler claim state and is
    /// guarded by mu_, not by this shard's mu.
    std::atomic<bool> has_imm{false};
    bool flush_in_progress = false;

    /// Per-shard write-stall accounting; aggregated into db.stats /
    /// db.metrics[.json] / the stats sampler.
    std::atomic<uint64_t> write_stalls{0};
    std::atomic<uint64_t> stall_micros{0};
  };

  Status Recover() EXCLUDES(mu_);
  /// One WAL record (one group-committed batch) read back at recovery.
  struct WalBatch {
    SequenceNumber seq = 0;
    uint32_t count = 0;
    std::string contents;
  };
  /// Reads every batch from one WAL into *out (torn tails are silently
  /// ignored, mid-file corruption is an error). Recovery merges batches
  /// from all shard WALs by sequence number before replaying.
  Status CollectWalBatches(const std::string& fname,
                           std::vector<WalBatch>* out);
  Status RebuildHashIndexes();
  /// Recomputes vlog_garbage_ from the recovered version: each log's size
  /// minus the records the SortedStore pointers still reference.
  void RebuildVlogGarbage() EXCLUDES(mu_);
  Status InsertTableIntoIndex(HashIndex* index, const FileMeta& f);

  /// The shard responsible for `user_key` (stable hash stripe; not
  /// persisted, so write_shards may change across restarts).
  uint32_t ShardOf(const Slice& user_key) const;
  /// Publishes `seq` as visible to readers (CAS-max); called after the
  /// memtable insert, before the writers are acked.
  void AdvanceVisibleSeq(uint64_t seq);

  /// Ensures s->mem has room (rotating memtable+WAL when full). With
  /// `force`, rotates a non-empty memtable unconditionally — the manual
  /// FlushMemTable path. Only the shard's front writer calls this, so the
  /// WAL is never rotated under a concurrent same-shard AddRecord (the
  /// swap itself happens under log_mu against cross-shard syncs). Called
  /// with s->mu held; stall waits block on the shard cv, which is bound
  /// to s->mu, so the lock is released and re-taken inside the wait.
  Status MakeRoomForWrite(WriteShard* s, bool force) REQUIRES(s->mu);
  WriteBatch* BuildBatchGroup(WriteShard* s, Writer** last_writer)
      REQUIRES(s->mu);
  /// Rotates to a fresh WAL; takes s->log_mu itself for the swap. Must
  /// run as the queue-front writer, hence REQUIRES(s->mu).
  Status SwitchWal(WriteShard* s) REQUIRES(s->mu);
  /// The whole write path of one shard: queue, group commit, WAL append +
  /// sync, memtable insert, visibility publish.
  Status WriteToShard(WriteShard* s, const WriteOptions& options,
                      WriteBatch* updates) EXCLUDES(mu_);
  /// Sentinel for WriteShard::first_unsynced_seq: a group has claimed
  /// the shard but not yet allocated its sequences, so its eventual
  /// sequences are unknown and must be assumed low.
  static constexpr uint64_t kSeqAllocating = ~0ull;

  /// Makes every sequence number <= `ceiling` durable — required before
  /// a sync write (ceiling = its last sequence) is acked and before a
  /// flush advances the manifest floor. Fast path: a lock-free scan of
  /// the shards' first_unsynced_seq watermarks proves the prefix durable
  /// without touching any lock (the common case when every writer
  /// syncs). Slow path: a coordinated round — concurrent callers whose
  /// ceiling is covered by an in-flight or completed round wait on it
  /// instead of issuing their own fsync storm, and the round only locks
  /// and fsyncs shards whose watermark says they matter. With `force`
  /// (the flush path) every short-circuit is disabled and every live
  /// WAL is synced: flushes are rare, and an unconditional round keeps
  /// the env call sequence deterministic for twin-run crash tests
  /// (whether a skip fires would otherwise depend on how background
  /// flushes race foreground writers).
  Status SyncAllShardWals(uint64_t ceiling, bool force = false)
      EXCLUDES(sync_mu_);
  /// One shard's share of a sync-all round: re-checks the watermark
  /// under the lock, fsyncs, and clears the watermark on success.
  Status SyncShardWalLocked(WriteShard* t, bool force, uint64_t target)
      REQUIRES(t->log_mu);

  /// Uninstrumented bodies of Write/Scan; the public entry points wrap
  /// them with PerfContext accounting (one fold per op regardless of
  /// which internal return path fires).
  Status WriteImpl(const WriteOptions& options, WriteBatch* updates);
  Status ScanImpl(const ReadOptions& options, const Slice& start, int count,
                  std::vector<std::pair<std::string, std::string>>* out);

  /// Batched PerfContext -> MetricsRegistry folding. Folding the delta on
  /// every op costs ~25 atomic RMWs, which roughly doubles the latency of
  /// a negative point lookup; instead each foreground op calls PerfEndOp
  /// on completion and the accumulated delta is pushed into the registry
  /// once per kPerfFoldBatch ops (plus whenever the calling thread reads
  /// the metrics properties, via FlushPerfPending). Pending deltas are
  /// abandoned — never folded — when the thread switches to a different
  /// DB (the old registry may already be destroyed) or when the user
  /// Reset() the context, so the registry can momentarily lag the
  /// thread-local context by at most one batch.
  void PerfEndOp(PerfContext* perf);
  void FlushPerfPending();

  enum class WorkKind {
    kNone,
    kFlush,
    kMerge,
    kScanMerge,
    kGc,
    kSplit,
  };
  struct WorkItem {
    WorkKind kind = WorkKind::kNone;
    std::shared_ptr<const PartitionState> partition;
    /// For kFlush: index of the shard whose imm is to be flushed.
    int shard = -1;
    /// For kGc: the value logs SelectGcLogs chose, and how many threads
    /// copy out of them.
    std::vector<uint64_t> gc_logs;
    int gc_threads = 1;
  };

  void MaybeScheduleWork() REQUIRES(mu_);

  /// Body of one background worker thread. `options_.background_threads`
  /// of these run concurrently; each picks one schedulable job at a time
  /// (PickWork skips busy partitions), marks its target busy, and executes
  /// it with mu_ released. Jobs in different partitions proceed in
  /// parallel; jobs on the same partition — and concurrent flushes — are
  /// mutually exclusive.
  void BackgroundWorker() EXCLUDES(mu_);

  /// Next schedulable job: skips partitions in busy_partitions_ and the
  /// flush when one is already in flight.
  WorkItem PickWork() REQUIRES(mu_);

  /// Whether *any* work remains (pending or currently running elsewhere's
  /// preconditions still hold) — the raw threshold check, ignoring the
  /// busy set. CompactAll drains on this.
  bool HasWorkPending() REQUIRES(mu_);
  /// The GC predicate, shared by HasWorkPending and PickWork (whose
  /// WorkItem carries the selection to the job), so that a picked GC
  /// always has logs to collect. Fills `*logs` (if
  /// non-null) with the partition's value logs whose dead share is at
  /// least kGcMinDeadShare — under CompactAll, every log with a dead
  /// byte — and `*garbage` with their dead bytes. True when those bytes
  /// reach gc_garbage_threshold (under CompactAll: when non-zero).
  bool SelectGcLogs(const PartitionState& p, std::vector<uint64_t>* logs,
                    uint64_t* garbage) REQUIRES(mu_);
  /// Runs one job start to finish; all I/O, so never under mu_.
  Status DispatchWork(const WorkItem& item) EXCLUDES(mu_);

  struct FlushOutput {
    uint32_t pid = 0;
    FileMeta meta;
    std::vector<std::string> keys;  // Deduplicated user keys, table order.
  };

  /// Flushes `mem` contents to per-partition UnsortedStore tables routed
  /// by `base`'s partition boundaries and fills *outputs. Called without
  /// holding mu_ (takes it briefly for file-number allocation). Does not
  /// assign table_ids, build an edit, or touch the hash indexes — the
  /// caller does that under mu_ after re-validating the routing against
  /// the then-current version (a concurrent split may have moved
  /// boundaries while the tables were being built).
  Status FlushMemTableToUnsorted(MemTable* mem, const VersionPtr& base,
                                 std::vector<FlushOutput>* outputs)
      EXCLUDES(mu_);

  /// True iff every output's [smallest, largest] still maps to the
  /// partition it was built for in `ver`.
  bool RoutingStillValid(const VersionData& ver,
                         const std::vector<FlushOutput>& outputs)
      REQUIRES(mu_);
  Status CompactMemTable(size_t shard_idx) EXCLUDES(mu_);

  Status MergePartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);
  Status ScanMergePartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);
  /// Collects the value logs `item.gc_logs` of `item.partition`: copies
  /// the partition's live values out of them, rewrites its key+pointer
  /// tables (pointers into other logs unchanged), and drops only those
  /// logs from the partition. The key range is split over
  /// `item.gc_threads` threads.
  Status GcPartition(const WorkItem& item) EXCLUDES(mu_);
  Status SplitPartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);

  /// Table + value-log writer shared by merge and GC (compaction.cc).
  class JobOutputs;

  void RemoveObsoleteFiles() EXCLUDES(mu_);
  void RecordBackgroundError(const Status& s) EXCLUDES(mu_, err_mu_);

  /// Renders `db.metrics` / `db.metrics.json`.
  std::string MetricsTextLocked(const VersionData& ver) REQUIRES(mu_);
  std::string MetricsJsonLocked(const VersionData& ver) REQUIRES(mu_);
  /// Dead value-log bytes per partition of `ver` (same order). A log
  /// shared after a split counts toward its first referencing partition
  /// only, so the entries sum to the store's dead log bytes.
  std::vector<uint64_t> GarbageByPartitionLocked(const VersionData& ver)
      REQUIRES(mu_);

  // ---- StatsSampler (stats_sampler.cc) ----

  /// Heat of one partition at sampling time.
  struct PartitionHeat {
    uint32_t pid = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  /// One sampler snapshot: *cumulative* engine counters at ts_micros.
  /// Deltas between consecutive samples are what the EVENTS
  /// `stats_sample` lines and `db.stats.history` report.
  struct StatsSample {
    uint64_t ts_micros = 0;
    uint64_t gets = 0;
    uint64_t writes = 0;
    uint64_t scans = 0;
    uint64_t write_stalls = 0;
    uint64_t stall_micros = 0;
    uint64_t flush_bytes = 0;
    uint64_t merge_bytes_written = 0;
    uint64_t gc_bytes_written = 0;
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
    std::vector<PartitionHeat> partitions;
  };

  /// Body of the sampler thread: every stats_sample_interval_ms, takes a
  /// snapshot under mu_, pushes it into the bounded history ring, and
  /// appends a `stats_sample` delta line to the EVENTS log.
  void StatsSamplerThread() EXCLUDES(mu_);
  StatsSample TakeStatsSampleLocked() REQUIRES(mu_);
  /// Emits one `stats_sample` EVENTS line carrying both the interval
  /// deltas (d_*) and the cumulative values (cum_*) of `cur` vs `prev`.
  void LogStatsSample(const StatsSample& prev, const StatsSample& cur);
  /// Renders the history ring as a JSON array (db.stats.history).
  std::string StatsHistoryJsonLocked() const REQUIRES(mu_);

  /// When `pin` is non-null, table lookups go through it so repeated
  /// probes of the same table within one batch reuse the pinned handle.
  Status GetFromUnsorted(const PartitionState& p,
                         std::vector<uint16_t> candidates,
                         const LookupKey& lkey, std::string* value,
                         bool* found, TableCache::BatchPin* pin = nullptr);
  /// When `dptr`/`deferred` are non-null, a hit on a separated value is
  /// not fetched from its log: *found and *deferred are set and the
  /// decoded pointer stored in *dptr, for the caller to resolve (MultiGet
  /// sorts and coalesces those fetches). `value` then stays untouched.
  /// `probe` (optional, batched callers) carries the last resolved data
  /// block and reusable scratch strings across a run of sorted-order keys.
  Status GetFromSorted(const PartitionState& p, const LookupKey& lkey,
                       std::string* value, bool* found,
                       TableCache::BatchPin* pin = nullptr,
                       ValuePointer* dptr = nullptr, bool* deferred = nullptr,
                       Table::Probe* probe = nullptr);

  /// Body of the batched read path (DESIGN.md §11): one snapshot + shard
  /// pin + version/index capture per batch, per-partition store probes
  /// with table-handle reuse, and a sorted, gap-coalesced value-log fetch
  /// of every separated value the batch touched.
  Status MultiGetImpl(const ReadOptions& options,
                      const std::vector<Slice>& keys,
                      std::vector<std::string>* values,
                      std::vector<Status>* statuses) EXCLUDES(mu_);

  /// Builds a merged internal iterator over memtables and all partitions;
  /// *latest_seq receives the snapshot sequence. FileMeta lists and the
  /// pinned version are captured under a short mu_ hold; the table
  /// iterators themselves (which can do disk I/O) open after it is
  /// released. Partitions whose anchor view exactly covers their unsorted
  /// tables contribute one anchor-guided child instead of one child per
  /// table (DESIGN.md §12).
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* latest_seq) EXCLUDES(mu_);

  /// Replaces (or retires, view == nullptr) a partition's in-memory
  /// anchor view and keeps the anchor_view_bytes gauge in sync.
  void InstallAnchorViewLocked(uint32_t pid, AnchorViewPtr view)
      REQUIRES(mu_);

  /// Install-path maintenance (under mu_, like the survivor
  /// hash-index rebuild it mirrors): builds the post-install view for
  /// `pid` over `tables`, persists it, and records it in `edit`. With
  /// fewer than two tables the view is retired instead. `base` (optional)
  /// is the pre-flush view a flush install extends with `added` in one
  /// merge pass; otherwise the view is rebuilt by walking `tables`.
  /// Failures retire the view (scans fall back to the merging iterator) —
  /// never fatal.
  void MaintainAnchorViewLocked(uint32_t pid,
                                const std::vector<FileMeta>& tables,
                                const AnchorView* base, const FileMeta* added,
                                VersionEdit* edit) REQUIRES(mu_);

  /// Recovery: loads each partition's persisted view (validating coverage
  /// against the recovered unsorted set) and rebuilds missing or stale
  /// ones from the tables themselves.
  Status RecoverAnchorViews() EXCLUDES(mu_);

  // ---- Immutable after Open ----
  Options options_;
  const std::string dbname_;
  Env* env_;
  /// Exclusive claim on dbname_ (the LOCK file), held from Recover until
  /// destruction so a second instance cannot sweep this one's files.
  FileLock* db_lock_ = nullptr;
  InternalKeyComparator icmp_;
  EngineMetrics metrics_;  // Before the caches that hold counter pointers.
  std::unique_ptr<EventLogger> event_log_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<ValueLogCache> vlog_cache_;
  /// MultiGet's partition-group pool, started on first use (FetchPool)
  /// so stores that never ask for multiget_parallelism > 1 run no pool
  /// threads.
  std::unique_ptr<ThreadPool> fetch_pool_;
  ThreadPool* FetchPool();

  // ---- Sharded foreground write path (DESIGN.md §10) ----

  /// Fixed at Open from options_.write_shards (clamped to [1, 64]).
  /// Writers touch only their shard; the DB mutex below guards background
  /// scheduling and version state, never the hot write path.
  std::vector<std::unique_ptr<WriteShard>> shards_;

  /// Global sequence allocator: the last allocated sequence number. A
  /// group leader allocates [n+1, n+count] via fetch_add *inside* its
  /// shard's log_mu critical section, which is what makes gap-cut
  /// recovery sound (see DESIGN.md §10).
  std::atomic<uint64_t> seq_alloc_{0};
  /// Highest sequence published to readers: advanced (CAS-max) after each
  /// group's memtable insert, before its writers are acked. Get and
  /// iterators snapshot this, so acked writes are always visible; a
  /// cross-shard snapshot is best-effort (a lagging group on another
  /// shard may surface later under an older snapshot).
  std::atomic<uint64_t> visible_seq_{0};

  /// Cross-shard sync coordinator (DESIGN.md §10). A sync-all round
  /// promises "every sequence allocated before the round began is
  /// durable"; synced_seq_floor_ records the highest such promise kept.
  /// Callers whose ceiling is already under the floor return instantly;
  /// callers arriving while a round is in flight wait for it and
  /// re-check — so N concurrent sync writers trigger O(1) rounds, not N
  /// fsync storms. sync_mu_ guards only the flags; it is never held
  /// across an fsync or while acquiring any other lock.
  Mutex sync_mu_;
  CondVar sync_cv_;
  bool sync_all_in_flight_ GUARDED_BY(sync_mu_) = false;
  uint64_t synced_seq_floor_ GUARDED_BY(sync_mu_) = 0;

  /// Leaf lock for the sticky background error. Writers check
  /// has_bg_error_ lock-free and only take err_mu_ to read the Status;
  /// nothing else is ever acquired while holding err_mu_.
  Mutex err_mu_;
  Status bg_error_ GUARDED_BY(err_mu_);
  std::atomic<bool> has_bg_error_{false};

  // ---- State guarded by mu_ ----
  Mutex mu_;
  CondVar bg_cv_;       // Signalled when bg work finishes.
  CondVar bg_work_cv_;  // Wakes the background thread.

  /// Not GUARDED_BY(mu_) on purpose: current()/NewFileNumber()/
  /// LastSequence() are internally synchronized and intentionally called
  /// without mu_ (read paths pin a version snapshot); the *mutating*
  /// VersionSet methods (LogAndApply, SetLastSequence, ...) must be
  /// called with mu_ held — a contract the install paths keep by
  /// construction (every LogAndApply site sits in a REQUIRES(mu_) region).
  std::unique_ptr<VersionSet> versions_;

  // Mutable per-partition side state (not versioned).
  std::unordered_map<uint32_t, std::shared_ptr<HashIndex>> indexes_
      GUARDED_BY(mu_);
  /// Immutable per-partition anchor views (DESIGN.md §12). The map is
  /// guarded by mu_; the views themselves are immutable, so readers
  /// snapshot the shared_ptr under mu_ and use it lock-free.
  std::unordered_map<uint32_t, AnchorViewPtr> anchor_views_ GUARDED_BY(mu_);
  /// Dead record bytes per value log, keyed by log number. A merge adds
  /// each shadowed pointer's record; a GC adds the records it copies out
  /// of a log a sibling partition still references. The entry goes when
  /// no partition references the log; Recover rebuilds the map.
  std::unordered_map<uint64_t, uint64_t> vlog_garbage_ GUARDED_BY(mu_);
  std::unordered_map<uint32_t, int> flushes_since_checkpoint_
      GUARDED_BY(mu_);
  std::unordered_map<uint32_t, PartitionCounters> partition_stats_
      GUARDED_BY(mu_);

  std::set<uint64_t> pending_outputs_ GUARDED_BY(mu_);

  /// Background jobs currently executing across all workers. CompactAll,
  /// FlushMemTable, and the destructor drain on this reaching zero.
  int bg_jobs_running_ GUARDED_BY(mu_) = 0;
  /// Partitions with a merge/scan-merge/GC/split in flight; PickWork
  /// skips them so same-partition jobs never overlap.
  std::set<uint32_t> busy_partitions_ GUARDED_BY(mu_);

  bool shutting_down_ GUARDED_BY(mu_) = false;
  /// Count of CompactAll callers currently draining; while nonzero the
  /// scheduler compacts below the usual thresholds.
  int compact_all_ GUARDED_BY(mu_) = 0;
  UniKVStats stats_ GUARDED_BY(mu_);

  /// Bounded ring of sampler snapshots (newest at the back), capped at
  /// options_.stats_history_size. Empty when the sampler is off.
  std::deque<StatsSample> stats_history_ GUARDED_BY(mu_);
  /// Wakes the sampler thread early on shutdown (waits on mu_).
  CondVar sampler_cv_;

  std::vector<std::thread> bg_threads_;
  /// Running only when options_.stats_sample_interval_ms > 0.
  std::thread sampler_thread_;
  /// Guards the lazy creation of fetch_pool_.
  std::once_flag fetch_pool_once_;

  size_t IndexExpectedEntries() const {
    size_t n = options_.unsorted_limit / options_.index_expected_entry_size;
    return n < 1024 ? 1024 : n;
  }
  std::shared_ptr<HashIndex> GetOrCreateIndex(uint32_t pid);
};

}  // namespace unikv

#endif  // UNIKV_CORE_UNIKV_DB_H_
