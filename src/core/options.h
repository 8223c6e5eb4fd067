#ifndef UNIKV_CORE_OPTIONS_H_
#define UNIKV_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "table/table_builder.h"

namespace unikv {

class Cache;
class Env;

/// Options controlling a DB instance (UniKV or one of the baselines).
struct Options {
  /// Environment used for all file access. Defaults to Env::Default().
  Env* env = nullptr;

  bool create_if_missing = true;
  bool error_if_exists = false;

  /// Verify checksums on every read path (table blocks always carry CRCs).
  bool paranoid_checks = false;

  /// Memtable size that triggers a flush.
  size_t write_buffer_size = 4 * 1024 * 1024;

  /// Block cache capacity in bytes (0 disables the shared cache).
  size_t block_cache_size = 8 * 1024 * 1024;

  /// SSTable layout knobs.
  TableOptions table_options;

  // --- UniKV-specific knobs (ignored by baselines) ---

  /// UnsortedStore size that triggers a merge into the SortedStore
  /// (paper: UnsortedLimit, configured by available memory).
  size_t unsorted_limit = 16 * 1024 * 1024;

  /// Partition size (sorted keys + live log data) that triggers a range
  /// split (paper: partitionSizeLimit).
  size_t partition_size_limit = 256 * 1024 * 1024;

  /// Number of UnsortedStore tables that triggers the size-based merge
  /// scan optimization (paper: scanMergeLimit). With the sorted anchor
  /// view (enable_anchor_view) scans no longer pay a per-Next() merge-heap
  /// pop per overlapping table, so the default is raised from 8 to 16:
  /// fewer consolidation rewrites, less background write traffic.
  int scan_merge_limit = 16;

  /// GC of a partition is due when its value logs that are at least half
  /// dead (counted over every partition sharing the log) hold this many
  /// dead bytes; it then collects exactly those logs. CompactAll collects
  /// every log with a dead byte regardless.
  size_t gc_garbage_threshold = 16 * 1024 * 1024;

  /// Target size of each SortedStore SSTable produced by merges/GC.
  size_t sorted_table_size = 2 * 1024 * 1024;

  /// Data-block size for SortedStore tables (merge and GC outputs).
  /// 0 inherits table_options.block_size. Once values separate, a
  /// SortedStore entry is just a key plus a value pointer (~40 bytes), so
  /// a 4KiB block holds only ~100 entries: every point probe lands in a
  /// different block and pays a full block-cache lookup, and batched
  /// sorted probes almost never reuse the previously pinned block.
  /// Larger blocks amortize both (binary search only grows
  /// logarithmically with entries per block); the cost is coarser reads
  /// on a cold block-cache miss. 16KiB keeps that cold read moderate.
  size_t sorted_block_size = 16 * 1024;

  /// Restart interval for SortedStore data blocks (merge and GC outputs).
  /// SortedStore entries are short — a key plus a value pointer once
  /// values separate — so prefix compression saves almost nothing, while
  /// every point probe pays a linear prefix-decode scan between restart
  /// points. 1 makes every entry a restart: the in-block search becomes a
  /// pure binary search over full keys and the scan disappears.
  /// UnsortedStore tables keep table_options.block_restart_interval
  /// (default 16): their blocks carry full values, where the prefix bytes
  /// saved are cheap relative to the payload.
  int sorted_block_restart_interval = 1;

  /// Values shorter than this stay inline in SortedStore tables instead
  /// of being separated into the value logs (the paper's suggested
  /// mitigation for small-KV workloads, where pointer overhead and
  /// scan-time dereferences outweigh the merge savings). 0 separates
  /// everything.
  size_t value_separation_threshold = 64;

  /// Hash functions used for cuckoo-style candidate buckets (paper: n).
  int index_num_hashes = 2;

  /// Average KV size estimate used to size each partition's hash index.
  size_t index_expected_entry_size = 1024;

  /// Size of the reader pool that serves ReadOptions::multiget_parallelism
  /// only; its threads start at the first MultiGet that asks for
  /// parallelism > 1. Scans and GC fetch values on their own thread (the
  /// paper's 32-thread scan pool lost to that here; DESIGN.md §1).
  int value_fetch_threads = 8;

  /// Value-log coalescing for MultiGet, Scan and GC: two value pointers
  /// into the same log whose byte ranges are within this many bytes of
  /// each other are fetched as one span. 0 coalesces only truly
  /// adjacent/overlapping records. Spans are served zero-copy from the
  /// log's memory mapping when the Env supports it (gap bytes then cost
  /// nothing — they are never touched); on the pread fallback the gap
  /// bytes are read and discarded, so the default is one page: bridging
  /// more than a few records' worth to save one syscall is a net loss
  /// there — raise it (e.g. to 64KB) only for cold data on seek-bound
  /// media.
  size_t multiget_coalesce_gap_bytes = 4096;

  /// Background maintenance workers. Each worker picks one job at a time
  /// (memtable flush, merge, scan merge, GC, or split); jobs touching the
  /// same partition are mutually exclusive, jobs in different partitions
  /// run in parallel, and at most one flush is in flight. A GC that
  /// CompactAll waits for also copies its key range on this many threads.
  /// 1 restores the single-threaded scheduler (the crash harness pins
  /// this for deterministic Env-call traces). Clamped to [1, 16] at Open.
  int background_threads = 3;

  /// Foreground write shards. Keys are striped across shards by user-key
  /// hash; each shard owns its own memtable, WAL (.swal), writer queue and
  /// group commit, so concurrent writers to different shards never
  /// contend. Sequence numbers stay globally ordered and sync writes are
  /// durable across all shards, so crash recovery (which merges all shard
  /// WALs by sequence number) keeps the same prefix-cut guarantee as the
  /// single-queue path. 1 (the default) restores the single-queue write
  /// path. Not persisted: the shard count may change across restarts.
  /// Clamped to [1, 64] at Open.
  int write_shards = 1;

  /// Persist a hash-index checkpoint every this many UnsortedStore
  /// flushes (paper: every UnsortedLimit/2 of flushed tables). 0 disables
  /// checkpointing (recovery then rebuilds the index by scanning tables).
  int index_checkpoint_interval = 2;

  // --- Observability knobs ---

  /// Interval, in milliseconds, at which a background StatsSampler thread
  /// snapshots the metrics registry, appends a `stats_sample` line (with
  /// interval deltas) to the EVENTS log, and records the snapshot in the
  /// bounded ring served by the `db.stats.history` property. 0 (the
  /// default) starts no sampler thread at all.
  int stats_sample_interval_ms = 0;

  /// Capacity of the in-memory `db.stats.history` ring (oldest samples
  /// are dropped once it is full). Ignored when the sampler is off.
  size_t stats_history_size = 128;

  /// Size cap for the `<dbname>/EVENTS` structured log. When appending
  /// would exceed it, EVENTS is rotated to EVENTS.old (replacing any
  /// previous rotation), bounding event history to ~2x this value.
  /// 0 disables rotation (unbounded growth, the pre-cap behavior).
  uint64_t max_event_log_bytes = 64 * 1024 * 1024;

  // --- Ablation switches (F12 experiment). All default on. ---

  /// Off: point lookups in the UnsortedStore scan tables newest-to-oldest
  /// instead of consulting the hash index.
  bool enable_hash_index = true;
  /// Off: merges write values inline into SortedStore tables (no value
  /// logs, no GC).
  bool enable_kv_separation = true;
  /// Off: never split; a single partition grows without bound.
  bool enable_partitioning = true;
  /// Off: no size-based merge, no scan readahead hints, and Scan walks a
  /// plain iterator (one point read per separated value) instead of
  /// batching its value fetches.
  bool enable_scan_optimization = true;
  /// Off: scans always k-way-merge the overlapping unsorted tables. On:
  /// each partition with >= 2 unsorted tables maintains a sorted anchor
  /// view (<id>.anchors; DESIGN.md §12) that iterators binary-search once
  /// and then stream with one lockstep cursor per table.
  bool enable_anchor_view = true;

  // --- Baseline LSM knobs ---

  /// L0 file count that triggers an L0->L1 compaction.
  int l0_compaction_trigger = 4;
  /// Target size of L1; each deeper level is 10x larger.
  size_t max_bytes_for_level_base = 10 * 1024 * 1024;
  /// Max sorted runs per level for the tiered baseline.
  int tiered_runs_per_level = 4;
  /// Bloom bits per key for baseline tables (UniKV stores none).
  int baseline_bloom_bits_per_key = 10;
  /// Bucket-directory size for the HashLogDB baseline (its fixed memory
  /// budget; chains lengthen as data outgrows it — motivation Fig. 1).
  size_t hashlog_buckets = 1 << 16;
};

struct ReadOptions {
  /// Checksum verification on reads. Table blocks and value-log records
  /// always carry CRCs and this engine always verifies them on read, so
  /// the default (off) is already satisfied with the stronger behavior;
  /// setting it true asserts the same thing explicitly.
  bool verify_checksums = false;
  /// Insert data blocks read by this operation into the block cache.
  /// Turn off for bulk scans that should not evict the hot working set.
  bool fill_cache = true;

  /// Snapshot sequence for iterators and scans: entries written with a
  /// sequence number greater than this are invisible, giving a
  /// point-in-time read. 0 (the default) reads at the latest visible
  /// sequence. Obtain the current visible sequence from
  /// GetProperty("db.visible-sequence"); the store keeps all versions
  /// until merge time, so recent snapshots stay readable while the
  /// iterator pins its version.
  uint64_t snapshot = 0;

  /// MultiGet only: upper bound on reader tasks a batch may fan out
  /// across the value-fetch pool when its keys span several partitions.
  /// <= 1 (the default) resolves every partition group on the calling
  /// thread. Clamped to the pool size (Options::value_fetch_threads).
  int multiget_parallelism = 1;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging the write.
  bool sync = false;
};

}  // namespace unikv

#endif  // UNIKV_CORE_OPTIONS_H_
