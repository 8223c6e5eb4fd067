// Background maintenance for UniKVDB: memtable flushes, UnsortedStore ->
// SortedStore merges with partial KV separation, size-based scan merges,
// value-log garbage collection, and dynamic range-partition splits.

#include <algorithm>
#include <chrono>
#include <system_error>
#include <thread>

#include "core/filename.h"
#include "core/merging_iterator.h"
#include "core/unikv_db.h"
#include "util/env.h"

namespace unikv {

// ------------------------------------------------------------- scheduling

void UniKVDB::MaybeScheduleWork() { bg_work_cv_.SignalAll(); }

bool UniKVDB::HasWorkPending() {
  for (const auto& shard : shards_) {
    if (shard->has_imm.load(std::memory_order_acquire)) return true;
  }
  VersionPtr ver = versions_->current();
  for (const auto& p : ver->partitions) {
    const uint64_t unsorted_bytes = p->UnsortedBytes();
    if (unsorted_bytes >= options_.unsorted_limit) return true;
    if (compact_all_ && !p->unsorted.empty()) return true;
    if (options_.enable_partitioning && p->sorted.size() >= 2 &&
        p->LogicalBytes() >= options_.partition_size_limit) {
      return true;
    }
    if (options_.enable_scan_optimization &&
        static_cast<int>(p->unsorted.size()) >= options_.scan_merge_limit) {
      return true;
    }
    if (SelectGcLogs(*p, nullptr, nullptr)) return true;
  }
  return false;
}

namespace {
// GC collects a value log once at least this share of it is dead, counted
// over every partition that references the log. A log never selected
// therefore holds fewer dead than live bytes (space <= 2x live between
// CompactAlls), and GC copies at most one live byte per dead byte it
// reclaims.
constexpr double kGcMinDeadShare = 0.5;
}  // namespace

bool UniKVDB::SelectGcLogs(const PartitionState& p,
                           std::vector<uint64_t>* logs, uint64_t* garbage) {
  uint64_t dead = 0;
  for (const VlogMeta& v : p.vlogs) {
    auto it = vlog_garbage_.find(v.number);
    if (it == vlog_garbage_.end() || it->second == 0) continue;
    if (compact_all_ == 0 &&
        static_cast<double>(it->second) < kGcMinDeadShare * v.size) {
      continue;
    }
    dead += it->second;
    if (logs != nullptr) logs->push_back(v.number);
  }
  if (garbage != nullptr) *garbage = dead;
  return dead > 0 &&
         (compact_all_ > 0 || dead >= options_.gc_garbage_threshold);
}

UniKVDB::WorkItem UniKVDB::PickWork() {
  WorkItem item;
  // Flushes of different shards run concurrently (their key ranges are
  // disjoint hash stripes); a given shard's flushes are serialized by its
  // flush_in_progress claim.
  for (size_t i = 0; i < shards_.size(); i++) {
    if (shards_[i]->has_imm.load(std::memory_order_acquire) &&
        !shards_[i]->flush_in_progress) {
      item.kind = WorkKind::kFlush;
      item.shard = static_cast<int>(i);
      return item;
    }
  }
  VersionPtr ver = versions_->current();

  // 1. Merges (paper: UnsortedLimit reached), largest backlog first.
  uint64_t best = 0;
  for (const auto& p : ver->partitions) {
    if (busy_partitions_.count(p->id)) continue;
    const uint64_t unsorted_bytes = p->UnsortedBytes();
    const bool want =
        unsorted_bytes >= options_.unsorted_limit ||
        (compact_all_ && !p->unsorted.empty());
    if (want && unsorted_bytes >= best) {
      best = unsorted_bytes;
      item.kind = WorkKind::kMerge;
      item.partition = p;
    }
  }
  if (item.kind != WorkKind::kNone) return item;

  // 2. Splits (dynamic range partitioning). A partition with unsorted data
  //    is merged first (the paper treats a split as compaction + GC run
  //    sequentially).
  if (options_.enable_partitioning) {
    for (const auto& p : ver->partitions) {
      if (busy_partitions_.count(p->id)) continue;
      if (p->LogicalBytes() >= options_.partition_size_limit) {
        if (!p->unsorted.empty()) {
          item.kind = WorkKind::kMerge;
        } else if (p->sorted.size() >= 2) {
          item.kind = WorkKind::kSplit;
        } else {
          continue;
        }
        item.partition = p;
        return item;
      }
    }
  }

  // 3. Size-based scan merge (scanMergeLimit unsorted tables).
  if (options_.enable_scan_optimization) {
    for (const auto& p : ver->partitions) {
      if (busy_partitions_.count(p->id)) continue;
      if (static_cast<int>(p->unsorted.size()) >= options_.scan_merge_limit) {
        item.kind = WorkKind::kScanMerge;
        item.partition = p;
        return item;
      }
    }
  }

  // 4. GC: greedy — the partition with the most garbage in its
  //    selectable logs. CompactAll's caller waits for the whole reclaim,
  //    so its GCs spread over background_threads threads each; any other
  //    GC copies on one thread and leaves the CPUs to foreground work.
  best = 0;
  for (const auto& p : ver->partitions) {
    if (busy_partitions_.count(p->id)) continue;
    std::vector<uint64_t> logs;
    uint64_t garbage = 0;
    if (SelectGcLogs(*p, &logs, &garbage) && garbage > best) {
      best = garbage;
      item.kind = WorkKind::kGc;
      item.partition = p;
      item.gc_logs = std::move(logs);
      item.gc_threads = compact_all_ > 0
                            ? std::clamp(options_.background_threads, 1, 16)
                            : 1;
    }
  }
  return item;
}

void UniKVDB::BackgroundWorker() {
  MutexLock lock(&mu_);
  while (true) {
    WorkItem item;
    while (true) {
      if (shutting_down_) break;
      if (!has_bg_error_.load(std::memory_order_acquire)) {
        item = PickWork();
        if (item.kind != WorkKind::kNone) break;
      }
      // Writers signal a rotation (has_imm) without holding mu_, so a
      // notify can slip between this thread's predicate check and its
      // sleep; the timeout bounds that lost-wakeup window.
      bg_work_cv_.TimedWaitFor(std::chrono::milliseconds(100));
    }
    if (shutting_down_) break;

    // Claim the job's target before releasing the mutex so no peer picks
    // the same partition (or the same shard's flush) while this one runs.
    if (item.kind == WorkKind::kFlush) {
      shards_[item.shard]->flush_in_progress = true;
    } else {
      busy_partitions_.insert(item.partition->id);
    }
    bg_jobs_running_++;
    lock.Unlock();

    // Fold what the job itself observed (cache hits, bloom checks, table
    // opens...) into the engine counters; each worker thread has its own
    // PerfContext, so foreground folds never see this work.
    PerfContext* perf = GetPerfContext();
    const PerfContext perf_before = *perf;
    Status s = DispatchWork(item);
    metrics_.FoldPerf(perf->DeltaSince(perf_before));
    if (!s.ok()) {
      RecordBackgroundError(s);
    }
    RemoveObsoleteFiles();

    lock.Lock();
    if (item.kind == WorkKind::kFlush) {
      shards_[item.shard]->flush_in_progress = false;
    } else {
      busy_partitions_.erase(item.partition->id);
    }
    bg_jobs_running_--;
    bg_cv_.SignalAll();
    // Finishing a job can unblock peers: a partition leaving the busy set
    // may be the one a waiting worker needs.
    bg_work_cv_.SignalAll();
  }
  bg_cv_.SignalAll();
}

Status UniKVDB::DispatchWork(const WorkItem& item) {
  switch (item.kind) {
    case WorkKind::kFlush:
      return CompactMemTable(static_cast<size_t>(item.shard));
    case WorkKind::kMerge:
      return MergePartition(item.partition);
    case WorkKind::kScanMerge:
      return ScanMergePartition(item.partition);
    case WorkKind::kGc:
      return GcPartition(item);
    case WorkKind::kSplit:
      return SplitPartition(item.partition);
    case WorkKind::kNone:
      break;
  }
  return Status::OK();
}

void UniKVDB::RecordBackgroundError(const Status& s) {
  // Callers may hold shard locks but never mu_ or err_mu_. err_mu_ is a
  // leaf: nothing else is acquired while it is held.
  {
    MutexLock lock(&err_mu_);
    if (bg_error_.ok()) {
      bg_error_ = s;
    }
    has_bg_error_.store(true, std::memory_order_release);
  }
  // Wake every waiter. The empty lock holds order the flag store before
  // each waiter's predicate re-check, closing the lost-wakeup window for
  // threads already inside their wait.
  { MutexLock lock(&mu_); }
  bg_cv_.SignalAll();
  bg_work_cv_.SignalAll();
  for (auto& shard : shards_) {
    { MutexLock shard_lock(&shard->mu); }
    shard->cv.SignalAll();
  }
}

Status UniKVDB::FlushMemTable() {
  // Rotate via each shard's writer queue: a null batch is the rotation
  // sentinel. Rotating here directly (as this method once did) swapped the
  // WAL under the front group writer's feet — a use-after-free. At the
  // queue front no concurrent append can be in flight.
  Status s = WriteImpl(WriteOptions(), nullptr);
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  bg_work_cv_.SignalAll();
  while (true) {
    if (has_bg_error_.load(std::memory_order_acquire)) break;
    bool imm_pending = false;
    for (const auto& shard : shards_) {
      if (shard->has_imm.load(std::memory_order_acquire)) {
        imm_pending = true;
        break;
      }
    }
    if (!imm_pending) break;
    bg_cv_.Wait();
  }
  return GetBackgroundError();
}

Status UniKVDB::CompactAll() {
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  compact_all_++;
  bg_work_cv_.SignalAll();
  while (!((!HasWorkPending() && bg_jobs_running_ == 0) ||
           has_bg_error_.load(std::memory_order_acquire))) {
    bg_cv_.Wait();
  }
  compact_all_--;
  return GetBackgroundError();
}

// ------------------------------------------------------------------ flush

Status UniKVDB::FlushMemTableToUnsorted(MemTable* mem, const VersionPtr& base,
                                        std::vector<FlushOutput>* outputs) {
  const VersionPtr& ver = base;
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  iter->SeekToFirst();
  Status s;

  // Entries come out in internal-key order; route each run of keys to its
  // partition, building one table per partition touched.
  struct Builder {
    FlushOutput out;
    std::unique_ptr<WritableFile> file;
    std::unique_ptr<TableBuilder> builder;
    std::string first_key, last_key;
  };
  std::unordered_map<uint32_t, Builder> builders;

  for (; iter->Valid(); iter->Next()) {
    Slice internal_key = iter->key();
    Slice user_key = ExtractUserKey(internal_key);
    int pi = ver->FindPartition(user_key);
    const PartitionState& p = *ver->partitions[pi];

    Builder& b = builders[p.id];
    if (b.builder == nullptr) {
      uint64_t number;
      {
        MutexLock lock(&mu_);
        number = versions_->NewFileNumber();
        pending_outputs_.insert(number);
      }
      b.out.pid = p.id;
      b.out.meta.number = number;
      // table_id is assigned by the caller at install time, under mu_,
      // from the then-current version: a concurrent merge may clear this
      // partition's epoch (or a peer flush may not exist — there is only
      // one flush at a time, but merges race with it), so an id computed
      // from `base` here could collide or break newest-first probe order.
      s = env_->NewWritableFile(TableFileName(dbname_, number), &b.file);
      if (!s.ok()) break;
      b.builder =
          std::make_unique<TableBuilder>(options_.table_options, b.file.get());
    }
    b.builder->Add(internal_key, iter->value());
    b.out.meta.logical += user_key.size() + iter->value().size();
    if (b.first_key.empty()) {
      b.first_key = user_key.ToString();
    }
    b.last_key = user_key.ToString();
    if (b.out.keys.empty() || Slice(b.out.keys.back()) != user_key) {
      b.out.keys.push_back(user_key.ToString());
    }
  }
  if (s.ok()) s = iter->status();

  for (auto& [pid, b] : builders) {
    if (b.builder == nullptr) continue;  // Output file creation failed.
    if (s.ok()) {
      s = b.builder->Finish();
    } else {
      b.builder->Abandon();
    }
    if (s.ok()) s = b.file->Sync();
    if (s.ok()) s = b.file->Close();
    if (s.ok()) {
      b.out.meta.size = b.builder->FileSize();
      b.out.meta.smallest = b.first_key;
      b.out.meta.largest = b.last_key;
      outputs->push_back(std::move(b.out));
    }
  }
  if (!s.ok()) {
    // Nothing installs: release the output numbers so RemoveObsoleteFiles
    // can sweep the partial files once the error state clears.
    MutexLock lock(&mu_);
    for (auto& [pid, b] : builders) {
      (void)pid;
      pending_outputs_.erase(b.out.meta.number);
    }
  }
  return s;
}

// ---------------------------------------------------------------- helpers

namespace {

// Layout for SortedStore tables (merge and GC outputs): every entry a
// restart point, so point probes binary-search full keys instead of
// prefix-decoding a scan run (Options::sorted_block_restart_interval).
TableOptions SortedTableOptions(const Options& options) {
  TableOptions opt = options.table_options;
  if (options.sorted_block_restart_interval > 0) {
    opt.block_restart_interval = options.sorted_block_restart_interval;
  }
  if (options.sorted_block_size > 0) {
    opt.block_size = options.sorted_block_size;
  }
  return opt;
}

// Writes a hash-index checkpoint image with an explicit covered-id list.
Status WriteCheckpointFile(Env* env, const std::string& fname,
                           const HashIndex& index,
                           const std::vector<uint16_t>& covered_ids) {
  std::string image;
  PutVarint32(&image, static_cast<uint32_t>(covered_ids.size()));
  for (uint16_t id : covered_ids) PutVarint32(&image, id);
  index.EncodeTo(&image);

  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(image);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  return s;
}

}  // namespace

bool UniKVDB::RoutingStillValid(const VersionData& ver,
                                const std::vector<FlushOutput>& outputs) {
  for (const FlushOutput& out : outputs) {
    // Partition ranges are contiguous, so if both endpoints of the table
    // still map to the partition it was built for, every key in between
    // does too.
    const int pi = ver.FindPartition(Slice(out.meta.smallest));
    if (ver.partitions[pi]->id != out.pid) return false;
    if (ver.FindPartition(Slice(out.meta.largest)) != pi) return false;
  }
  return true;
}

Status UniKVDB::CompactMemTable(size_t shard_idx) {
  const uint64_t start_us = env_->NowMicros();
  WriteShard* shard = shards_[shard_idx].get();
  MemTable* mem;
  {
    MutexLock shard_lock(&shard->mu);
    mem = shard->imm;
  }
  VersionPtr base = versions_->current();
  assert(mem != nullptr);

  // Durability ceiling for the manifest floor. Every sequence allocated
  // before this load is fully appended once the sync-all below has passed
  // its shard's log_mu, and is then durable — so advancing LastSequence
  // to flush_ceiling can never let gap-cut recovery drop an op below the
  // floor. The sync also covers this shard's retiring WAL before the
  // install makes it deletable.
  const uint64_t flush_ceiling = seq_alloc_.load(std::memory_order_acquire);
  Status s = SyncAllShardWals(flush_ceiling, /*force=*/true);
  if (!s.ok()) return s;

  std::vector<FlushOutput> outputs;
  s = FlushMemTableToUnsorted(mem, base, &outputs);
  if (!s.ok()) return s;

  MutexLock lock(&mu_);

  // A concurrent split may have moved partition boundaries while the
  // tables were building; an output routed by the old boundaries could
  // span a new partition edge and must not be installed. Discard and
  // rebuild against the fresh version (splits are rare — in practice this
  // loop body never runs).
  while (!RoutingStillValid(*versions_->current(), outputs)) {
    for (const FlushOutput& out : outputs) {
      pending_outputs_.erase(out.meta.number);
    }
    outputs.clear();
    base = versions_->current();
    lock.Unlock();
    s = FlushMemTableToUnsorted(mem, base, &outputs);
    lock.Lock();
    if (!s.ok()) return s;
  }

  VersionEdit edit;
  // Manifest log-number floor: the smallest WAL that may still hold
  // un-flushed records across all shards. The flushing shard's retiring
  // WAL is covered by this install, so it contributes its *current* WAL;
  // a shard mid-flush elsewhere contributes its retiring one. Rotation
  // publishes imm_wal_number before wal_number (both under the shard's
  // mu, which we hold while reading), so the floor never moves backwards
  // across installs — VersionSet::Apply has no monotonicity guard.
  uint64_t min_wal = 0;
  for (size_t i = 0; i < shards_.size(); i++) {
    WriteShard* t = shards_[i].get();
    MutexLock tl(&t->mu);
    uint64_t n;
    if (i == shard_idx || t->imm == nullptr) {
      n = t->wal_number.load(std::memory_order_relaxed);
    } else {
      n = t->imm_wal_number.load(std::memory_order_relaxed);
    }
    if (min_wal == 0 || n < min_wal) min_wal = n;
  }
  edit.SetLogNumber(min_wal);

  // Assign table ids from the current version, under the same mutex hold
  // that installs the edit. Ids must be allocated here — not while the
  // tables were building — because a merge may have cleared the
  // partition's epoch (restarting ids from 0) or consumed the tables an
  // earlier snapshot-based id was computed against; probe order depends
  // on ids being newest-largest within the installed epoch.
  {
    VersionPtr cur = versions_->current();
    for (FlushOutput& out : outputs) {
      auto p = cur->FindById(out.pid);
      uint16_t next_id = 0;
      if (p != nullptr) {
        for (const FileMeta& f : p->unsorted) {
          if (f.table_id >= next_id) next_id = f.table_id + 1;
        }
      }
      out.meta.table_id = next_id;
      edit.AddUnsortedFile(out.pid, out.meta);
    }
  }

  // Bring the hash indexes up to date before the new version becomes
  // visible (both are installed under this same mutex hold, so readers
  // always observe a consistent pair).
  for (const FlushOutput& out : outputs) {
    auto index = GetOrCreateIndex(out.pid);
    for (const std::string& key : out.keys) {
      index->Insert(key, out.meta.table_id);
    }
  }

  // Maintain each affected partition's anchor view: when the existing
  // view covers the pre-flush tables, one merge pass folds the new table
  // in; otherwise rebuild from the post-flush set (DESIGN.md §12). Apply
  // appends added files after the survivors, so the post-install order is
  // exactly current unsorted + new meta.
  {
    VersionPtr cur = versions_->current();
    for (const FlushOutput& out : outputs) {
      auto cp = cur->FindById(out.pid);
      std::vector<FileMeta> post;
      if (cp != nullptr) post = cp->unsorted;
      post.push_back(out.meta);
      const AnchorView* base_view = nullptr;
      auto it = anchor_views_.find(out.pid);
      if (it != anchor_views_.end() && cp != nullptr &&
          it->second->Covers(cp->unsorted)) {
        base_view = it->second.get();
      }
      MaintainAnchorViewLocked(out.pid, post, base_view,
                               base_view != nullptr ? &out.meta : nullptr,
                               &edit);
    }
  }

  // Periodic hash-index checkpointing (paper: every UnsortedLimit/2 of
  // flushed tables).
  std::vector<uint64_t> checkpoint_numbers;
  if (options_.index_checkpoint_interval > 0) {
    VersionPtr ver = versions_->current();
    for (const FlushOutput& out : outputs) {
      int& counter = flushes_since_checkpoint_[out.pid];
      counter++;
      if (counter < options_.index_checkpoint_interval) continue;

      std::vector<uint16_t> covered;
      for (const auto& p : ver->partitions) {
        if (p->id == out.pid) {
          for (const FileMeta& f : p->unsorted) covered.push_back(f.table_id);
        }
      }
      for (const FlushOutput& o2 : outputs) {
        if (o2.pid == out.pid) covered.push_back(o2.meta.table_id);
      }
      uint64_t number = versions_->NewFileNumber();
      pending_outputs_.insert(number);
      auto index = GetOrCreateIndex(out.pid);
      Status cs = WriteCheckpointFile(
          env_, IndexCheckpointFileName(dbname_, number), *index, covered);
      if (cs.ok()) {
        edit.SetIndexCheckpoint(out.pid, number);
        checkpoint_numbers.push_back(number);
        counter = 0;
      } else {
        pending_outputs_.erase(number);
      }
    }
  }

  // Advance the recovery floor only as far as the sync-all made durable
  // (LogAndApply stamps the manifest from VersionSet's own counter, so it
  // must be raised here, before the install).
  if (flush_ceiling > versions_->LastSequence()) {
    versions_->SetLastSequence(flush_ceiling);
  }
  s = versions_->LogAndApply(&edit);
  for (const FlushOutput& out : outputs) {
    pending_outputs_.erase(out.meta.number);
  }
  for (uint64_t number : checkpoint_numbers) {
    pending_outputs_.erase(number);
  }
  if (s.ok()) {
    stats_.flushes++;
    {
      MutexLock shard_lock(&shard->mu);
      shard->imm->Unref();
      shard->imm = nullptr;
      shard->has_imm.store(false, std::memory_order_release);
      shard->imm_wal_number.store(0, std::memory_order_relaxed);
      shard->cv.SignalAll();  // Stalled writers wait on the shard cv.
    }

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.flush_latency->Add(static_cast<double>(dur));
    uint64_t bytes_written = 0;
    for (const FlushOutput& out : outputs) {
      PartitionCounters& pc = partition_stats_[out.pid];
      pc.flushes++;
      pc.flush_bytes += out.meta.size;
      // Heat + write-amp inputs: entries and logical user bytes landing
      // in the partition. Flush routing is where keys first meet
      // partition boundaries, so update frequency is measured here.
      pc.heat_writes += out.keys.size();
      pc.user_bytes_flushed += out.meta.logical;
      bytes_written += out.meta.size;
    }
    // Accounted here, under mu_, rather than in FlushMemTableToUnsorted:
    // stats_ is mutex-guarded and the builder runs unlocked.
    stats_.flush_bytes += bytes_written;
    JsonBuilder ev;
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("output_tables", outputs.size());
    event_log_->Log("flush", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------ job outputs

// The SortedStore tables and the value log that one merge or GC job
// writes. Every file number is registered in pending_outputs_ (under mu_)
// before its file is created, and released when the writer is destroyed:
// after the install made the files live, or on an error path, which then
// needs no cleanup of its own (RemoveObsoleteFiles sweeps the partial
// files). Tables rotate on physical size or on governed logical size, so a
// partition large in *values* still yields several tables (split points).
// The value log is created on the first value or record appended.
class UniKVDB::JobOutputs {
 public:
  JobOutputs(UniKVDB* db, uint32_t pid)
      : db_(db),
        pid_(pid),
        table_options_(SortedTableOptions(db->options_)),
        rotation_logical_(std::max<uint64_t>(
            db->options_.sorted_table_size,
            db->options_.partition_size_limit / 8)) {}

  JobOutputs(const JobOutputs&) = delete;
  JobOutputs& operator=(const JobOutputs&) = delete;

  ~JobOutputs() {
    if (builder_ != nullptr) builder_->Abandon();
    MutexLock lock(&db_->mu_);
    for (uint64_t number : numbers_) db_->pending_outputs_.erase(number);
  }

  // Appends a value record to the job's log and fills *ptr.
  Status AddValue(const Slice& user_key, const Slice& value,
                  ValuePointer* ptr) {
    Status s = OpenLog();
    return s.ok() ? vlog_->Add(user_key, value, ptr) : s;
  }

  // Appends an encoded, checked record to the job's log and fills *ptr.
  Status AddRecord(const Slice& record, ValuePointer* ptr) {
    Status s = OpenLog();
    return s.ok() ? vlog_->AddRecord(record, ptr) : s;
  }

  // Adds one SortedStore entry that governs `governed` logical bytes: the
  // key plus the inline value or the pointed-to record.
  Status AddEntry(const Slice& internal_key, const Slice& value,
                  uint64_t governed) {
    const Slice user_key = ExtractUserKey(internal_key);
    if (builder_ == nullptr) {
      const uint64_t number = NewOutputNumber();
      Status s = db_->env_->NewWritableFile(
          TableFileName(db_->dbname_, number), &table_file_);
      if (!s.ok()) return s;
      builder_ =
          std::make_unique<TableBuilder>(table_options_, table_file_.get());
      tables_.emplace_back();
      tables_.back().number = number;
      tables_.back().smallest = user_key.ToString();
    }
    builder_->Add(internal_key, value);
    last_key_.assign(user_key.data(), user_key.size());
    tables_.back().logical += governed;
    if (builder_->FileSize() >= db_->options_.sorted_table_size ||
        tables_.back().logical >= rotation_logical_) {
      return FinishTable();
    }
    return Status::OK();
  }

  // Finishes the open table and makes the value log durable.
  Status Finish() {
    Status s = FinishTable();
    if (s.ok() && vlog_ != nullptr) {
      s = vlog_->Sync();
      if (s.ok()) s = vlog_->Close();
      if (s.ok()) bytes_written_ += vlog_->CurrentOffset();
    }
    return s;
  }

  // Adds the finished tables and the value log (if any) to `edit`.
  void AddToEdit(VersionEdit* edit) const {
    for (const FileMeta& f : tables_) edit->AddSortedFile(pid_, f);
    if (vlog_bytes() > 0) {
      edit->AddValueLog(pid_, VlogMeta{vlog_->log_number(), vlog_bytes()});
    }
  }

  size_t num_tables() const { return tables_.size(); }
  uint64_t vlog_bytes() const {
    return vlog_ == nullptr ? 0 : vlog_->CurrentOffset();
  }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  uint64_t NewOutputNumber() {
    MutexLock lock(&db_->mu_);
    const uint64_t number = db_->versions_->NewFileNumber();
    db_->pending_outputs_.insert(number);
    numbers_.push_back(number);
    return number;
  }

  Status OpenLog() {
    if (vlog_ != nullptr) return Status::OK();
    const uint64_t number = NewOutputNumber();
    std::unique_ptr<WritableFile> file;
    Status s = db_->env_->NewWritableFile(
        ValueLogFileName(db_->dbname_, number), &file);
    if (s.ok()) {
      vlog_ = std::make_unique<ValueLogWriter>(std::move(file), pid_, number);
    }
    return s;
  }

  Status FinishTable() {
    if (builder_ == nullptr) return Status::OK();
    Status s = builder_->Finish();
    if (s.ok()) s = table_file_->Sync();
    if (s.ok()) s = table_file_->Close();
    if (s.ok()) {
      tables_.back().size = builder_->FileSize();
      tables_.back().largest = last_key_;
      bytes_written_ += builder_->FileSize();
    }
    builder_.reset();
    table_file_.reset();
    return s;
  }

  UniKVDB* const db_;
  const uint32_t pid_;
  const TableOptions table_options_;
  const uint64_t rotation_logical_;
  std::vector<uint64_t> numbers_;  // Registered in pending_outputs_.
  std::vector<FileMeta> tables_;
  std::unique_ptr<WritableFile> table_file_;
  std::unique_ptr<TableBuilder> builder_;
  std::string last_key_;  // Last user key added to the open table.
  std::unique_ptr<ValueLogWriter> vlog_;
  uint64_t bytes_written_ = 0;
};

namespace {

// Whether any partition of `ver` other than `pid` references value log
// `number` (a log stays shared after a split until each side collects it).
bool LogSharedWith(const VersionData& ver, uint64_t number, uint32_t pid) {
  for (const auto& p : ver.partitions) {
    if (p->id == pid) continue;
    for (const VlogMeta& v : p->vlogs) {
      if (v.number == number) return true;
    }
  }
  return false;
}

}  // namespace

// ------------------------------------------------------------------ merge

Status UniKVDB::MergePartition(std::shared_ptr<const PartitionState> p) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;
  const bool separate = options_.enable_kv_separation;

  // Inputs: every unsorted table + the sorted run.
  std::vector<Iterator*> children;
  uint64_t bytes_read = 0;
  for (const FileMeta& f : p->unsorted) {
    children.push_back(table_cache_->NewIterator(f.number, f.size));
    bytes_read += f.size;
  }
  if (!p->sorted.empty()) {
    std::vector<Iterator*> run;
    for (const FileMeta& f : p->sorted) {
      run.push_back(table_cache_->NewIterator(f.number, f.size));
      bytes_read += f.size;
    }
    children.push_back(NewConcatenatingIterator(icmp_, std::move(run)));
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  // Partial KV separation: only values arriving from the UnsortedStore
  // are appended to the job's log; SortedStore values keep their pointers.
  JobOutputs out(this, pid);
  // Dead record bytes this merge creates, per value log.
  std::unordered_map<uint64_t, uint64_t> garbage_added;
  Status s;
  std::string current_user_key;
  bool has_current_user_key = false;
  std::string out_key;
  std::string rewritten;

  for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
    Slice internal_key = merged->key();
    ParsedInternalKey ikey;
    if (!ParseInternalKey(internal_key, &ikey)) {
      s = Status::Corruption("corrupt internal key during merge");
      break;
    }

    const bool first_occurrence =
        !has_current_user_key ||
        ikey.user_key.compare(Slice(current_user_key)) != 0;
    if (first_occurrence) {
      current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
      has_current_user_key = true;
    } else {
      // An older, shadowed version: drop it. If it pointed into a value
      // log, its record becomes garbage of that log.
      if (ikey.type == kTypeValuePointer) {
        ValuePointer ptr;
        Slice encoded = merged->value();
        if (ptr.DecodeFrom(&encoded)) {
          garbage_added[ptr.log_number] += ptr.size;
        }
      }
      continue;
    }

    if (ikey.type == kTypeDeletion) {
      // The SortedStore is the terminal level: tombstones die here.
      continue;
    }

    Slice out_value = merged->value();
    // Logical bytes: key plus the value the entry governs (the pointed-to
    // record for separated values).
    uint64_t governed = ikey.user_key.size();
    if (ikey.type == kTypeValue && separate &&
        out_value.size() >= options_.value_separation_threshold) {
      // Value arriving from the UnsortedStore: separate it. Values below
      // the separation threshold stay inline (differentiated management
      // of small KVs, paper §Memory overhead discussion).
      ValuePointer ptr;
      s = out.AddValue(ikey.user_key, out_value, &ptr);
      if (!s.ok()) break;
      rewritten.clear();
      ptr.EncodeTo(&rewritten);
      out_value = Slice(rewritten);
      governed += ptr.size;
      out_key.clear();
      AppendInternalKey(&out_key,
                        ParsedInternalKey(ikey.user_key, ikey.sequence,
                                          kTypeValuePointer));
      internal_key = Slice(out_key);
    } else if (ikey.type == kTypeValuePointer) {
      ValuePointer ptr;
      Slice encoded = out_value;
      if (ptr.DecodeFrom(&encoded)) governed += ptr.size;
    } else {
      governed += out_value.size();
    }
    s = out.AddEntry(internal_key, out_value, governed);
  }
  if (s.ok()) s = merged->status();
  if (s.ok()) s = out.Finish();
  if (!s.ok()) return s;

  // Install: the snapshot's unsorted files and previous sorted files are
  // replaced wholesale; old value logs stay (their dead records are GC'ed
  // later). Removals are by file number, so unsorted tables flushed into
  // this partition *while the merge ran* — which are not in the snapshot —
  // survive the edit untouched.
  VersionEdit edit;
  for (const FileMeta& f : p->unsorted) edit.RemoveUnsortedFile(pid, f.number);
  for (const FileMeta& f : p->sorted) edit.RemoveSortedFile(pid, f.number);
  out.AddToEdit(&edit);
  edit.SetIndexCheckpoint(pid, 0);

  MutexLock lock(&mu_);

  // Re-validate the snapshot against the current version. The busy set
  // excludes other merges/GCs/splits on this partition, but flushes are
  // not partition-scoped: any unsorted table present now that was not in
  // the snapshot is a survivor, and the hash index must be rebuilt to
  // cover exactly the survivors (the snapshot tables' entries die with
  // the epoch).
  std::shared_ptr<const PartitionState> cur_p =
      versions_->current()->FindById(pid);
  if (cur_p == nullptr) {
    // Partition vanished (unreachable today: nothing removes partitions).
    return Status::OK();
  }
  std::set<uint64_t> consumed;
  for (const FileMeta& f : p->unsorted) consumed.insert(f.number);
  std::vector<FileMeta> survivors;
  for (const FileMeta& f : cur_p->unsorted) {
    if (!consumed.count(f.number)) survivors.push_back(f);
  }

  // Build the replacement index before installing the edit so a failed
  // table scan leaves both the version and the old index untouched.
  // Survivor scans do I/O under mu_, but survivors exist only when a
  // flush landed during this merge and each is at most one memtable.
  std::shared_ptr<HashIndex> new_index;
  if (!survivors.empty()) {
    new_index = std::make_shared<HashIndex>(IndexExpectedEntries(),
                                            options_.index_num_hashes);
    for (const FileMeta& f : survivors) {
      s = InsertTableIntoIndex(new_index.get(), f);
      if (!s.ok()) return s;
    }
  }

  // The consumed tables' anchor view dies with the epoch; survivors get a
  // fresh view (or none, if fewer than two remain).
  MaintainAnchorViewLocked(pid, survivors, nullptr, nullptr, &edit);

  s = versions_->LogAndApply(&edit);
  if (s.ok()) {
    if (new_index != nullptr) {
      indexes_[pid] = new_index;
    } else {
      auto it = indexes_.find(pid);
      if (it != indexes_.end()) it->second->Clear();
    }
    flushes_since_checkpoint_[pid] = 0;
    uint64_t garbage_total = 0;
    for (const auto& [log, bytes] : garbage_added) {
      vlog_garbage_[log] += bytes;
      garbage_total += bytes;
    }
    stats_.merges++;
    stats_.merge_bytes_read += bytes_read;
    stats_.merge_bytes_written += out.bytes_written();
    partition_stats_[pid].merges++;
    partition_stats_[pid].merge_bytes_written += out.bytes_written();

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.merge_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", out.bytes_written());
    ev.AddUint("input_tables", p->unsorted.size() + p->sorted.size());
    ev.AddUint("output_tables", out.num_tables());
    ev.AddUint("surviving_tables", survivors.size());
    ev.AddUint("vlog_bytes", out.vlog_bytes());
    ev.AddUint("garbage_added", garbage_total);
    event_log_->Log("merge", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------- scan merge

Status UniKVDB::ScanMergePartition(std::shared_ptr<const PartitionState> p) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;
  if (p->unsorted.size() < 2) return Status::OK();

  // The consolidated table reuses the *largest consumed* table_id (free
  // to reuse — every consumed id is removed in the same edit). Taking
  // max+1 instead would collide with, or outrank, tables flushed into the
  // partition while this job runs: those get ids above the snapshot max
  // and are strictly newer, so they must keep the higher probe priority.
  std::vector<Iterator*> children;
  uint16_t new_table_id = 0;
  for (const FileMeta& f : p->unsorted) {
    children.push_back(table_cache_->NewIterator(f.number, f.size));
    if (f.table_id > new_table_id) new_table_id = f.table_id;
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  uint64_t number;
  {
    MutexLock lock(&mu_);
    number = versions_->NewFileNumber();
    pending_outputs_.insert(number);
  }
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(TableFileName(dbname_, number), &file);
  if (!s.ok()) {
    MutexLock lock(&mu_);
    pending_outputs_.erase(number);
    return s;
  }
  TableBuilder builder(options_.table_options, file.get());

  FileMeta meta;
  meta.number = number;
  meta.table_id = new_table_id;
  std::vector<std::string> keys;
  std::string current_user_key;
  bool has_current = false;

  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    Slice internal_key = merged->key();
    Slice user_key = ExtractUserKey(internal_key);
    if (has_current && user_key.compare(Slice(current_user_key)) == 0) {
      continue;  // Older version within the UnsortedStore: drop.
    }
    current_user_key.assign(user_key.data(), user_key.size());
    has_current = true;
    // Tombstones are preserved: they still shadow the SortedStore.
    builder.Add(internal_key, merged->value());
    keys.push_back(current_user_key);
    if (meta.smallest.empty()) meta.smallest = current_user_key;
    meta.largest = current_user_key;
  }
  s = merged->status();
  if (s.ok()) {
    s = builder.Finish();
  } else {
    builder.Abandon();
  }
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    MutexLock lock(&mu_);
    pending_outputs_.erase(number);
    return s;
  }
  meta.size = builder.FileSize();

  VersionEdit edit;
  for (const FileMeta& f : p->unsorted) edit.RemoveUnsortedFile(pid, f.number);
  edit.AddUnsortedFile(pid, meta);
  edit.SetIndexCheckpoint(pid, 0);

  MutexLock lock(&mu_);

  // Tables flushed into this partition while the job ran survive the edit
  // (removals are by number); the rebuilt index must cover them too.
  std::shared_ptr<const PartitionState> cur_p =
      versions_->current()->FindById(pid);
  if (cur_p == nullptr) {
    pending_outputs_.erase(number);
    return Status::OK();
  }
  std::set<uint64_t> consumed;
  for (const FileMeta& f : p->unsorted) consumed.insert(f.number);
  std::vector<FileMeta> survivors;
  for (const FileMeta& f : cur_p->unsorted) {
    if (!consumed.count(f.number)) survivors.push_back(f);
  }

  // Build the replacement index before installing the edit (see
  // MergePartition for the failure-ordering rationale).
  auto new_index = std::make_shared<HashIndex>(IndexExpectedEntries(),
                                               options_.index_num_hashes);
  for (const std::string& key : keys) {
    new_index->Insert(key, new_table_id);
  }
  for (const FileMeta& f : survivors) {
    s = InsertTableIntoIndex(new_index.get(), f);
    if (!s.ok()) {
      pending_outputs_.erase(number);
      return s;
    }
  }

  // Post-install unsorted set: survivors (in current order) followed by
  // the consolidated table (Apply appends adds, then erases removals).
  {
    std::vector<FileMeta> post = survivors;
    post.push_back(meta);
    MaintainAnchorViewLocked(pid, post, nullptr, nullptr, &edit);
  }

  s = versions_->LogAndApply(&edit);
  pending_outputs_.erase(number);
  if (s.ok()) {
    indexes_[pid] = new_index;
    flushes_since_checkpoint_[pid] = 0;
    stats_.scan_merges++;
    partition_stats_[pid].scan_merges++;

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.scan_merge_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("input_tables", p->unsorted.size());
    ev.AddUint("output_tables", 1);
    ev.AddUint("bytes_written", meta.size);
    event_log_->Log("scan_merge", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// --------------------------------------------------------------------- GC

Status UniKVDB::GcPartition(const WorkItem& item) {
  const uint64_t start_us = env_->NowMicros();
  const std::shared_ptr<const PartitionState>& p = item.partition;
  const uint32_t pid = p->id;
  const std::set<uint64_t> selected(item.gc_logs.begin(), item.gc_logs.end());

  // The SortedStore (the authority on liveness) is cut into item.gc_threads
  // runs of whole tables, about equal in logical bytes (a table joins the
  // run its logical midpoint falls in); the tables are disjoint and in key
  // order, so each run is copied into outputs of its own, the first on
  // this thread and the rest on helper threads. Values in the selected
  // logs are fetched and appended to the run's log; every other entry
  // (inline values and pointers into kept logs) is rewritten byte for
  // byte.
  struct Run {
    std::vector<FileMeta> tables;
    std::unique_ptr<JobOutputs> out;
    // Record bytes copied out of each selected log.
    std::unordered_map<uint64_t, uint64_t> copied;
    uint64_t live_bytes_copied = 0;
    Status status;
  };
  const size_t num_runs = std::min<size_t>(
      std::max(item.gc_threads, 1), std::max<size_t>(p->sorted.size(), 1));
  std::vector<Run> runs(num_runs);
  for (Run& run : runs) run.out = std::make_unique<JobOutputs>(this, pid);
  uint64_t total_logical = 0;
  uint64_t bytes_read = 0;
  for (const FileMeta& f : p->sorted) {
    total_logical += f.logical;
    bytes_read += f.size;
  }
  uint64_t logical = 0;
  for (const FileMeta& f : p->sorted) {
    const uint64_t mid = logical + f.logical / 2;
    const size_t r = total_logical == 0
                         ? 0
                         : std::min<size_t>(num_runs - 1,
                                            mid * num_runs / total_logical);
    runs[r].tables.push_back(f);
    logical += f.logical;
  }

  // Live records are fetched a batch at a time through the shared value
  // fetcher (sorted, coalesced, checksum- and key-checked), then appended
  // byte for byte in key order.
  auto copy_run = [this, &selected](Run* run) {
    std::vector<Iterator*> inputs;
    for (const FileMeta& f : run->tables) {
      inputs.push_back(table_cache_->NewIterator(f.number, f.size));
    }
    std::unique_ptr<Iterator> iter(
        NewConcatenatingIterator(icmp_, std::move(inputs)));
    struct Entry {
      std::string internal_key;
      std::string value;  // As stored, or the fetched record when `fetch`.
      ValuePointer ptr;
      bool fetch = false;
      uint64_t governed = 0;
      Status status;
    };
    std::vector<Entry> batch;
    std::vector<ValueFetch> fetches;
    const size_t kBatchSize = 256;

    auto flush_batch = [&]() -> Status {
      fetches.clear();
      for (Entry& e : batch) {
        if (!e.fetch) continue;
        fetches.push_back(ValueFetch{e.ptr, ExtractUserKey(e.internal_key),
                                     &e.value, &e.status,
                                     /*whole_record=*/true});
      }
      if (!fetches.empty()) {
        vlog_cache_->Fetch(&fetches, options_.multiget_coalesce_gap_bytes);
      }
      std::string encoded;
      for (Entry& e : batch) {
        if (!e.status.ok()) return e.status;
        Slice value(e.value);
        if (e.fetch) {
          ValuePointer new_ptr;
          Status rs = run->out->AddRecord(e.value, &new_ptr);
          if (!rs.ok()) return rs;
          encoded.clear();
          new_ptr.EncodeTo(&encoded);
          value = Slice(encoded);
          run->copied[e.ptr.log_number] += e.ptr.size;
          run->live_bytes_copied += e.ptr.size;
        }
        Status rs = run->out->AddEntry(e.internal_key, value, e.governed);
        if (!rs.ok()) return rs;
      }
      batch.clear();
      return Status::OK();
    };

    Status s;
    for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
      Entry e;
      e.internal_key = iter->key().ToString();
      e.value = iter->value().ToString();
      e.governed = ExtractUserKey(iter->key()).size();
      if (ExtractValueType(iter->key()) == kTypeValuePointer) {
        Slice encoded = iter->value();
        if (!e.ptr.DecodeFrom(&encoded)) {
          s = Status::Corruption("bad value pointer during GC");
          break;
        }
        e.governed += e.ptr.size;
        e.fetch = selected.count(e.ptr.log_number) > 0;
      } else {
        e.governed += e.value.size();
      }
      batch.push_back(std::move(e));
      if (batch.size() >= kBatchSize) s = flush_batch();
    }
    if (s.ok()) s = iter->status();
    if (s.ok()) s = flush_batch();
    if (s.ok()) s = run->out->Finish();
    run->status = s;
  };

  // A helper thread folds what it observed into the engine counters, as
  // the worker does for its own thread. A run whose thread cannot be
  // started is copied on this thread.
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < runs.size(); i++) {
    if (runs[i].tables.empty()) continue;
    try {
      helpers.emplace_back([this, &copy_run, run = &runs[i]] {
        PerfContext* perf = GetPerfContext();
        const PerfContext perf_before = *perf;
        copy_run(run);
        metrics_.FoldPerf(perf->DeltaSince(perf_before));
      });
    } catch (const std::system_error&) {
      copy_run(&runs[i]);
    }
  }
  copy_run(&runs[0]);
  for (std::thread& t : helpers) t.join();

  uint64_t live_bytes_copied = 0;
  uint64_t bytes_written = 0;
  uint64_t vlog_bytes = 0;
  size_t output_tables = 0;
  std::unordered_map<uint64_t, uint64_t> copied;
  for (const Run& run : runs) {
    if (!run.status.ok()) return run.status;
    live_bytes_copied += run.live_bytes_copied;
    bytes_written += run.out->bytes_written();
    vlog_bytes += run.out->vlog_bytes();
    output_tables += run.out->num_tables();
    for (const auto& [log, bytes] : run.copied) copied[log] += bytes;
  }
  bytes_read += live_bytes_copied;

  // Install atomically: the old sorted tables and this partition's
  // references to the selected logs go away; kept logs stay referenced,
  // and a selected log shared with a sibling partition survives physically
  // until the sibling collects it too (lazy split completion).
  VersionEdit edit;
  for (const FileMeta& f : p->sorted) edit.RemoveSortedFile(pid, f.number);
  for (uint64_t number : selected) edit.RemoveValueLog(pid, number);
  for (const Run& run : runs) run.out->AddToEdit(&edit);

  MutexLock lock(&mu_);

  // Re-validate: per-partition exclusivity means no other job can have
  // touched this partition's sorted run or value logs, but verify rather
  // than assume — installing over a changed sorted run would lose data.
  {
    std::shared_ptr<const PartitionState> cur_p =
        versions_->current()->FindById(pid);
    bool unchanged = cur_p != nullptr &&
                     cur_p->sorted.size() == p->sorted.size() &&
                     cur_p->vlogs.size() == p->vlogs.size();
    for (size_t i = 0; unchanged && i < p->sorted.size(); i++) {
      unchanged = cur_p->sorted[i].number == p->sorted[i].number;
    }
    for (size_t i = 0; unchanged && i < p->vlogs.size(); i++) {
      unchanged = cur_p->vlogs[i].number == p->vlogs[i].number;
    }
    if (!unchanged) {
      assert(false && "partition changed under an exclusive GC");
      return Status::OK();
    }
  }

  if (TEST_gc_unsafe_delete_before_install_.load(std::memory_order_relaxed)) {
    // Deliberately wrong ordering, enabled only by the crash harness: the
    // old logs must outlive a durable manifest install (the safe path
    // defers deletion to RemoveObsoleteFiles). Deleting first loses live
    // values if we crash before the install becomes durable. Logs still
    // shared with a sibling partition stay (they are not obsolete even
    // after this edit), matching what the buggy ordering would delete.
    VersionPtr cur = versions_->current();
    for (uint64_t number : selected) {
      if (LogSharedWith(*cur, number, pid)) continue;
      vlog_cache_->Evict(0, number);
      // Best-effort: a survivor costs disk until the next obsolete-file
      // sweep retries it; GC itself already succeeded.
      (void)env_->RemoveFile(ValueLogFileName(dbname_, number));
    }
  }
  Status s = versions_->LogAndApply(&edit);
  if (s.ok()) {
    // A selected log a sibling still references keeps its entry, grown by
    // the records copied out of it (dead now: no partition points there);
    // an unreferenced one is obsolete and leaves the map.
    VersionPtr cur = versions_->current();
    uint64_t garbage_reclaimed = 0;
    for (uint64_t number : selected) {
      auto git = vlog_garbage_.find(number);
      if (git == vlog_garbage_.end()) continue;
      garbage_reclaimed += git->second;
      if (LogSharedWith(*cur, number, pid)) {
        git->second += copied[number];
      } else {
        vlog_garbage_.erase(git);
      }
    }
    stats_.gcs++;
    stats_.gc_bytes_read += bytes_read;
    stats_.gc_bytes_written += bytes_written;
    partition_stats_[pid].gcs++;
    partition_stats_[pid].gc_bytes_written += bytes_written;

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.gc_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("selected_vlogs", selected.size());
    ev.AddUint("kept_vlogs", p->vlogs.size() - selected.size());
    ev.AddUint("live_bytes_copied", live_bytes_copied);
    ev.AddUint("garbage_reclaimed", garbage_reclaimed);
    ev.AddUint("output_tables", output_tables);
    ev.AddUint("vlog_bytes", vlog_bytes);
    ev.AddUint("threads", helpers.size() + 1);
    event_log_->Log("gc", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------------ split

Status UniKVDB::SplitPartition(std::shared_ptr<const PartitionState> p) {
  // Preconditions: no unsorted tables, >= 2 sorted tables. The key split
  // is metadata-only because the sorted run already consists of disjoint
  // tables; values are split lazily by later GC (paper: lazy split scheme
  // integrated with GC). The whole job is metadata work, so it runs under
  // one mutex hold against the *current* partition state — the snapshot
  // PickWork saw may be stale by now (a flush can add unsorted tables at
  // any time, and those would straddle the boundary).
  const uint64_t start_us = env_->NowMicros();
  MutexLock lock(&mu_);
  std::shared_ptr<const PartitionState> cur_p =
      versions_->current()->FindById(p->id);
  if (cur_p == nullptr || !cur_p->unsorted.empty() ||
      cur_p->sorted.size() < 2) {
    // Preconditions no longer hold; bail out. The scheduler will merge
    // the new unsorted data first and revisit the split.
    return Status::OK();
  }
  p = cur_p;

  uint64_t total = 0;
  for (const FileMeta& f : p->sorted) total += f.logical;
  uint64_t cum = 0;
  size_t k = 0;
  for (; k + 1 < p->sorted.size(); k++) {
    cum += p->sorted[k].logical;
    if (cum >= total / 2) {
      k++;
      break;
    }
  }
  if (k == 0 || k >= p->sorted.size()) k = p->sorted.size() / 2;
  if (k == 0) k = 1;
  const std::string boundary = p->sorted[k].smallest;

  uint32_t npid = versions_->NewPartitionId();
  VersionEdit edit;
  edit.AddPartition(npid, boundary);
  for (size_t i = k; i < p->sorted.size(); i++) {
    edit.RemoveSortedFile(p->id, p->sorted[i].number);
    edit.AddSortedFile(npid, p->sorted[i]);
  }
  // Both children reference the old value logs until lazy GC segregates
  // the live values.
  for (const VlogMeta& v : p->vlogs) {
    edit.AddValueLog(npid, v);
  }

  // Split preconditions guarantee no unsorted tables, hence no view on
  // either side; drop any stale entry defensively.
  InstallAnchorViewLocked(p->id, nullptr);
  InstallAnchorViewLocked(npid, nullptr);

  Status s = versions_->LogAndApply(&edit);
  if (s.ok()) {
    indexes_[npid] = std::make_shared<HashIndex>(IndexExpectedEntries(),
                                                 options_.index_num_hashes);
    flushes_since_checkpoint_[npid] = 0;
    stats_.splits++;
    partition_stats_[p->id].splits++;

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.split_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", p->id);
    ev.AddUint("new_partition", npid);
    ev.AddUint("duration_micros", dur);
    ev.AddString("boundary", boundary);
    ev.AddUint("tables_moved", p->sorted.size() - k);
    event_log_->Log("split", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// --------------------------------------------------------- obsolete files

void UniKVDB::RemoveObsoleteFiles() {
  const uint64_t start_us = env_->NowMicros();
  std::set<uint64_t> live;
  uint64_t log_number, manifest_number;
  std::vector<std::string> children;
  {
    MutexLock lock(&mu_);
    if (has_bg_error_.load(std::memory_order_acquire)) {
      return;  // Unsure about state: keep everything.
    }
    versions_->AddLiveFiles(&live);
    live.insert(pending_outputs_.begin(), pending_outputs_.end());
    log_number = versions_->LogNumber();
    manifest_number = versions_->ManifestFileNumber();
    // The directory listing must happen while the live set is
    // authoritative. Peer workers register a pending output (under mu_)
    // *before* creating the file, so any file this listing can observe is
    // covered by the snapshot above; with the mutex dropped between the
    // two, a peer could register and create a fresh output in the window
    // and this sweep would delete it.
    if (!env_->GetChildren(dbname_, &children).ok()) return;
  }

  std::string removed;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kWalFile:
      case FileType::kShardWalFile:
        keep = number >= log_number;
        break;
      case FileType::kManifestFile:
        keep = number == manifest_number;
        break;
      case FileType::kTableFile:
      case FileType::kValueLogFile:
      case FileType::kIndexCheckpoint:
      case FileType::kAnchorsFile:
        keep = live.count(number) > 0;
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      case FileType::kCurrentFile:
      case FileType::kUnknown:
        keep = true;
        break;
    }
    if (!keep) {
      if (type == FileType::kTableFile) {
        table_cache_->Evict(number);
      } else if (type == FileType::kValueLogFile) {
        vlog_cache_->Evict(0, number);
      }
      // Best-effort sweep; re-attempted on every pass.
      (void)env_->RemoveFile(dbname_ + "/" + child);
      if (!removed.empty()) removed += ' ';
      removed += child;
    }
  }
  if (!removed.empty()) {
    JsonBuilder ev;
    ev.AddUint("duration_micros", env_->NowMicros() - start_us);
    ev.AddUint("live", live.size());
    ev.AddString("files", removed);
    event_log_->Log("sweep", &ev);
  }
}

}  // namespace unikv
