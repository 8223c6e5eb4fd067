#include "core/unikv_db.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "core/db_iter.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "table/cache.h"
#include "util/coding.h"
#include "util/env.h"
#include "wal/log_reader.h"

namespace unikv {

DB::~DB() = default;

// --------------------------------------------------------- engine metrics

EngineMetrics::EngineMetrics() {
  gets = registry.GetCounter("gets");
  memtable_hits = registry.GetCounter("memtable_hits");
  hash_index_lookups = registry.GetCounter("hash_index_lookups");
  hash_index_probes = registry.GetCounter("hash_index_probes");
  hash_index_candidates = registry.GetCounter("hash_index_candidates");
  bloom_checks = registry.GetCounter("bloom_checks");
  bloom_negatives = registry.GetCounter("bloom_negatives");
  bloom_false_positives = registry.GetCounter("bloom_false_positives");
  unsorted_tables_probed = registry.GetCounter("unsorted_tables_probed");
  sorted_seeks = registry.GetCounter("sorted_seeks");
  table_cache_hits = registry.GetCounter("table_cache_hits");
  table_cache_misses = registry.GetCounter("table_cache_misses");
  block_cache_hits = registry.GetCounter("block_cache_hits");
  block_cache_misses = registry.GetCounter("block_cache_misses");
  block_reads = registry.GetCounter("block_reads");
  vlog_reads = registry.GetCounter("vlog_reads");
  vlog_span_reads = registry.GetCounter("vlog_span_reads");
  vlog_read_bytes = registry.GetCounter("vlog_read_bytes");
  vlog_mmap_reads = registry.GetCounter("vlog_mmap_reads");
  multigets = registry.GetCounter("multigets");
  multiget_keys = registry.GetCounter("multiget_keys");
  multiget_coalesced_reads = registry.GetCounter("multiget_coalesced_reads");
  multiget_io_bytes_saved = registry.GetCounter("multiget_io_bytes_saved");
  writes = registry.GetCounter("writes");
  write_bytes = registry.GetCounter("write_bytes");
  write_stalls = registry.GetCounter("write_stalls");
  stall_micros = registry.GetCounter("stall_micros");
  wal_micros_total = registry.GetCounter("wal_micros_total");
  memtable_micros_total = registry.GetCounter("memtable_micros_total");
  scans = registry.GetCounter("scans");
  scan_entries = registry.GetCounter("scan_entries");
  anchor_view_builds = registry.GetCounter("anchor_view_builds");
  scan_anchor_hits = registry.GetCounter("scan_anchor_hits");
  anchor_view_bytes = registry.GetGauge("anchor_view_bytes");

  get_latency = registry.GetHistogram("get_latency_us");
  write_latency = registry.GetHistogram("write_latency_us");
  scan_latency = registry.GetHistogram("scan_latency_us");
  multiget_latency = registry.GetHistogram("multiget_latency_us");
  multiget_keys_per_batch = registry.GetHistogram("multiget_keys_per_batch");
  flush_latency = registry.GetHistogram("flush_latency_us");
  merge_latency = registry.GetHistogram("merge_latency_us");
  scan_merge_latency = registry.GetHistogram("scan_merge_latency_us");
  gc_latency = registry.GetHistogram("gc_latency_us");
  split_latency = registry.GetHistogram("split_latency_us");
}

void EngineMetrics::FoldPerf(const PerfContext& d) {
  if (d.gets) gets->Add(d.gets);
  if (d.memtable_hits) memtable_hits->Add(d.memtable_hits);
  if (d.hash_index_lookups) hash_index_lookups->Add(d.hash_index_lookups);
  if (d.hash_index_probes) hash_index_probes->Add(d.hash_index_probes);
  if (d.hash_index_candidates) {
    hash_index_candidates->Add(d.hash_index_candidates);
  }
  if (d.bloom_checks) bloom_checks->Add(d.bloom_checks);
  if (d.bloom_negatives) bloom_negatives->Add(d.bloom_negatives);
  if (d.bloom_false_positives) {
    bloom_false_positives->Add(d.bloom_false_positives);
  }
  if (d.unsorted_tables_probed) {
    unsorted_tables_probed->Add(d.unsorted_tables_probed);
  }
  if (d.sorted_seeks) sorted_seeks->Add(d.sorted_seeks);
  if (d.table_cache_hits) table_cache_hits->Add(d.table_cache_hits);
  if (d.table_cache_misses) table_cache_misses->Add(d.table_cache_misses);
  if (d.block_cache_hits) block_cache_hits->Add(d.block_cache_hits);
  if (d.block_cache_misses) block_cache_misses->Add(d.block_cache_misses);
  if (d.block_reads) block_reads->Add(d.block_reads);
  if (d.writes) writes->Add(d.writes);
  if (d.write_stall_micros) stall_micros->Add(d.write_stall_micros);
  if (d.write_wal_micros) wal_micros_total->Add(d.write_wal_micros);
  if (d.write_memtable_micros) {
    memtable_micros_total->Add(d.write_memtable_micros);
  }
  if (d.scans) scans->Add(d.scans);
  if (d.multigets) multigets->Add(d.multigets);
  if (d.multiget_keys) multiget_keys->Add(d.multiget_keys);
  if (d.multiget_coalesced_reads) {
    multiget_coalesced_reads->Add(d.multiget_coalesced_reads);
  }
  if (d.multiget_io_bytes_saved) {
    multiget_io_bytes_saved->Add(d.multiget_io_bytes_saved);
  }
}

namespace {

// Per-thread registry-folding window (see PerfEndOp in unikv_db.h).
// `owner` is compared by address only and never dereferenced: when the
// thread moves on to a different DB the old EngineMetrics may be gone, so
// the pending window is dropped rather than folded.
struct PerfFoldState {
  const void* owner = nullptr;  // &metrics_ of the DB the window belongs to.
  PerfContext last;             // Context snapshot at the last fold.
  uint32_t ops = 0;             // Foreground ops since the last fold.
  uint32_t sample_tick = 0;     // Latency-clock sampling phase for Get.
};
constinit thread_local PerfFoldState tls_fold;

constexpr uint32_t kPerfFoldBatch = 64;
constexpr uint32_t kPerfSampleEvery = 32;

}  // namespace

void UniKVDB::PerfEndOp(PerfContext* perf) {
  PerfFoldState& fs = tls_fold;
  if (fs.owner != &metrics_ || fs.last.resets != perf->resets) {
    // The pending window belongs to another DB (whose registry may be
    // gone) or was invalidated by a Reset(); abandon it and start a fresh
    // window here. The op that just finished is dropped from the
    // registry, matching the at-most-one-batch-lag contract.
    fs.owner = &metrics_;
    fs.last = *perf;
    fs.ops = 0;
    return;
  }
  if (++fs.ops >= kPerfFoldBatch) {
    metrics_.FoldPerf(perf->DeltaSince(fs.last));
    fs.last = *perf;
    fs.ops = 0;
  }
}

void UniKVDB::FlushPerfPending() {
  PerfFoldState& fs = tls_fold;
  PerfContext* perf = GetPerfContext();
  if (fs.owner != &metrics_ || fs.last.resets != perf->resets) return;
  metrics_.FoldPerf(perf->DeltaSince(fs.last));
  fs.last = *perf;
  fs.ops = 0;
}

Status DB::Scan(const ReadOptions& options, const Slice& start, int count,
                std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // Non-positive counts are an empty scan, not an error. (Callers that
  // sized buffers from `count` have been bitten by a negative int turning
  // into a huge size_t.)
  if (count <= 0) return Status::OK();
  std::unique_ptr<Iterator> iter(NewIterator(options));
  for (iter->Seek(start); iter->Valid() && count > 0; iter->Next(), count--) {
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  return iter->status();
}

Status DB::MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                    std::vector<std::string>* values,
                    std::vector<Status>* statuses) {
  values->clear();
  values->resize(keys.size());
  statuses->assign(keys.size(), Status::OK());
  Status first_err;
  for (size_t i = 0; i < keys.size(); i++) {
    Status s = Get(options, keys[i], &(*values)[i]);
    (*statuses)[i] = s;
    if (!s.ok() && !s.IsNotFound() && first_err.ok()) first_err = s;
  }
  return first_err;
}

Status DestroyDB(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  return RemoveDirRecursively(env, name);
}

// ------------------------------------------------------------- lifecycle

std::atomic<bool> UniKVDB::TEST_gc_unsafe_delete_before_install_{false};

UniKVDB::UniKVDB(const Options& options, const std::string& dbname)
    : options_(options),
      dbname_(dbname),
      sync_cv_(&sync_mu_),
      bg_cv_(&mu_),
      bg_work_cv_(&mu_),
      sampler_cv_(&mu_) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  options_.env = env_;
  options_.write_shards = std::clamp(options_.write_shards, 1, 64);
  shards_.reserve(options_.write_shards);
  for (int i = 0; i < options_.write_shards; i++) {
    shards_.push_back(std::make_unique<WriteShard>());
  }
  if (options_.block_cache_size > 0) {
    block_cache_.reset(NewLRUCache(options_.block_cache_size));
  }
  table_cache_ = std::make_unique<TableCache>(
      env_, dbname_, options_.table_options, block_cache_.get());
  vlog_cache_ = std::make_unique<ValueLogCache>(env_, dbname_);
  vlog_cache_->SetCounters(metrics_.vlog_reads, metrics_.vlog_span_reads,
                           metrics_.vlog_read_bytes,
                           metrics_.vlog_mmap_reads);
  event_log_ = std::make_unique<EventLogger>(env_, dbname_,
                                             options_.max_event_log_bytes);
  versions_ = std::make_unique<VersionSet>(env_, dbname_);
}

UniKVDB::~UniKVDB() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    bg_work_cv_.SignalAll();
    sampler_cv_.SignalAll();
    while (bg_jobs_running_ != 0) bg_cv_.Wait();
  }
  for (std::thread& t : bg_threads_) {
    if (t.joinable()) t.join();
  }
  if (sampler_thread_.joinable()) sampler_thread_.join();
  for (auto& s : shards_) {
    // Workers are joined; this thread is the last owner, but Unref frees
    // the memtable, so hold the shard capability for the annotations.
    MutexLock shard_lock(&s->mu);
    if (s->mem != nullptr) s->mem->Unref();
    if (s->imm != nullptr) s->imm->Unref();
  }
  if (db_lock_ != nullptr) {
    // Destructor: nowhere to report. The lock dies with the process
    // either way; the next Open re-locks from scratch.
    (void)env_->UnlockFile(db_lock_);
    db_lock_ = nullptr;
  }
}

Status DB::Open(const Options& options, const std::string& name, DB** dbptr) {
  return UniKVDB::Open(options, name, dbptr);
}

Status UniKVDB::Open(const Options& options, const std::string& name,
                     DB** dbptr) {
  *dbptr = nullptr;
  auto db = std::make_unique<UniKVDB>(options, name);
  Status s = db->Recover();
  if (!s.ok()) {
    // The destructor joins the (not yet started) background machinery.
    return s;
  }
  const int workers = std::clamp(db->options_.background_threads, 1, 16);
  db->bg_threads_.reserve(workers);
  for (int i = 0; i < workers; i++) {
    db->bg_threads_.emplace_back(
        [raw = db.get()] { raw->BackgroundWorker(); });
  }
  if (db->options_.stats_sample_interval_ms > 0) {
    db->sampler_thread_ =
        std::thread([raw = db.get()] { raw->StatsSamplerThread(); });
  }
  *dbptr = db.release();
  return Status::OK();
}

Status UniKVDB::Recover() {
  // Claim the directory before touching any state in it. Two instances
  // sweeping the same directory delete each other's live tables — seen
  // in practice when two test binaries shared a scratch dir — so a
  // second Open fails fast here instead.
  // Usually exists already; if creation truly failed, LockFile fails
  // next with the actual errno.
  (void)env_->CreateDir(dbname_);
  Status s = env_->LockFile(LockFileName(dbname_), &db_lock_);
  if (!s.ok()) return s;
  s = versions_->Recover(options_.create_if_missing, options_.error_if_exists);
  if (!s.ok()) return s;

  // Collect WAL files newer than the manifest's log number: per-shard
  // .swal files plus legacy single-queue .wal files (a DB written before
  // sharding, or with a different shard count, recovers the same way —
  // the shard mapping is not persisted).
  std::vector<std::string> children;
  s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> wal_numbers;
  std::vector<std::string> wal_files;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        (type == FileType::kWalFile || type == FileType::kShardWalFile) &&
        number >= versions_->LogNumber()) {
      wal_numbers.push_back(number);
      wal_files.push_back(dbname_ + "/" + child);
    }
  }

  // Gap-cut replay (DESIGN.md §10): batches from all WALs are merged by
  // sequence number and replayed contiguously from the manifest floor;
  // the run stops at the first missing sequence. A gap can only arise
  // from batches that were appended but never made durable, and the
  // write path never acks a sync write (nor advances the manifest floor)
  // before syncing *every* shard's WAL — so everything beyond a gap is
  // unacked by construction and safe to drop.
  std::vector<WalBatch> batches;
  for (const std::string& fname : wal_files) {
    s = CollectWalBatches(fname, &batches);
    if (!s.ok()) return s;
  }
  std::sort(batches.begin(), batches.end(),
            [](const WalBatch& a, const WalBatch& b) { return a.seq < b.seq; });

  // The manifest floor F promises every sequence <= F is durable — in a
  // table or in a surviving WAL — but not *which*: a flush advances F to
  // the sync-all ceiling, which covers records living only in other
  // shards' current WALs. So batches at or below F are replayed
  // unconditionally (re-flushing data that also sits in a table is a
  // harmless duplicate at an identical sequence); holes below F are
  // expected, they are the retired WALs. Above F contiguity is required.
  MemTable* recovered = new MemTable(icmp_);
  recovered->Ref();
  const SequenceNumber floor = versions_->LastSequence();
  SequenceNumber next = floor + 1;
  WriteBatch batch;
  for (const WalBatch& wb : batches) {
    const SequenceNumber last = wb.seq + wb.count - 1;
    if (last > floor && wb.seq > next) break;  // Gap: never acked beyond it.
    batch.SetContents(wb.contents);
    s = batch.InsertInto(recovered);
    if (!s.ok()) {
      recovered->Unref();
      return s;
    }
    if (last >= next) next = last + 1;
  }
  const SequenceNumber max_seq = next - 1;
  versions_->SetLastSequence(max_seq);
  seq_alloc_.store(max_seq, std::memory_order_relaxed);
  visible_seq_.store(max_seq, std::memory_order_relaxed);

  // Flush recovered entries so the old WALs can be retired, then start a
  // fresh WAL per shard.
  VersionEdit edit;
  if (recovered->NumEntries() > 0) {
    VersionPtr base = versions_->current();
    std::vector<FlushOutput> new_tables;
    s = FlushMemTableToUnsorted(recovered, base, &new_tables);
    if (!s.ok()) {
      recovered->Unref();
      return s;
    }
    // Recovery is single-threaded: `base` is still current, so the
    // routing cannot have moved and table ids come straight from it.
    for (FlushOutput& out : new_tables) {
      auto p = base->FindById(out.pid);
      uint16_t next_id = 0;
      if (p != nullptr) {
        for (const FileMeta& f : p->unsorted) {
          if (f.table_id >= next_id) next_id = f.table_id + 1;
        }
      }
      out.meta.table_id = next_id;
      edit.AddUnsortedFile(out.pid, out.meta);
      MutexLock lock(&mu_);
      stats_.flush_bytes += out.meta.size;
    }
  }
  recovered->Unref();

  uint64_t min_wal = 0;
  for (auto& shard : shards_) {
    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> lfile;
    s = env_->NewWritableFile(ShardWalFileName(dbname_, number), &lfile);
    if (!s.ok()) return s;
    // Recovery is single-threaded, but the shard capabilities keep the
    // field annotations uniform (wal under log_mu, mem under mu).
    MutexLock shard_lock(&shard->mu);
    MutexLock log_lock(&shard->log_mu);
    shard->wal_file = std::move(lfile);
    shard->wal = std::make_unique<log::Writer>(shard->wal_file.get());
    shard->wal_number.store(number, std::memory_order_relaxed);
    shard->mem = new MemTable(icmp_);
    shard->mem->Ref();
    if (min_wal == 0 || number < min_wal) min_wal = number;
  }
  edit.SetLogNumber(min_wal);
  {
    MutexLock lock(&mu_);
    s = versions_->LogAndApply(&edit);
    pending_outputs_.clear();
  }
  if (!s.ok()) return s;

  s = RebuildHashIndexes();
  if (!s.ok()) return s;

  RebuildVlogGarbage();

  s = RecoverAnchorViews();
  if (!s.ok()) return s;

  RemoveObsoleteFiles();
  return Status::OK();
}

namespace {
struct WalReporter : public log::Reader::Reporter {
  Status* status;
  void Corruption(size_t /*bytes*/, const Status& s) override {
    if (status != nullptr && status->ok()) *status = s;
  }
};
}  // namespace

Status UniKVDB::CollectWalBatches(const std::string& fname,
                                  std::vector<WalBatch>* out) {
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  Status read_status;
  WalReporter reporter;
  reporter.status = &read_status;
  log::Reader reader(file.get(), &reporter, true);
  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) {
      read_status = Status::Corruption("WAL record too small");
      break;
    }
    batch.SetContents(record);
    WalBatch wb;
    wb.seq = batch.Sequence();
    wb.count = static_cast<uint32_t>(batch.Count());
    wb.contents.assign(record.data(), record.size());
    out->push_back(std::move(wb));
  }
  return read_status;
}

std::shared_ptr<HashIndex> UniKVDB::GetOrCreateIndex(uint32_t pid) {
  auto it = indexes_.find(pid);
  if (it != indexes_.end()) return it->second;
  auto index = std::make_shared<HashIndex>(IndexExpectedEntries(),
                                           options_.index_num_hashes);
  indexes_[pid] = index;
  return index;
}

Status UniKVDB::InsertTableIntoIndex(HashIndex* index, const FileMeta& f) {
  std::unique_ptr<Iterator> iter(table_cache_->NewIterator(f.number, f.size));
  std::string prev_user_key;
  bool has_prev = false;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    Slice user_key = ExtractUserKey(iter->key());
    if (!has_prev || Slice(prev_user_key) != user_key) {
      index->Insert(user_key, f.table_id);
      prev_user_key.assign(user_key.data(), user_key.size());
      has_prev = true;
    }
  }
  return iter->status();
}

Status UniKVDB::RebuildHashIndexes() {
  VersionPtr ver = versions_->current();
  for (const auto& p : ver->partitions) {
    auto index = std::make_shared<HashIndex>(IndexExpectedEntries(),
                                             options_.index_num_hashes);
    std::set<uint16_t> covered;
    if (p->index_checkpoint != 0) {
      // Load the checkpoint image: [count varint32][table ids varint32...]
      // [HashIndex image].
      std::string fname = IndexCheckpointFileName(dbname_, p->index_checkpoint);
      uint64_t size;
      Status s = env_->GetFileSize(fname, &size);
      if (s.ok()) {
        std::unique_ptr<SequentialFile> file;
        s = env_->NewSequentialFile(fname, &file);
        if (s.ok()) {
          std::string buf;
          buf.resize(size);
          Slice contents;
          s = file->Read(size, &contents, buf.data());
          if (s.ok()) {
            Slice input = contents;
            uint32_t count = 0;
            if (GetVarint32(&input, &count)) {
              bool ok = true;
              for (uint32_t i = 0; i < count && ok; i++) {
                uint32_t id;
                ok = GetVarint32(&input, &id);
                if (ok) covered.insert(static_cast<uint16_t>(id));
              }
              if (ok && index->DecodeFrom(input).ok()) {
                // Loaded; fall through to replay uncovered tables.
              } else {
                covered.clear();
                index->Clear();
              }
            }
          }
        }
      }
      // On any checkpoint trouble fall back to a full rebuild.
    }
    for (const FileMeta& f : p->unsorted) {
      if (covered.count(f.table_id)) continue;
      Status s = InsertTableIntoIndex(index.get(), f);
      if (!s.ok()) return s;
    }
    indexes_[p->id] = index;
    flushes_since_checkpoint_[p->id] = 0;
  }
  return Status::OK();
}

void UniKVDB::RebuildVlogGarbage() {
  VersionPtr ver = versions_->current();
  // Record bytes the SortedStore pointers reference, per log. Pointers
  // live only in SortedStore tables: flushes write inline values. A table
  // that cannot be read leaves its partition's logs without an entry (no
  // GC until a merge counts garbage again); the read paths report the
  // damage, so Open does not fail on it.
  std::unordered_map<uint64_t, uint64_t> live;
  std::set<uint64_t> unknown;
  for (const auto& p : ver->partitions) {
    if (p->vlogs.empty()) continue;
    bool readable = true;
    for (size_t i = 0; readable && i < p->sorted.size(); i++) {
      const FileMeta& f = p->sorted[i];
      std::unique_ptr<Iterator> iter(table_cache_->NewIterator(
          f.number, f.size, nullptr, /*fill_cache=*/false));
      for (iter->SeekToFirst(); readable && iter->Valid(); iter->Next()) {
        if (ExtractValueType(iter->key()) != kTypeValuePointer) continue;
        ValuePointer ptr;
        Slice encoded = iter->value();
        readable = ptr.DecodeFrom(&encoded);
        if (readable) live[ptr.log_number] += ptr.size;
      }
      readable = readable && iter->status().ok();
    }
    if (!readable) {
      for (const VlogMeta& v : p->vlogs) unknown.insert(v.number);
    }
  }
  MutexLock lock(&mu_);
  vlog_garbage_.clear();
  for (const auto& p : ver->partitions) {
    for (const VlogMeta& v : p->vlogs) {
      const uint64_t referenced = live[v.number];
      if (!unknown.count(v.number) && v.size > referenced) {
        vlog_garbage_[v.number] = v.size - referenced;
      }
    }
  }
}

// ---------------------------------------------------- anchor views (§12)

void UniKVDB::InstallAnchorViewLocked(uint32_t pid, AnchorViewPtr view) {
  auto it = anchor_views_.find(pid);
  if (it != anchor_views_.end()) {
    metrics_.anchor_view_bytes->Add(
        -static_cast<int64_t>(it->second->byte_size));
    anchor_views_.erase(it);
  }
  if (view != nullptr) {
    metrics_.anchor_view_bytes->Add(static_cast<int64_t>(view->byte_size));
    anchor_views_.emplace(pid, std::move(view));
  }
}

void UniKVDB::MaintainAnchorViewLocked(uint32_t pid,
                                       const std::vector<FileMeta>& tables,
                                       const AnchorView* base,
                                       const FileMeta* added,
                                       VersionEdit* edit) {
  if (!options_.enable_anchor_view || tables.size() < 2) {
    // A single table is already sorted; nothing to accelerate. Retire
    // the view (the edit also drops the backing file from the live set,
    // so RemoveObsoleteFiles sweeps it).
    InstallAnchorViewLocked(pid, nullptr);
    edit->SetAnchorView(pid, 0);
    return;
  }

  const int restart_interval = options_.table_options.block_restart_interval;
  AnchorView built;
  Status s;
  if (base != nullptr && added != nullptr) {
    // Flush install: one merge pass over the existing view and the new
    // table instead of re-reading every covered table.
    s = MergeAnchorView(icmp_, table_cache_.get(), *base, *added,
                        restart_interval, &built);
  } else {
    s = BuildAnchorView(icmp_, table_cache_.get(), tables, restart_interval,
                        &built);
  }
  if (!s.ok()) {
    // View maintenance is never fatal: retire it and let scans fall back
    // to the merging iterator until the next install rebuilds it.
    InstallAnchorViewLocked(pid, nullptr);
    edit->SetAnchorView(pid, 0);
    return;
  }

  // Persist before the manifest edit lands; mu_ is held through
  // LogAndApply, so the file becomes live atomically with the edit (same
  // install-time I/O precedent as InsertTableIntoIndex). On a write
  // failure keep the view in memory only — RemoveObsoleteFiles sweeps
  // the orphan.
  const uint64_t number = versions_->NewFileNumber();
  Status ws = WriteAnchorViewFile(
      env_, AnchorViewFileName(dbname_, number), pid, built);
  if (ws.ok()) {
    built.file_number = number;
    edit->SetAnchorView(pid, number);
  } else {
    built.file_number = 0;
    edit->SetAnchorView(pid, 0);
  }
  metrics_.anchor_view_builds->Inc();
  InstallAnchorViewLocked(
      pid, std::make_shared<const AnchorView>(std::move(built)));
}

Status UniKVDB::RecoverAnchorViews() {
  if (!options_.enable_anchor_view) return Status::OK();
  const int restart_interval = options_.table_options.block_restart_interval;
  VersionPtr ver = versions_->current();
  for (const auto& p : ver->partitions) {
    if (p->unsorted.size() < 2) continue;
    AnchorView view;
    bool have = false;
    if (p->anchor_view != 0) {
      Status s = LoadAnchorViewFile(
          env_, AnchorViewFileName(dbname_, p->anchor_view), p->id, &view);
      if (s.ok() && view.Covers(p->unsorted)) {
        view.file_number = p->anchor_view;
        have = true;
      }
      // A missing, corrupt, or stale file (e.g. the manifest edit landed
      // but the crash hit before/after unevenly) is not an error — the
      // tables are the source of truth; rebuild below.
    }
    if (!have) {
      Status s = BuildAnchorView(icmp_, table_cache_.get(), p->unsorted,
                                 restart_interval, &view);
      if (!s.ok()) continue;  // scans fall back to the merging iterator
      view.file_number = 0;   // memory-only; next flush install re-persists
      metrics_.anchor_view_builds->Inc();
    }
    InstallAnchorViewLocked(p->id,
                            std::make_shared<const AnchorView>(std::move(view)));
  }
  return Status::OK();
}

// ------------------------------------------------------------ write path

struct UniKVDB::Writer {
  explicit Writer(Mutex* mu) : batch(nullptr), cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync = false;
  bool done = false;
  CondVar cv;
};

Status UniKVDB::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status UniKVDB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status UniKVDB::Write(const WriteOptions& options, WriteBatch* updates) {
  PerfContext* perf = GetPerfContext();
  const uint64_t start_us = env_->NowMicros();
  perf->writes++;
  if (updates != nullptr) {
    metrics_.write_bytes->Add(updates->ApproximateSize());
  }
  Status s = WriteImpl(options, updates);
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->write_micros += dur;
  metrics_.write_latency->Add(dur == 0 ? 1 : dur);
  PerfEndOp(perf);
  return s;
}

namespace {
// FNV-1a over the user key: stable within a process, cheap, and evenly
// striped. Never persisted — recovery re-routes at insert time.
uint32_t ShardHash(const Slice& user_key, size_t nshards) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < user_key.size(); i++) {
    h ^= static_cast<uint8_t>(user_key.data()[i]);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % nshards);
}
}  // namespace

uint32_t UniKVDB::ShardOf(const Slice& user_key) const {
  return ShardHash(user_key, shards_.size());
}

void UniKVDB::AdvanceVisibleSeq(uint64_t seq) {
  uint64_t cur = visible_seq_.load(std::memory_order_acquire);
  while (cur < seq && !visible_seq_.compare_exchange_weak(
                          cur, seq, std::memory_order_release,
                          std::memory_order_acquire)) {
  }
}

namespace {
/// Splits a multi-shard batch into per-shard sub-batches.
struct ShardSplitter : public WriteBatch::Handler {
  explicit ShardSplitter(std::vector<WriteBatch>* subs_arg)
      : subs(subs_arg) {}
  void Put(const Slice& key, const Slice& value) override {
    (*subs)[ShardHash(key, subs->size())].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*subs)[ShardHash(key, subs->size())].Delete(key);
  }
  std::vector<WriteBatch>* subs;
};
}  // namespace

Status UniKVDB::WriteImpl(const WriteOptions& options, WriteBatch* updates) {
  if (updates == nullptr) {
    // Manual-flush sentinel: rotate every shard (FlushMemTable waits for
    // the resulting imms to drain).
    Status s;
    for (auto& shard : shards_) {
      s = WriteToShard(shard.get(), options, nullptr);
      if (!s.ok()) return s;
    }
    return s;
  }
  if (shards_.size() == 1) {
    return WriteToShard(shards_[0].get(), options, updates);
  }

  // Route the batch. The common case — every record in one shard (always
  // true for single-record Put/Delete batches) — is submitted as-is.
  std::vector<WriteBatch> subs(shards_.size());
  ShardSplitter splitter(&subs);
  Status s = updates->Iterate(&splitter);
  if (!s.ok()) return s;
  int touched = 0, only = -1;
  for (size_t i = 0; i < subs.size(); i++) {
    if (subs[i].Count() > 0) {
      touched++;
      only = static_cast<int>(i);
    }
  }
  if (touched == 0) return Status::OK();
  if (touched == 1) {
    return WriteToShard(shards_[only].get(), options, updates);
  }
  // Multi-shard batch: each sub-batch commits as its own group, so
  // cross-shard atomicity is not preserved under a crash (each sub-batch
  // is individually atomic). Documented in DESIGN.md §10.
  for (size_t i = 0; i < subs.size(); i++) {
    if (subs[i].Count() == 0) continue;
    s = WriteToShard(shards_[i].get(), options, &subs[i]);
    if (!s.ok()) return s;
  }
  return s;
}

Status UniKVDB::WriteToShard(WriteShard* s, const WriteOptions& options,
                             WriteBatch* updates) {
  Writer w(&s->mu);
  w.batch = updates;
  w.sync = options.sync;

  MutexLock lock(&s->mu);
  s->writers.push_back(&w);
  while (!(w.done || &w == s->writers.front())) w.cv.Wait();
  if (w.done) {
    return w.status;
  }

  // This writer is responsible for the group at the queue front. A null
  // batch is the manual-flush sentinel: it forces a rotation and carries
  // no payload. Routing the rotation through the queue front is what
  // makes it safe — no concurrent group writer can be appending to the
  // WAL being retired.
  Status status = MakeRoomForWrite(s, /*force=*/updates == nullptr);
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {
    WriteBatch* write_batch = BuildBatchGroup(s, &last_writer);
    MemTable* mem = s->mem;

    // Allocate sequence numbers and append to the WAL inside one log_mu
    // critical section. This is what makes gap-cut recovery sound: when
    // any sync (ours or a peer's sync-all) later acquires this log_mu,
    // every already-allocated sequence on this shard is fully appended —
    // so a sequence can only be missing from the synced prefix if it was
    // allocated afterwards, i.e. is higher than everything acked.
    {
      MutexLock log_lock(&s->log_mu);
      lock.Unlock();
      const uint32_t count = static_cast<uint32_t>(write_batch->Count());
      // Publish the unsynced watermark BEFORE allocating: in the seq_cst
      // total order the claim exists before this group's sequences do,
      // so any prefix-check that has seen a later sequence and then
      // reads this shard as clean (or unsynced only above its ceiling)
      // has a sound lock-free proof (see SyncAllShardWals). An already
      // set watermark is older — and therefore lower — than this group,
      // so it stands.
      const uint64_t prev_unsynced =
          s->first_unsynced_seq.load(std::memory_order_relaxed);
      if (prev_unsynced == 0) {
        s->first_unsynced_seq.store(kSeqAllocating,
                                    std::memory_order_seq_cst);
      }
      const uint64_t first_seq =
          seq_alloc_.fetch_add(count, std::memory_order_seq_cst) + 1;
      const uint64_t group_last = first_seq + count - 1;
      if (prev_unsynced == 0) {
        s->first_unsynced_seq.store(first_seq, std::memory_order_seq_cst);
      }
      write_batch->SetSequence(first_seq);
      {
        StopwatchGuard wal_timer(env_, &GetPerfContext()->write_wal_micros);
        status = s->wal->AddRecord(write_batch->Contents());
        if (status.ok() && options.sync) {
          // Own-shard sync inside the append critical section: concurrent
          // sync writers fsync their own WALs from their own threads, so
          // the I/O waits overlap — and the cross-shard round below then
          // finds every sync-written shard clean and skips it.
          status = s->wal_file->Sync();
          if (status.ok()) {
            // The fsync covered everything appended to this WAL, older
            // async groups included.
            s->first_unsynced_seq.store(0, std::memory_order_seq_cst);
          }
        }
      }
      log_lock.Unlock();
      if (!status.ok()) {
        // A failed WAL append or sync leaves the log tail undefined: later
        // records could land after a torn fragment and silently vanish at
        // replay. Latch the error so subsequent writes are rejected.
        RecordBackgroundError(status);
      }
      if (status.ok() && options.sync && shards_.size() > 1) {
        // A sync ack promises the whole prefix up to group_last is
        // durable, and lower sequences may live in peer shards' WALs.
        status = SyncAllShardWals(group_last);
      }
      if (status.ok()) {
        StopwatchGuard mem_timer(env_,
                                 &GetPerfContext()->write_memtable_micros);
        status = write_batch->InsertInto(mem);
      }
      if (status.ok()) {
        AdvanceVisibleSeq(group_last);
      }
      lock.Lock();
    }
    if (write_batch == &s->scratch) {
      s->scratch.Clear();
    }
  }

  while (true) {
    Writer* ready = s->writers.front();
    s->writers.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!s->writers.empty()) {
    s->writers.front()->cv.Signal();
  }
  return status;
}

Status UniKVDB::SyncAllShardWals(uint64_t ceiling, bool force) {
  // Lock-free fast path. first_unsynced_seq is published (seq_cst)
  // BEFORE a group allocates its sequences, so for any group whose
  // sequences could be <= ceiling the publish precedes our ceiling's
  // allocation, which precedes this scan. Reading a shard as 0 (clean)
  // therefore means any such group was since synced; reading a value
  // above the ceiling means the shard's oldest unsynced record is newer
  // than the prefix we promise — not our problem either way. Only
  // kSeqAllocating (sequences unknown) or a watermark <= ceiling forces
  // the locked path. In an all-sync workload every writer leaves its own
  // shard clean, so concurrent sync writers pass through here without
  // ever touching a peer shard's lock — this is what lets durable
  // writes scale with the thread count instead of serializing on a
  // cross-shard fsync round.
  if (!force) {
    bool covered = true;
    for (const auto& t : shards_) {
      const uint64_t w = t->first_unsynced_seq.load(std::memory_order_seq_cst);
      if (w != 0 && w <= ceiling) {  // kSeqAllocating compares <= nothing
        covered = false;             // except as the sentinel below.
        break;
      }
      if (w == kSeqAllocating) {
        covered = false;
        break;
      }
    }
    if (covered) return Status::OK();
  }

  MutexLock coord(&sync_mu_);
  while (true) {
    if (!force && synced_seq_floor_ >= ceiling) return Status::OK();
    if (!sync_all_in_flight_) break;
    // A round is running but began before our ceiling was allocated (or
    // we cannot tell). Wait for it; either its floor covers us or we
    // become the next round's leader — N waiters fold into O(1) rounds.
    sync_cv_.Wait();
  }
  sync_all_in_flight_ = true;
  // Everything allocated up to here rides this round for free: their
  // appends either finished or are inside a log_mu this round will take.
  const uint64_t target = seq_alloc_.load(std::memory_order_seq_cst);
  coord.Unlock();

  // One log_mu at a time (never two — no ordering to deadlock on). By
  // the allocation-inside-log_mu invariant, after this loop every
  // sequence allocated before it started is durable. Shards whose
  // watermark proves them irrelevant (same argument as the fast path,
  // anchored at the `target` load above) are skipped without locking.
  // The first pass visits the rest opportunistically (try_lock): a
  // shard whose writer is mid-own-fsync holds log_mu for the whole
  // fsync, and blocking on each in turn would stretch the round to the
  // SUM of the in-flight syncs. Deferring busy shards lets their fsyncs
  // overlap; the blocking second pass picks up stragglers (by then
  // usually clean, since a sync writer leaves its shard synced).
  Status s;
  std::vector<WriteShard*> pending;
  pending.reserve(shards_.size());
  for (auto& t : shards_) pending.push_back(t.get());
  for (int pass = 0; pass < 2 && s.ok() && !pending.empty(); pass++) {
    std::vector<WriteShard*> busy;
    for (WriteShard* t : pending) {
      if (!force) {
        const uint64_t w =
            t->first_unsynced_seq.load(std::memory_order_seq_cst);
        if (w == 0 || (w != kSeqAllocating && w > target)) continue;
      }
      // The TryLock branch is written as a direct if so thread-safety
      // analysis can track the acquired/skipped paths separately; the
      // per-shard sync body lives in a REQUIRES(t->log_mu) helper so
      // every early-out below joins with a consistent lock set.
      if (pass == 0) {
        if (!t->log_mu.TryLock()) {
          busy.push_back(t);
          continue;
        }
      } else {
        t->log_mu.Lock();
      }
      const Status ss = SyncShardWalLocked(t, force, target);
      t->log_mu.Unlock();
      if (!ss.ok()) {
        s = ss;
        break;
      }
    }
    pending = std::move(busy);
  }

  coord.Lock();
  sync_all_in_flight_ = false;
  if (s.ok() && target > synced_seq_floor_) synced_seq_floor_ = target;
  sync_cv_.SignalAll();
  coord.Unlock();
  if (!s.ok()) {
    // Latched outside log_mu/sync_mu_: RecordBackgroundError briefly
    // takes mu_ and the shard mutexes to wake waiters.
    RecordBackgroundError(s);
  }
  return s;
}

Status UniKVDB::SyncShardWalLocked(WriteShard* t, bool force,
                                   uint64_t target) {
  if (t->wal_file == nullptr) return Status::OK();
  if (!force) {
    // Re-check under the lock: the in-flight writer we waited out may
    // have synced (or turned out to be newer than the target).
    const uint64_t w = t->first_unsynced_seq.load(std::memory_order_seq_cst);
    if (w == 0 || w > target) return Status::OK();  // Never kSeqAllocating
  }                                                 // here: holders are
  Status ss = t->wal_file->Sync();                  // inside log_mu.
  if (ss.ok()) {
    t->first_unsynced_seq.store(0, std::memory_order_seq_cst);
  }
  return ss;
}

WriteBatch* UniKVDB::BuildBatchGroup(WriteShard* s, Writer** last_writer) {
  Writer* first = s->writers.front();
  WriteBatch* result = first->batch;
  size_t size = first->batch->ApproximateSize();

  // Allow the group to grow up to a maximum size, but keep it small if
  // the head batch is small to not slow down small writes too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  for (auto it = s->writers.begin() + 1; it != s->writers.end(); ++it) {
    Writer* w = *it;
    if (w->sync && !first->sync) {
      break;  // Do not include a sync write into a non-sync group.
    }
    if (w->batch == nullptr) {
      // A manual-flush sentinel: it must reach the queue front itself to
      // run its rotation. Absorbing it into this group would mark it done
      // without ever rotating.
      break;
    }
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to a temporary batch instead of disturbing the caller's.
      result = &s->scratch;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

Status UniKVDB::SwitchWal(WriteShard* s) {
  // The swap must exclude cross-shard sync-alls (they hold log_mu while
  // touching wal_file), and the old log must be durable before being
  // retired: otherwise a sync on the new WAL could make post-rotation ops
  // durable while unsynced pre-rotation ops are lost — a mid-sequence gap
  // that breaks prefix recovery.
  MutexLock log_lock(&s->log_mu);
  if (s->wal_file != nullptr) {
    Status sync_status = s->wal_file->Sync();
    if (!sync_status.ok()) return sync_status;
  }
  s->first_unsynced_seq.store(0, std::memory_order_seq_cst);
  uint64_t new_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status st =
      env_->NewWritableFile(ShardWalFileName(dbname_, new_number), &lfile);
  if (!st.ok()) return st;
  s->wal_file = std::move(lfile);
  s->wal = std::make_unique<log::Writer>(s->wal_file.get());
  // Publish the retiring number before the new one so the flush
  // installer's min-over-shards log-number floor never moves backwards.
  s->imm_wal_number.store(s->wal_number.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  s->wal_number.store(new_number, std::memory_order_relaxed);
  return Status::OK();
}

Status UniKVDB::MakeRoomForWrite(WriteShard* s, bool force) {
  bool counted_stall = false;
  while (true) {
    if (has_bg_error_.load(std::memory_order_acquire)) {
      MutexLock el(&err_mu_);
      return bg_error_;
    }
    if (!force &&
        s->mem->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      return Status::OK();
    }
    if (force && s->mem->NumEntries() == 0) {
      return Status::OK();  // Nothing to rotate out.
    }
    if (s->imm != nullptr) {
      // The previous memtable is still being flushed: wait. For normal
      // writes the whole blocked span is one stall episode; stall_micros
      // reaches the registry through the PerfContext fold in Write(). A
      // forced rotation (manual flush) waiting here is not a write stall.
      const uint64_t stall_start = env_->NowMicros();
      bg_work_cv_.SignalAll();
      s->cv.TimedWaitFor(std::chrono::milliseconds(100));
      if (!force) {
        const uint64_t waited = env_->NowMicros() - stall_start;
        if (!counted_stall) {
          counted_stall = true;
          s->write_stalls.fetch_add(1, std::memory_order_relaxed);
          metrics_.write_stalls->Inc();
        }
        s->stall_micros.fetch_add(waited, std::memory_order_relaxed);
        GetPerfContext()->write_stall_micros += waited;
      }
      continue;
    }
    // Switch to a new memtable + WAL and hand the old one to the
    // background workers. has_imm is the scheduler's wake signal; the
    // notify below is fired without mu_ (writers never take it), so the
    // workers' wait uses a timeout to cover the lost-wakeup window.
    Status st = SwitchWal(s);
    if (!st.ok()) return st;
    s->imm = s->mem;
    s->mem = new MemTable(icmp_);
    s->mem->Ref();
    s->has_imm.store(true, std::memory_order_release);
    MaybeScheduleWork();
    return Status::OK();
  }
}

// ------------------------------------------------------------- read path

Status UniKVDB::Get(const ReadOptions& /*options*/, const Slice& key,
                    std::string* value) {
  PerfContext* perf = GetPerfContext();
  // Point gets are fast enough (sub-microsecond on a negative lookup) that
  // two clock reads per call measurably dent throughput, so only every
  // kPerfSampleEvery-th get takes the latency sample.
  const bool timed = (tls_fold.sample_tick++ % kPerfSampleEvery) == 0;
  const uint64_t start_us = timed ? env_->NowMicros() : 0;
  perf->gets++;

  MemTable* mem;
  MemTable* imm = nullptr;
  VersionPtr ver;
  std::vector<uint16_t> candidates;
  int pi;
  // Snapshot at the published sequence: everything at or below it has
  // completed its memtable insert, so acked writes are always readable.
  const SequenceNumber snapshot =
      visible_seq_.load(std::memory_order_acquire);
  {
    // Pin the key's shard memtables *before* capturing the version: if a
    // flush installs between the two, the entry is in both the pinned imm
    // and the newer version's tables — never in neither.
    WriteShard* shard = shards_[ShardOf(key)].get();
    MutexLock shard_lock(&shard->mu);
    mem = shard->mem;
    mem->Ref();
    imm = shard->imm;
    if (imm != nullptr) imm->Ref();
  }
  {
    // Capture what must be mutually consistent — the version and the
    // hash-index candidates — under one mutex hold. Index contents always
    // correspond to the version installed under the same lock.
    MutexLock lock(&mu_);
    ver = versions_->current();
    pi = ver->FindPartition(key);
    // Read-heat accounting: the partition is already resolved under mu_,
    // so the bump is one hash-map increment on the lock we hold anyway.
    partition_stats_[ver->partitions[pi]->id].heat_reads++;
    if (options_.enable_hash_index) {
      auto it = indexes_.find(ver->partitions[pi]->id);
      if (it != indexes_.end()) {
        it->second->Lookup(key, &candidates);
      }
    }
  }

  LookupKey lkey(key, snapshot);
  Status s;
  bool done = false;
  if (mem->Get(lkey, value, &s)) {
    done = true;
    perf->memtable_hits++;
  } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
    done = true;
    perf->memtable_hits++;
  }

  if (!done) {
    const PartitionState& p = *ver->partitions[pi];
    bool found = false;
    s = GetFromUnsorted(p, candidates, lkey, value, &found);
    if (s.ok() && !found) {
      s = GetFromSorted(p, lkey, value, &found);
    }
    if (s.ok() && !found) {
      s = Status::NotFound(Slice());
    }
  }

  mem->Unref();
  if (imm != nullptr) imm->Unref();

  if (timed) {
    const uint64_t dur = env_->NowMicros() - start_us;
    perf->get_micros += dur;
    // Clock-granularity floor: a 0us reading means "< 1us", and recording
    // it as 0 would drag histogram percentiles to zero on fast paths.
    metrics_.get_latency->Add(dur == 0 ? 1 : dur);
  }
  PerfEndOp(perf);
  return s;
}

// ----------------------------------------------- batched read (MultiGet)

ThreadPool* UniKVDB::FetchPool() {
  std::call_once(fetch_pool_once_, [this] {
    fetch_pool_ = std::make_unique<ThreadPool>(options_.value_fetch_threads);
  });
  return fetch_pool_.get();
}

Status UniKVDB::MultiGet(const ReadOptions& options,
                         const std::vector<Slice>& keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  PerfContext* perf = GetPerfContext();
  // Unlike point gets, a batch amortizes its two clock reads over every
  // key, so MultiGet latency is timed exactly rather than sampled.
  const uint64_t start_us = env_->NowMicros();
  perf->multigets++;
  perf->multiget_keys += keys.size();
  Status s = MultiGetImpl(options, keys, values, statuses);
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->multiget_micros += dur;
  metrics_.multiget_latency->Add(dur == 0 ? 1 : dur);
  metrics_.multiget_keys_per_batch->Add(keys.size());
  PerfEndOp(perf);
  return s;
}

Status UniKVDB::MultiGetImpl(const ReadOptions& options,
                             const std::vector<Slice>& keys,
                             std::vector<std::string>* values,
                             std::vector<Status>* statuses) {
  const size_t n = keys.size();
  // resize() (not clear+resize) so a caller reusing its vectors across
  // batches keeps each slot's string capacity: values are assigned over,
  // never appended. Slots whose status ends up non-OK are unspecified.
  values->resize(n);
  statuses->assign(n, Status::OK());
  if (n == 0) return Status::OK();

  PerfContext* perf = GetPerfContext();

  // One snapshot for the whole batch: every key reads at or below the
  // same published sequence, so a concurrent write batch is visible to
  // all of the MultiGet or to none of it.
  const SequenceNumber snapshot =
      visible_seq_.load(std::memory_order_acquire);

  // Pin every touched shard's memtables once, *before* capturing the
  // version (same order as Get: an entry flushed mid-capture is in a
  // pinned imm or in the version's tables, never in neither).
  struct ShardPin {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;
  };
  std::vector<uint32_t> shard_of(n);
  std::vector<ShardPin> pins(shards_.size());
  for (size_t i = 0; i < n; i++) shard_of[i] = ShardOf(keys[i]);
  for (size_t i = 0; i < n; i++) {
    ShardPin& pin = pins[shard_of[i]];
    if (pin.mem != nullptr) continue;
    WriteShard* shard = shards_[shard_of[i]].get();
    MutexLock shard_lock(&shard->mu);
    pin.mem = shard->mem;
    pin.mem->Ref();
    pin.imm = shard->imm;
    if (pin.imm != nullptr) pin.imm->Ref();
  }

  // Probe order: key-sorted, so partition routing walks the boundary list
  // monotonically and each partition group below probes its tables in
  // ascending key order.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a].compare(keys[b]) < 0;
  });

  // Duplicate keys resolve once: the whole batch reads one snapshot, so
  // every repeat of a key must produce the same answer. `rep[i]` is the
  // index that does the work; duplicate slots copy its result at the end.
  // (Skewed batches repeat their hot keys — a looped Get pays the full
  // lookup for every repeat.)
  std::vector<size_t> rep(n);
  std::vector<size_t> uniq;
  uniq.reserve(n);
  for (size_t j = 0; j < n; j++) {
    const size_t idx = order[j];
    if (j > 0 && keys[idx] == keys[order[j - 1]]) {
      rep[idx] = rep[order[j - 1]];
      continue;
    }
    rep[idx] = idx;
    uniq.push_back(idx);
  }

  // One mu_ hold for the whole batch captures what must be mutually
  // consistent — the version and the hash-index candidates — and bumps
  // the per-partition read-heat counters in bulk. A point Get pays this
  // lock per key; the batch pays it once.
  VersionPtr ver;
  std::vector<int> part_of(n);
  std::vector<std::vector<uint16_t>> candidates(n);
  {
    MutexLock lock(&mu_);
    ver = versions_->current();
    // Keys arrive sorted, so partition routing repeats: memoize the last
    // partition's stats slot instead of re-hashing per key.
    int last_pi = -1;
    PartitionCounters* last_stats = nullptr;
    for (size_t idx : uniq) {
      const int pi = ver->FindPartition(keys[idx]);
      part_of[idx] = pi;
      if (pi != last_pi) {
        last_pi = pi;
        last_stats = &partition_stats_[ver->partitions[pi]->id];
      }
      last_stats->heat_reads++;
      // No unsorted tables -> no candidates to find; skip the hash.
      if (options_.enable_hash_index && !ver->partitions[pi]->unsorted.empty()) {
        auto it = indexes_.find(ver->partitions[pi]->id);
        if (it != indexes_.end()) {
          it->second->Lookup(keys[idx], &candidates[idx]);
        }
      }
    }
  }


  // Memtable probes run lock-free against the pinned tables (skipped
  // entirely against empty memtables — the common read-mostly case).
  std::vector<char> done(n, 0);
  for (size_t idx : uniq) {
    const ShardPin& pin = pins[shard_of[idx]];
    const bool mem_live = pin.mem->NumEntries() != 0;
    const bool imm_live = pin.imm != nullptr && pin.imm->NumEntries() != 0;
    if (!mem_live && !imm_live) continue;
    LookupKey lkey(keys[idx], snapshot);
    Status s;
    if ((mem_live && pin.mem->Get(lkey, &(*values)[idx], &s)) ||
        (imm_live && pin.imm->Get(lkey, &(*values)[idx], &s))) {
      perf->memtable_hits++;
      (*statuses)[idx] = s;
      done[idx] = 1;
    }
  }


  // Group the unresolved keys by partition (members stay key-sorted).
  std::vector<std::vector<size_t>> groups;
  {
    // Sorted keys visit partitions in runs, so almost every key joins the
    // group just appended; the map only resolves the rare re-visit.
    std::unordered_map<int, size_t> group_of;
    int last_part = -1;
    size_t last_group = 0;
    for (size_t idx : uniq) {
      if (done[idx]) continue;
      if (part_of[idx] != last_part) {
        auto [it, inserted] =
            group_of.try_emplace(part_of[idx], groups.size());
        if (inserted) groups.emplace_back();
        last_part = part_of[idx];
        last_group = it->second;
      }
      groups[last_group].push_back(idx);
    }
  }

  // Probe each partition group's stores with one pinned table-handle set
  // per group (N probes of the same table cost one cache lookup, not N).
  // Separated values are not fetched here: their pointers are collected
  // for the coalescing pass below.
  std::vector<std::vector<ValueFetch>> deferred_per_group(groups.size());

  auto resolve_group = [this, &keys, &candidates, &part_of, &ver, snapshot,
                        values, statuses](const std::vector<size_t>& members,
                                          std::vector<ValueFetch>* defer) {
    TableCache::BatchPin pin(table_cache_.get());
    // Declared after `pin` so the destructor order releases the probe's
    // block before the table handles it borrows from. Members are probed
    // in ascending key order, so consecutive keys usually resolve to the
    // same sorted-store data block and skip its cache lookup entirely.
    Table::Probe probe;
    for (size_t idx : members) {
      const PartitionState& p = *ver->partitions[part_of[idx]];
      LookupKey lkey(keys[idx], snapshot);
      bool found = false;
      Status s = GetFromUnsorted(p, candidates[idx], lkey, &(*values)[idx],
                                 &found, &pin);
      if (s.ok() && !found) {
        ValuePointer dptr;
        bool is_deferred = false;
        s = GetFromSorted(p, lkey, &(*values)[idx], &found, &pin, &dptr,
                          &is_deferred, &probe);
        if (s.ok() && is_deferred) {
          defer->push_back(ValueFetch{dptr, keys[idx], &(*values)[idx],
                                      &(*statuses)[idx]});
          continue;  // Status resolves when the log fetch completes.
        }
      }
      if (s.ok() && !found) s = Status::NotFound(Slice());
      (*statuses)[idx] = s;
    }
  };

  // Optionally fan partition groups across the reader pool. Tasks own
  // disjoint key indices, so they never write the same output slot.
  // PerfContext increments made on pool workers stay in those workers'
  // thread-local contexts; the multiget_* counters below are unaffected.
  const int parallelism =
      std::min({options.multiget_parallelism, static_cast<int>(groups.size()),
                std::max(options_.value_fetch_threads, 1)});
  if (parallelism > 1) {
    ThreadPool* pool = FetchPool();
    ThreadPool::TaskGroup tasks;
    const size_t chunk = (groups.size() + parallelism - 1) / parallelism;
    for (size_t begin = 0; begin < groups.size(); begin += chunk) {
      const size_t end = std::min(begin + chunk, groups.size());
      pool->Schedule(&tasks, [&, begin, end] {
        for (size_t g = begin; g < end; g++) {
          resolve_group(groups[g], &deferred_per_group[g]);
        }
      });
    }
    tasks.Wait();
  } else {
    for (size_t g = 0; g < groups.size(); g++) {
      resolve_group(groups[g], &deferred_per_group[g]);
    }
  }

  // One sorted, coalesced fetch pass over every separated value the batch
  // needs, on this thread: sorting by (log, offset) turns random per-key
  // reads into a few span reads per log.
  std::vector<ValueFetch> fetches;
  for (const auto& group : deferred_per_group) {
    fetches.insert(fetches.end(), group.begin(), group.end());
  }
  if (!fetches.empty()) {
    // Count the coalescing win on the calling thread so it reaches this
    // DB's registry: spans that served several pointers, and the record
    // bytes the merged members would have re-read as separate reads.
    ValueLogCache::FetchStats fs;
    vlog_cache_->Fetch(&fetches, options_.multiget_coalesce_gap_bytes, &fs);
    perf->multiget_coalesced_reads += fs.coalesced_spans;
    perf->multiget_io_bytes_saved += fs.bytes_saved;
  }

  for (ShardPin& pin : pins) {
    if (pin.mem != nullptr) pin.mem->Unref();
    if (pin.imm != nullptr) pin.imm->Unref();
  }

  // Duplicate slots copy their representative's answer.
  for (size_t i = 0; i < n; i++) {
    if (rep[i] != i) {
      (*values)[i] = (*values)[rep[i]];
      (*statuses)[i] = (*statuses)[rep[i]];
    }
  }

  for (size_t i = 0; i < n; i++) {
    const Status& s = (*statuses)[i];
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

Status UniKVDB::GetFromUnsorted(const PartitionState& p,
                                std::vector<uint16_t> candidates,
                                const LookupKey& lkey, std::string* value,
                                bool* found, TableCache::BatchPin* pin) {
  *found = false;
  if (p.unsorted.empty()) return Status::OK();

  const Slice user_key = lkey.user_key();
  std::vector<const FileMeta*> probe_order;
  if (options_.enable_hash_index) {
    if (candidates.empty()) return Status::OK();
    // Newer tables have larger table ids within an epoch: probing ids in
    // descending order guarantees the newest version wins even under
    // keyTag collisions.
    std::sort(candidates.begin(), candidates.end(),
              std::greater<uint16_t>());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (uint16_t id : candidates) {
      for (const FileMeta& f : p.unsorted) {
        if (f.table_id == id) {
          probe_order.push_back(&f);
          break;
        }
      }
    }
  } else {
    // Ablation mode: probe every table newest-to-oldest with range checks.
    for (auto it = p.unsorted.rbegin(); it != p.unsorted.rend(); ++it) {
      if (user_key.compare(Slice(it->smallest)) >= 0 &&
          user_key.compare(Slice(it->largest)) <= 0) {
        probe_order.push_back(&*it);
      }
    }
  }

  std::string found_key, found_value;
  for (const FileMeta* f : probe_order) {
    GetPerfContext()->unsorted_tables_probed++;
    bool hit = false;
    Status s =
        pin != nullptr
            ? table_cache_->GetPinned(pin, f->number, f->size,
                                      lkey.internal_key(), &hit, &found_key,
                                      &found_value)
            : table_cache_->Get(f->number, f->size, lkey.internal_key(),
                                &hit, &found_key, &found_value);
    if (!s.ok()) return s;
    if (hit && ExtractUserKey(found_key) == user_key) {
      ValueType type = ExtractValueType(found_key);
      if (type == kTypeDeletion) {
        *found = true;
        return Status::NotFound(Slice());
      }
      *found = true;
      *value = std::move(found_value);
      return Status::OK();
    }
  }
  return Status::OK();
}

Status UniKVDB::GetFromSorted(const PartitionState& p, const LookupKey& lkey,
                              std::string* value, bool* found,
                              TableCache::BatchPin* pin, ValuePointer* dptr,
                              bool* deferred, Table::Probe* probe) {
  *found = false;
  if (deferred != nullptr) *deferred = false;
  const Slice user_key = lkey.user_key();
  // Binary search the sorted run by largest key (paper: compare boundary
  // keys kept in memory; at most one table can contain the key).
  const auto& files = p.sorted;
  int lo = 0, hi = static_cast<int>(files.size()) - 1;
  int target = -1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    if (Slice(files[mid].largest).compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      target = mid;
      hi = mid - 1;
    }
  }
  if (target < 0 || user_key.compare(Slice(files[target].smallest)) < 0) {
    return Status::OK();
  }

  const FileMeta& f = files[target];
  GetPerfContext()->sorted_seeks++;
  bool hit = false;
  // Batched callers pass a probe whose scratch strings are reused across
  // the whole group, sparing two heap allocations per key.
  std::string local_key, local_value;
  std::string& found_key = probe != nullptr ? probe->key_scratch : local_key;
  std::string& found_value =
      probe != nullptr ? probe->value_scratch : local_value;
  Status s =
      pin != nullptr
          ? table_cache_->GetPinned(pin, f.number, f.size,
                                    lkey.internal_key(), &hit, &found_key,
                                    &found_value, probe)
          : table_cache_->Get(f.number, f.size, lkey.internal_key(), &hit,
                              &found_key, &found_value);
  if (!s.ok()) return s;
  if (!hit || ExtractUserKey(found_key) != user_key) {
    return Status::OK();
  }
  ValueType type = ExtractValueType(found_key);
  if (type == kTypeDeletion) {
    *found = true;
    return Status::NotFound(Slice());
  }
  if (type == kTypeValue) {
    *found = true;
    *value = std::move(found_value);
    return Status::OK();
  }
  // kTypeValuePointer: fetch from the value log and validate the key.
  ValuePointer ptr;
  Slice encoded(found_value);
  if (!ptr.DecodeFrom(&encoded)) {
    return Status::Corruption("bad value pointer in SortedStore");
  }
  if (deferred != nullptr) {
    // Batched caller: hand the pointer back instead of issuing a point
    // pread here, so the batch can sort and coalesce its log fetches.
    *dptr = ptr;
    *deferred = true;
    *found = true;
    return Status::OK();
  }
  std::string stored_key;
  s = vlog_cache_->Get(ptr, value, &stored_key);
  if (!s.ok()) return s;
  if (Slice(stored_key) != user_key) {
    return Status::Corruption("value log key mismatch");
  }
  *found = true;
  return Status::OK();
}

// ------------------------------------------------------------- iterators

Iterator* UniKVDB::NewInternalIterator(const ReadOptions& options,
                                       SequenceNumber* latest_seq) {
  // Same capture order as Get: published snapshot, then every shard's
  // memtables (one shard lock at a time), then the version — so an entry
  // flushed mid-capture is in a pinned imm or in the version's tables.
  *latest_seq = visible_seq_.load(std::memory_order_acquire);

  std::vector<Iterator*> children;
  for (auto& shard : shards_) {
    MemTable* mem;
    MemTable* imm = nullptr;
    {
      MutexLock shard_lock(&shard->mu);
      mem = shard->mem;
      mem->Ref();
      imm = shard->imm;
      if (imm != nullptr) imm->Ref();
    }
    Iterator* mem_iter = mem->NewIterator();
    mem_iter->RegisterCleanup([mem] { mem->Unref(); });
    children.push_back(mem_iter);
    if (imm != nullptr) {
      Iterator* imm_iter = imm->NewIterator();
      imm_iter->RegisterCleanup([imm] { imm->Unref(); });
      children.push_back(imm_iter);
    }
  }

  // Capture the version and the anchor-view snapshots under a short mu_
  // hold — no I/O. Table iterators (which can open files and read blocks
  // on a cache miss) are created only after mu_ is released; the pinned
  // version keeps every captured file live against RemoveObsoleteFiles,
  // exactly as the Get path relies on.
  VersionPtr ver;
  std::unordered_map<uint32_t, AnchorViewPtr> views;
  {
    MutexLock lock(&mu_);
    ver = versions_->current();
    if (options_.enable_anchor_view) views = anchor_views_;
  }

  const bool fill = options.fill_cache;
  for (const auto& p : ver->partitions) {
    AnchorViewPtr view;
    if (auto it = views.find(p->id); it != views.end()) view = it->second;
    if (view != nullptr && p->unsorted.size() >= 2 &&
        view->Covers(p->unsorted)) {
      // One anchor-guided child replaces one child per unsorted table:
      // Next() costs a view step + one cursor step instead of a k-way
      // heap pop (DESIGN.md §12).
      children.push_back(
          NewAnchorViewIterator(icmp_, view, table_cache_.get(), fill));
      metrics_.scan_anchor_hits->Inc();
    } else {
      for (const FileMeta& f : p->unsorted) {
        children.push_back(
            table_cache_->NewIterator(f.number, f.size, nullptr, fill));
      }
    }
    if (!p->sorted.empty()) {
      std::vector<Iterator*> run;
      run.reserve(p->sorted.size());
      for (const FileMeta& f : p->sorted) {
        run.push_back(table_cache_->NewIterator(f.number, f.size, nullptr,
                                                fill));
      }
      children.push_back(NewConcatenatingIterator(icmp_, std::move(run)));
    }
  }

  Iterator* merged = NewMergingIterator(icmp_, std::move(children));
  // Pin the version for the iterator's lifetime.
  merged->RegisterCleanup([ver] { (void)ver; });
  return merged;
}

Iterator* UniKVDB::NewIterator(const ReadOptions& options) {
  SequenceNumber seq;
  Iterator* internal = NewInternalIterator(options, &seq);
  // A caller-pinned snapshot reads point-in-time; clamp to the visible
  // ceiling so a stale or garbage snapshot can never surface unacked
  // writes.
  if (options.snapshot != 0 && options.snapshot < seq) {
    seq = options.snapshot;
  }
  return new DBIter(icmp_, internal, seq, vlog_cache_.get(),
                    options_.enable_scan_optimization);
}

Status UniKVDB::Scan(const ReadOptions& options, const Slice& start,
                     int count,
                     std::vector<std::pair<std::string, std::string>>* out) {
  PerfContext* perf = GetPerfContext();
  const uint64_t start_us = env_->NowMicros();
  perf->scans++;
  Status s = ScanImpl(options, start, count, out);
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->scan_micros += dur;
  if (s.ok()) {
    metrics_.scan_entries->Add(out->size());
    metrics_.scan_latency->Add(dur == 0 ? 1 : dur);
  } else {
    // Failed scans neither count toward throughput metrics nor leave
    // half-filled results for the caller to mistake for data.
    out->clear();
  }
  PerfEndOp(perf);
  return s;
}

Status UniKVDB::ScanImpl(const ReadOptions& options, const Slice& start,
                         int count,
                         std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // Match DB::Scan: non-positive counts are an empty scan. Without the
  // clamp a negative `count` flows into out->reserve() below, where it
  // converts to a near-SIZE_MAX size_t.
  if (count <= 0) return Status::OK();
  if (!options_.enable_scan_optimization) {
    return DB::Scan(options, start, count, out);
  }

  // Paper scan workflow: (1) collect keys + pointers from the stores,
  // (2) issue one readahead hint from the first value, (3) fetch the
  // values. The fetch runs on this thread: the logs are almost always
  // served from their mappings, where a pool hand-off and per-entry
  // readahead cost more than the copies they would overlap (DESIGN.md §1).
  SequenceNumber seq;
  Iterator* internal = NewInternalIterator(options, &seq);
  if (options.snapshot != 0 && options.snapshot < seq) {
    seq = options.snapshot;
  }
  DBIter iter(icmp_, internal, seq, vlog_cache_.get(), false);

  // The reserve is a hint only: cap it so a huge requested count (larger
  // than the store) does not pre-allocate gigabytes.
  out->reserve(std::min<size_t>(count, 4096));
  std::vector<std::pair<size_t, ValuePointer>> pointers;  // (out index, ptr)
  for (iter.Seek(start); iter.Valid() && count > 0; iter.Next(), count--) {
    if (iter.raw_type() != kTypeValuePointer) {
      out->emplace_back(iter.key().ToString(), iter.raw_value().ToString());
      continue;
    }
    ValuePointer ptr;
    Slice encoded = iter.raw_value();
    if (!ptr.DecodeFrom(&encoded)) {
      return Status::Corruption("bad value pointer in scan");
    }
    if (pointers.empty()) vlog_cache_->Readahead(ptr, 1 << 20);
    pointers.emplace_back(out->size(), ptr);
    out->emplace_back(iter.key().ToString(), std::string());
  }
  Status s = iter.status();
  if (!s.ok() || pointers.empty()) return s;

  std::vector<Status> statuses(pointers.size());
  std::vector<ValueFetch> batch;
  batch.reserve(pointers.size());
  for (size_t i = 0; i < pointers.size(); i++) {
    auto& [key, value] = (*out)[pointers[i].first];
    batch.push_back(ValueFetch{pointers[i].second, key, &value, &statuses[i]});
  }
  vlog_cache_->Fetch(&batch, options_.multiget_coalesce_gap_bytes);
  for (const Status& fs : statuses) {
    if (!fs.ok()) return fs;
  }
  return Status::OK();
}

// ------------------------------------------------------------ properties

Status UniKVDB::GetBackgroundError() {
  MutexLock lock(&err_mu_);
  return bg_error_;
}

bool UniKVDB::GetProperty(const Slice& property, std::string* value) {
  if (property == Slice("db.metrics") || property == Slice("db.metrics.json")) {
    // Push this thread's pending fold window into the registry so the
    // report reflects everything the calling thread has done (lock-free;
    // must happen before mu_ is taken only for tidiness).
    FlushPerfPending();
  }
  MutexLock lock(&mu_);
  VersionPtr ver = versions_->current();
  char buf[256];
  if (property == Slice("db.num-partitions")) {
    std::snprintf(buf, sizeof(buf), "%zu", ver->partitions.size());
    *value = buf;
    return true;
  }
  if (property == Slice("db.hash-index-bytes")) {
    size_t total = 0;
    for (const auto& [pid, index] : indexes_) total += index->MemoryUsage();
    std::snprintf(buf, sizeof(buf), "%zu", total);
    *value = buf;
    return true;
  }
  if (property == Slice("db.hash-index-entries")) {
    uint64_t total = 0;
    for (const auto& [pid, index] : indexes_) total += index->NumEntries();
    std::snprintf(buf, sizeof(buf), "%" PRIu64, total);
    *value = buf;
    return true;
  }
  if (property == Slice("db.num-files")) {
    size_t n = 0;
    for (const auto& p : ver->partitions) {
      n += p->unsorted.size() + p->sorted.size() + p->vlogs.size();
    }
    std::snprintf(buf, sizeof(buf), "%zu", n);
    *value = buf;
    return true;
  }
  if (property == Slice("db.last-sequence")) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  seq_alloc_.load(std::memory_order_acquire));
    *value = buf;
    return true;
  }
  if (property == Slice("db.visible-sequence")) {
    // The published read snapshot: every write at or below this sequence
    // is durable and visible. Pass it as ReadOptions::snapshot to pin
    // later iterators/scans to this point in time.
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  visible_seq_.load(std::memory_order_acquire));
    *value = buf;
    return true;
  }
  if (property == Slice("db.stats")) {
    uint64_t stalls = 0, stall_us = 0;
    for (const auto& sh : shards_) {
      stalls += sh->write_stalls.load(std::memory_order_relaxed);
      stall_us += sh->stall_micros.load(std::memory_order_relaxed);
    }
    std::snprintf(
        buf, sizeof(buf),
        "flushes=%" PRIu64 " merges=%" PRIu64 " scan_merges=%" PRIu64
        " gcs=%" PRIu64 " splits=%" PRIu64 " merge_write_mb=%.1f"
        " gc_write_mb=%.1f write_stalls=%" PRIu64 " stall_micros=%" PRIu64,
        stats_.flushes, stats_.merges, stats_.scan_merges, stats_.gcs,
        stats_.splits, stats_.merge_bytes_written / 1048576.0,
        stats_.gc_bytes_written / 1048576.0, stalls, stall_us);
    *value = buf;
    return true;
  }
  if (property == Slice("db.metrics")) {
    *value = MetricsTextLocked(*ver);
    return true;
  }
  if (property == Slice("db.metrics.json")) {
    *value = MetricsJsonLocked(*ver);
    return true;
  }
  if (property == Slice("db.stats.history")) {
    *value = StatsHistoryJsonLocked();
    return true;
  }
  if (property == Slice("db.sstables")) {
    // Built with string appends: user keys have no length limit, so a
    // fixed snprintf buffer would silently truncate long lower bounds
    // (and everything after them on the line).
    std::string result;
    for (const auto& p : ver->partitions) {
      result += "partition ";
      result += std::to_string(p->id);
      result += " [";
      result += p->lower_bound.empty() ? std::string("-inf") : p->lower_bound;
      result += "..): unsorted=";
      result += std::to_string(p->unsorted.size());
      result += " sorted=";
      result += std::to_string(p->sorted.size());
      result += " vlogs=";
      result += std::to_string(p->vlogs.size());
      result += '\n';
    }
    *value = std::move(result);
    return true;
  }
  if (property == Slice("db.table-accesses")) {
    // One line per table: <kind> <file number> <access count>.
    std::string result;
    for (const auto& p : ver->partitions) {
      for (const FileMeta& f : p->unsorted) {
        std::snprintf(buf, sizeof(buf), "unsorted %llu %llu\n",
                      static_cast<unsigned long long>(f.number),
                      static_cast<unsigned long long>(
                          table_cache_->AccessCount(f.number, f.size)));
        result += buf;
      }
      for (const FileMeta& f : p->sorted) {
        std::snprintf(buf, sizeof(buf), "sorted %llu %llu\n",
                      static_cast<unsigned long long>(f.number),
                      static_cast<unsigned long long>(
                          table_cache_->AccessCount(f.number, f.size)));
        result += buf;
      }
    }
    *value = std::move(result);
    return true;
  }
  return false;
}

std::string UniKVDB::MetricsTextLocked(const VersionData& ver) {
  std::string result = metrics_.registry.ToString();
  uint64_t stalls = 0, stall_us = 0;
  for (const auto& sh : shards_) {
    stalls += sh->write_stalls.load(std::memory_order_relaxed);
    stall_us += sh->stall_micros.load(std::memory_order_relaxed);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "-- background --\n"
                "flushes=%" PRIu64 " merges=%" PRIu64 " scan_merges=%" PRIu64
                " gcs=%" PRIu64 " splits=%" PRIu64 "\n"
                "flush_mb=%.1f merge_read_mb=%.1f merge_write_mb=%.1f"
                " gc_read_mb=%.1f gc_write_mb=%.1f\n"
                "write_stalls=%" PRIu64 " stall_micros=%" PRIu64 "\n",
                stats_.flushes, stats_.merges, stats_.scan_merges, stats_.gcs,
                stats_.splits, stats_.flush_bytes / 1048576.0,
                stats_.merge_bytes_read / 1048576.0,
                stats_.merge_bytes_written / 1048576.0,
                stats_.gc_bytes_read / 1048576.0,
                stats_.gc_bytes_written / 1048576.0, stalls, stall_us);
  result += buf;
  result += "-- partitions --\n";
  const std::vector<uint64_t> garbage_by_partition =
      GarbageByPartitionLocked(ver);
  for (size_t i = 0; i < ver.partitions.size(); i++) {
    const auto& p = ver.partitions[i];
    const uint64_t garbage = garbage_by_partition[i];
    const uint64_t vlog_bytes = p->VlogBytes();
    // The lower bound is an arbitrary user key and goes through string
    // appends; only the fixed-width numeric tail uses the snprintf buffer.
    PartitionCounters pc;
    auto cit = partition_stats_.find(p->id);
    if (cit != partition_stats_.end()) pc = cit->second;
    const uint64_t physical_written =
        pc.flush_bytes + pc.merge_bytes_written + pc.gc_bytes_written;
    const uint64_t logical = p->LogicalBytes();
    result += "partition ";
    result += std::to_string(p->id);
    result += " [";
    result += p->lower_bound.empty() ? std::string("-inf") : p->lower_bound;
    std::snprintf(
        buf, sizeof(buf),
        "..): unsorted=%zu/%.1fMB sorted=%zu/%.1fMB"
        " logical=%.1fMB vlogs=%zu/%.1fMB garbage=%.1fMB (%.0f%%)"
        " heat_r=%" PRIu64 " heat_w=%" PRIu64 " wamp=%.2f samp=%.2f\n",
        p->unsorted.size(), p->UnsortedBytes() / 1048576.0, p->sorted.size(),
        p->SortedBytes() / 1048576.0, p->LogicalBytes() / 1048576.0,
        p->vlogs.size(), vlog_bytes / 1048576.0, garbage / 1048576.0,
        vlog_bytes == 0 ? 0.0 : 100.0 * garbage / vlog_bytes, pc.heat_reads,
        pc.heat_writes,
        pc.user_bytes_flushed == 0
            ? 0.0
            : static_cast<double>(physical_written) / pc.user_bytes_flushed,
        logical == 0 ? 0.0
                     : static_cast<double>(p->TotalBytes()) / logical);
    result += buf;
  }
  return result;
}

std::vector<uint64_t> UniKVDB::GarbageByPartitionLocked(
    const VersionData& ver) {
  std::vector<uint64_t> out;
  std::set<uint64_t> counted;
  for (const auto& p : ver.partitions) {
    uint64_t garbage = 0;
    for (const VlogMeta& v : p->vlogs) {
      auto git = vlog_garbage_.find(v.number);
      if (git != vlog_garbage_.end() && counted.insert(v.number).second) {
        garbage += git->second;
      }
    }
    out.push_back(garbage);
  }
  return out;
}

std::string UniKVDB::MetricsJsonLocked(const VersionData& ver) {
  std::string partitions = "[";
  const std::vector<uint64_t> garbage_by_partition =
      GarbageByPartitionLocked(ver);
  for (size_t i = 0; i < ver.partitions.size(); i++) {
    const auto& p = ver.partitions[i];
    if (i > 0) partitions += ',';
    const uint64_t garbage = garbage_by_partition[i];
    const uint64_t vlog_bytes = p->VlogBytes();

    uint64_t index_entries = 0, index_bytes = 0;
    auto iit = indexes_.find(p->id);
    if (iit != indexes_.end()) {
      index_entries = iit->second->NumEntries();
      index_bytes = iit->second->MemoryUsage();
    }

    PartitionCounters pc;
    auto cit = partition_stats_.find(p->id);
    if (cit != partition_stats_.end()) pc = cit->second;

    JsonBuilder pj;
    pj.AddUint("id", p->id);
    pj.AddString("lower_bound", p->lower_bound);
    pj.AddUint("unsorted_tables", p->unsorted.size());
    pj.AddUint("unsorted_bytes", p->UnsortedBytes());
    pj.AddUint("sorted_tables", p->sorted.size());
    pj.AddUint("sorted_bytes", p->SortedBytes());
    pj.AddUint("logical_bytes", p->LogicalBytes());
    pj.AddUint("vlog_files", p->vlogs.size());
    pj.AddUint("vlog_bytes", vlog_bytes);
    pj.AddUint("vlog_garbage_bytes", garbage);
    pj.AddDouble("garbage_ratio",
                 vlog_bytes == 0 ? 0.0
                                 : static_cast<double>(garbage) / vlog_bytes);
    pj.AddUint("index_entries", index_entries);
    pj.AddUint("index_bytes", index_bytes);
    pj.AddUint("flushes", pc.flushes);
    pj.AddUint("merges", pc.merges);
    pj.AddUint("scan_merges", pc.scan_merges);
    pj.AddUint("gcs", pc.gcs);
    pj.AddUint("splits", pc.splits);
    // Heat and amplification gauges: the inputs hotness-aware GC
    // scheduling ranks partitions by.
    const uint64_t physical_written =
        pc.flush_bytes + pc.merge_bytes_written + pc.gc_bytes_written;
    const uint64_t logical = p->LogicalBytes();
    pj.AddUint("heat_reads", pc.heat_reads);
    pj.AddUint("heat_writes", pc.heat_writes);
    pj.AddUint("user_bytes_flushed", pc.user_bytes_flushed);
    pj.AddUint("flush_bytes", pc.flush_bytes);
    pj.AddUint("merge_bytes_written", pc.merge_bytes_written);
    pj.AddUint("gc_bytes_written", pc.gc_bytes_written);
    pj.AddDouble("write_amp",
                 pc.user_bytes_flushed == 0
                     ? 0.0
                     : static_cast<double>(physical_written) /
                           pc.user_bytes_flushed);
    pj.AddDouble("space_amp",
                 logical == 0 ? 0.0
                              : static_cast<double>(p->TotalBytes()) /
                                    logical);
    partitions += pj.Finish();
  }
  partitions += ']';

  uint64_t stalls = 0, stall_us = 0;
  for (const auto& sh : shards_) {
    stalls += sh->write_stalls.load(std::memory_order_relaxed);
    stall_us += sh->stall_micros.load(std::memory_order_relaxed);
  }
  JsonBuilder stats;
  stats.AddUint("flushes", stats_.flushes);
  stats.AddUint("merges", stats_.merges);
  stats.AddUint("scan_merges", stats_.scan_merges);
  stats.AddUint("gcs", stats_.gcs);
  stats.AddUint("splits", stats_.splits);
  stats.AddUint("flush_bytes", stats_.flush_bytes);
  stats.AddUint("merge_bytes_read", stats_.merge_bytes_read);
  stats.AddUint("merge_bytes_written", stats_.merge_bytes_written);
  stats.AddUint("gc_bytes_read", stats_.gc_bytes_read);
  stats.AddUint("gc_bytes_written", stats_.gc_bytes_written);
  stats.AddUint("write_stalls", stalls);
  stats.AddUint("stall_micros", stall_us);

  JsonBuilder root;
  root.AddRaw("engine", metrics_.registry.ToJson());
  root.AddRaw("stats", stats.Finish());
  root.AddRaw("partitions", partitions);
  return root.Finish();
}

}  // namespace unikv
