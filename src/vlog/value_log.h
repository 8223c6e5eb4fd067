#ifndef UNIKV_VLOG_VALUE_LOG_H_
#define UNIKV_VLOG_VALUE_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/env.h"
#include "util/metrics.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/sync.h"

namespace unikv {

/// Location of a value stored in an append-only value log after partial KV
/// separation (paper: <partition, logNumber, offset, length>).
struct ValuePointer {
  uint32_t partition = 0;
  uint64_t log_number = 0;
  uint64_t offset = 0;
  uint32_t size = 0;  // Full record length, so one pread fetches it.

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice* input);

  bool operator==(const ValuePointer& o) const {
    return partition == o.partition && log_number == o.log_number &&
           offset == o.offset && size == o.size;
  }
};

/// Appends value records to a log file. Record format:
///   crc32c(4B, masked, over the rest) key_len(varint) val_len(varint)
///   key value
/// The key is stored alongside the value (as in WiscKey) so GC and
/// recovery can validate records independently of the SortedStore.
class ValueLogWriter {
 public:
  /// Takes ownership of `file`; `log_number` is recorded in the pointers.
  ValueLogWriter(std::unique_ptr<WritableFile> file, uint32_t partition,
                 uint64_t log_number);

  ValueLogWriter(const ValueLogWriter&) = delete;
  ValueLogWriter& operator=(const ValueLogWriter&) = delete;

  /// Appends a record; on success fills *ptr with its location.
  Status Add(const Slice& key, const Slice& value, ValuePointer* ptr);

  Status Flush() { return file_->Flush(); }
  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

  uint64_t CurrentOffset() const { return offset_; }
  uint64_t log_number() const { return log_number_; }

 private:
  std::unique_ptr<WritableFile> file_;
  uint32_t partition_;
  uint64_t log_number_;
  uint64_t offset_ = 0;
  std::string scratch_;
};

/// Parses one value-log record out of `record` bytes (as read from a file
/// at a ValuePointer). Verifies the checksum.
Status DecodeValueRecord(const Slice& record, Slice* key, Slice* value);

/// One request to ValueLogCache::Fetch: resolve `ptr`, check that the
/// record was stored under `key`, and write the value and outcome into the
/// caller's slots.
struct ValueFetch {
  ValuePointer ptr;
  Slice key;
  std::string* value;
  Status* status;
};

/// Caches open read handles for value log files and serves point and
/// batched fetches by ValuePointer. Thread-safe.
class ValueLogCache {
 public:
  /// `dir_for_partition(p)` maps a partition id to its directory.
  ValueLogCache(Env* env, std::string dbname);

  /// Wires engine-wide read counters (owned by the DB's MetricsRegistry).
  /// Unlike the thread-local PerfContext — which only sees the calling
  /// thread — these also capture the fetches of background GC. All may be
  /// null (counting disabled).
  void SetCounters(Counter* reads, Counter* span_reads, Counter* read_bytes,
                   Counter* mmap_reads = nullptr) {
    reads_counter_ = reads;
    span_reads_counter_ = span_reads;
    read_bytes_counter_ = read_bytes;
    mmap_reads_counter_ = mmap_reads;
  }

  /// Fetches the record at *ptr, verifies it, and stores the value bytes
  /// in *value (and optionally the stored key for validation).
  Status Get(const ValuePointer& ptr, std::string* value,
             std::string* stored_key = nullptr);

  /// Issues a readahead hint on the log for a scan starting at `ptr`.
  void Readahead(const ValuePointer& ptr, size_t bytes);

  /// Coalescing counts of one Fetch call.
  struct FetchStats {
    uint64_t coalesced_spans = 0;  // Spans that served >= 2 fetches.
    uint64_t bytes_saved = 0;      // Record bytes of those extra members.
  };

  /// Resolves a batch of value pointers on the calling thread. Sorts the
  /// batch by (log, offset) — reordering *batch — and merges pointers
  /// whose records lie within `gap_bytes` of each other into spans of at
  /// most 1 MiB (duplicate and overlapping pointers are fine). Each log is
  /// pinned once and each span read once: straight from the log's mapping
  /// when the Env has one, else by one pread into a buffer reused across
  /// spans. Every record's checksum and stored key are verified, and each
  /// fetch gets its own status, so a bad record fails only its own slot.
  void Fetch(std::vector<ValueFetch>* batch, uint64_t gap_bytes,
             FetchStats* stats = nullptr);

  /// Drops the cached handle for a deleted log file.
  void Evict(uint32_t partition, uint64_t log_number);

 private:
  /// Returns the shared read handle of one log, opening the file on first
  /// use. The handle stays valid even if the log is Evicted meanwhile.
  Status PinLog(uint64_t log_number, std::shared_ptr<RandomAccessFile>* file);

  Env* env_;
  std::string dbname_;
  Counter* reads_counter_ = nullptr;
  Counter* span_reads_counter_ = nullptr;
  Counter* mmap_reads_counter_ = nullptr;
  Counter* read_bytes_counter_ = nullptr;
  // mu_ guards the handle map. Held across the open syscall in PinLog
  // (first access to a log serializes openers); reads through a handle
  // never take it.
  Mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<RandomAccessFile>> files_
      GUARDED_BY(mu_);
};

/// Sequentially scans a value log file, invoking `fn(offset, record_size,
/// key, value)` for each valid record; stops at the first corrupt/torn
/// record (the tail after a crash).
Status ScanValueLog(
    Env* env, const std::string& fname,
    const std::function<void(uint64_t, uint32_t, const Slice&, const Slice&)>&
        fn);

}  // namespace unikv

#endif  // UNIKV_VLOG_VALUE_LOG_H_
