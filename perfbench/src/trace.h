// In-memory span recorder and an Env wrapper that counts, times and traces
// every file call the engine makes. Both live in the benchmark, outside the
// engine: spans are taken around each DB call and around each Env call.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

inline uint64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum FileKind : uint8_t { kWal, kSst, kVlog, kManifest, kAnchors, kOther };
constexpr int kNumKinds = 6;
constexpr const char* kKindNames[kNumKinds] = {"wal",      "sst",     "vlog",
                                               "manifest", "anchors", "other"};
FileKind KindOf(const std::string& fname);

// Client threads are the benchmark's own callers; every other thread that
// reaches the Env (background workers, the value-fetch pool, the main
// thread while it loads or settles) is an engine thread.
enum ThreadClass : uint8_t { kClient, kEngine };
constexpr int kNumClasses = 2;

// Span names: the four DB call types, then Env calls.
enum SpanName : uint8_t {
  kOpGet,
  kOpMultiGet,
  kOpPut,
  kOpScan,
  kIoRead,
  kIoZeroCopyRead,
  kIoReadahead,
  kIoAppend,
  kIoFlush,
  kIoSync,
  kIoClose,
  kIoSkip,
  kIoMeta,  // open, list, remove, rename, size, dir sync, lock
};
constexpr int kNumOpTypes = 4;
constexpr const char* kSpanNames[] = {
    "get",  "mget",  "put",  "scan",  "read", "zero_copy_read", "readahead",
    "append", "flush", "sync", "close", "skip", "meta"};

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  // Index of the enclosing op span in the same buffer.
  uint8_t name;     // SpanName
  uint8_t kind;     // FileKind for Env spans
};

// Spans of one thread. Only the owning thread appends; buffers are read
// after every thread that writes them has been joined or stopped.
struct ThreadTrace {
  explicit ThreadTrace(ThreadClass c) : cls(c) {}
  const ThreadClass cls;
  std::vector<Span> spans;
  uint32_t open_op = kNoParent;
  uint64_t dropped = 0;  // Spans not kept once the buffer cap was reached.
};

// Per file kind and thread class. Byte and call counts are kept on every
// run; call time only while tracing is on.
struct IoCounters {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> io_ns{0};
  std::atomic<uint64_t> zero_copy_reads{0};
  std::atomic<uint64_t> copy_reads{0};
};

struct IoSnapshot {
  struct Cell {
    uint64_t read_bytes, write_bytes, syncs, calls, io_ns, zero_copy_reads,
        copy_reads;
  };
  Cell cell[kNumKinds][kNumClasses];
};

class Tracer {
 public:
  static constexpr size_t kMaxSpansPerThread = 2 << 20;

  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  // Marks the calling thread as a client thread and returns its buffer.
  ThreadTrace* RegisterClient();
  // The calling thread's buffer, created as an engine buffer on first use.
  ThreadTrace* ThisThread();
  ThreadClass ThisThreadClass();

  // Opens an op span on a client thread; returns its index or kNoParent.
  uint32_t BeginOp(ThreadTrace* t, SpanName name);
  void EndOp(ThreadTrace* t, uint32_t idx);

  // Records an Env call [start_ns, end_ns) made by the calling thread.
  void RecordIo(SpanName name, FileKind kind, uint64_t start_ns,
                uint64_t end_ns);

  IoCounters& io(FileKind k, ThreadClass c) { return io_[k][c]; }
  IoSnapshot SnapshotIo();

  // Every buffer, for reading after the run.
  std::vector<ThreadTrace*> Buffers();

 private:
  Tracer() = default;
  std::atomic<bool> on_{false};
  IoCounters io_[kNumKinds][kNumClasses];
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> buffers_;  // guarded by mu_
};

// Forwards every Env and file virtual to `base`, so the engine takes the
// same I/O path it takes under Env::Default() (zero-copy reads, readahead
// hints, directory syncs and the DB lock included), while counting bytes,
// calls and syncs per file kind and thread class and, when tracing is on,
// timing each call and recording it as a span.
class TracingEnv : public unikv::Env {
 public:
  explicit TracingEnv(unikv::Env* base) : base_(base) {}

  unikv::Status LockFile(const std::string& fname,
                         unikv::FileLock** lock) override;
  unikv::Status UnlockFile(unikv::FileLock* lock) override;
  unikv::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<unikv::SequentialFile>* result) override;
  unikv::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<unikv::RandomAccessFile>* result) override;
  unikv::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  unikv::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  unikv::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override;
  unikv::Status RemoveFile(const std::string& fname) override;
  unikv::Status CreateDir(const std::string& dirname) override;
  unikv::Status RemoveDir(const std::string& dirname) override;
  unikv::Status GetFileSize(const std::string& fname, uint64_t* size) override;
  unikv::Status RenameFile(const std::string& src,
                           const std::string& target) override;
  unikv::Status SyncDir(const std::string& dirname) override;
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  unikv::Env* const base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
