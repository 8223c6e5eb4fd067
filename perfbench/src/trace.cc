#include "trace.h"

namespace perfbench {

namespace {

thread_local ThreadTrace* tls_trace = nullptr;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string BaseName(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  return slash == std::string::npos ? fname : fname.substr(slash + 1);
}

// Times one Env call when tracing is on and records it on scope exit.
class IoCall {
 public:
  IoCall(SpanName name, FileKind kind)
      : name_(name), kind_(kind), start_(Tracer::Get().on() ? NowNanos() : 0) {}
  ~IoCall() {
    if (start_ != 0) Tracer::Get().RecordIo(name_, kind_, start_, NowNanos());
  }
  IoCall(const IoCall&) = delete;
  IoCall& operator=(const IoCall&) = delete;

 private:
  const SpanName name_;
  const FileKind kind_;
  const uint64_t start_;
};

IoCounters& Counters(FileKind kind) {
  Tracer& t = Tracer::Get();
  return t.io(kind, t.ThisThreadClass());
}

class TracingSequentialFile : public unikv::SequentialFile {
 public:
  TracingSequentialFile(std::unique_ptr<unikv::SequentialFile> base,
                        FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  unikv::Status Read(size_t n, unikv::Slice* result, char* scratch) override {
    IoCall call(kIoRead, kind_);
    unikv::Status s = base_->Read(n, result, scratch);
    IoCounters& c = Counters(kind_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.copy_reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) c.read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  unikv::Status Skip(uint64_t n) override {
    IoCall call(kIoSkip, kind_);
    Counters(kind_).calls.fetch_add(1, std::memory_order_relaxed);
    return base_->Skip(n);
  }

 private:
  const std::unique_ptr<unikv::SequentialFile> base_;
  const FileKind kind_;
};

class TracingRandomAccessFile : public unikv::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<unikv::RandomAccessFile> base,
                          FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  unikv::Status Read(uint64_t offset, size_t n, unikv::Slice* result,
                     char* scratch) const override {
    IoCall call(kIoRead, kind_);
    unikv::Status s = base_->Read(offset, n, result, scratch);
    IoCounters& c = Counters(kind_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.copy_reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) c.read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  bool ReadZeroCopy(uint64_t offset, size_t n,
                    unikv::Slice* result) const override {
    IoCall call(kIoZeroCopyRead, kind_);
    const bool ok = base_->ReadZeroCopy(offset, n, result);
    IoCounters& c = Counters(kind_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    if (ok) {
      c.zero_copy_reads.fetch_add(1, std::memory_order_relaxed);
      c.read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return ok;
  }
  void ReadaheadHint(uint64_t offset, size_t n) const override {
    IoCall call(kIoReadahead, kind_);
    Counters(kind_).calls.fetch_add(1, std::memory_order_relaxed);
    base_->ReadaheadHint(offset, n);
  }

 private:
  const std::unique_ptr<unikv::RandomAccessFile> base_;
  const FileKind kind_;
};

class TracingWritableFile : public unikv::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<unikv::WritableFile> base, FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  unikv::Status Append(const unikv::Slice& data) override {
    IoCall call(kIoAppend, kind_);
    unikv::Status s = base_->Append(data);
    IoCounters& c = Counters(kind_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) c.write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return s;
  }
  unikv::Status Close() override {
    IoCall call(kIoClose, kind_);
    Counters(kind_).calls.fetch_add(1, std::memory_order_relaxed);
    return base_->Close();
  }
  unikv::Status Flush() override {
    IoCall call(kIoFlush, kind_);
    Counters(kind_).calls.fetch_add(1, std::memory_order_relaxed);
    return base_->Flush();
  }
  unikv::Status Sync() override {
    IoCall call(kIoSync, kind_);
    IoCounters& c = Counters(kind_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

 private:
  const std::unique_ptr<unikv::WritableFile> base_;
  const FileKind kind_;
};

// Metadata calls (open, list, remove, rename, size, lock, dir sync).
class MetaCall {
 public:
  explicit MetaCall(const std::string& fname)
      : kind_(KindOf(fname)), call_(kIoMeta, kind_) {
    Counters(kind_).calls.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  const FileKind kind_;
  IoCall call_;
};

}  // namespace

FileKind KindOf(const std::string& fname) {
  const std::string base = BaseName(fname);
  if (EndsWith(base, ".wal") || EndsWith(base, ".swal")) return kWal;
  if (EndsWith(base, ".sst")) return kSst;
  if (EndsWith(base, ".vlog")) return kVlog;
  if (base == "CURRENT" || base.rfind("MANIFEST-", 0) == 0) return kManifest;
  if (EndsWith(base, ".anchors")) return kAnchors;
  return kOther;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Never destroyed: engine threads
  return *tracer;                        // may outlive main's locals.
}

ThreadTrace* Tracer::RegisterClient() {
  auto t = std::make_unique<ThreadTrace>(kClient);
  t->spans.reserve(1 << 16);
  ThreadTrace* raw = t.get();
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(t));
  tls_trace = raw;
  return raw;
}

ThreadTrace* Tracer::ThisThread() {
  if (tls_trace == nullptr) {
    auto t = std::make_unique<ThreadTrace>(kEngine);
    tls_trace = t.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(t));
  }
  return tls_trace;
}

ThreadClass Tracer::ThisThreadClass() {
  return tls_trace == nullptr ? kEngine : tls_trace->cls;
}

uint32_t Tracer::BeginOp(ThreadTrace* t, SpanName name) {
  if (!on() || t->spans.size() >= kMaxSpansPerThread) return kNoParent;
  t->open_op = static_cast<uint32_t>(t->spans.size());
  t->spans.push_back(Span{NowNanos(), 0, kNoParent, name, 0});
  return t->open_op;
}

void Tracer::EndOp(ThreadTrace* t, uint32_t idx) {
  if (idx == kNoParent) return;
  t->spans[idx].end_ns = NowNanos();
  t->open_op = kNoParent;
}

void Tracer::RecordIo(SpanName name, FileKind kind, uint64_t start_ns,
                      uint64_t end_ns) {
  ThreadTrace* t = ThisThread();
  io_[kind][t->cls].io_ns.fetch_add(end_ns - start_ns,
                                    std::memory_order_relaxed);
  // A client Env call outside any traced op (the op began before tracing
  // was switched on) keeps its time but gets no span.
  if (t->cls == kClient && t->open_op == kNoParent) return;
  if (t->spans.size() >= kMaxSpansPerThread) {
    t->dropped++;
    return;
  }
  t->spans.push_back(Span{start_ns, end_ns, t->open_op, name, kind});
}

IoSnapshot Tracer::SnapshotIo() {
  IoSnapshot snap;
  for (int k = 0; k < kNumKinds; k++) {
    for (int c = 0; c < kNumClasses; c++) {
      const IoCounters& src = io_[k][c];
      snap.cell[k][c] = {src.read_bytes.load(),      src.write_bytes.load(),
                         src.syncs.load(),           src.calls.load(),
                         src.io_ns.load(),           src.zero_copy_reads.load(),
                         src.copy_reads.load()};
    }
  }
  return snap;
}

std::vector<ThreadTrace*> Tracer::Buffers() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrace*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

// ---------------------------------------------------------------- TracingEnv

unikv::Status TracingEnv::LockFile(const std::string& fname,
                                   unikv::FileLock** lock) {
  MetaCall call(fname);
  return base_->LockFile(fname, lock);
}

unikv::Status TracingEnv::UnlockFile(unikv::FileLock* lock) {
  MetaCall call("LOCK");
  return base_->UnlockFile(lock);
}

unikv::Status TracingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<unikv::SequentialFile>* result) {
  MetaCall call(fname);
  std::unique_ptr<unikv::SequentialFile> file;
  unikv::Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracingSequentialFile>(std::move(file),
                                                      KindOf(fname));
  }
  return s;
}

unikv::Status TracingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<unikv::RandomAccessFile>* result) {
  MetaCall call(fname);
  std::unique_ptr<unikv::RandomAccessFile> file;
  unikv::Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracingRandomAccessFile>(std::move(file),
                                                        KindOf(fname));
  }
  return s;
}

unikv::Status TracingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<unikv::WritableFile>* result) {
  MetaCall call(fname);
  std::unique_ptr<unikv::WritableFile> file;
  unikv::Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    *result =
        std::make_unique<TracingWritableFile>(std::move(file), KindOf(fname));
  }
  return s;
}

unikv::Status TracingEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<unikv::WritableFile>* result) {
  MetaCall call(fname);
  std::unique_ptr<unikv::WritableFile> file;
  unikv::Status s = base_->NewAppendableFile(fname, &file);
  if (s.ok()) {
    *result =
        std::make_unique<TracingWritableFile>(std::move(file), KindOf(fname));
  }
  return s;
}

bool TracingEnv::FileExists(const std::string& fname) {
  MetaCall call(fname);
  return base_->FileExists(fname);
}

unikv::Status TracingEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* result) {
  MetaCall call(dir);
  return base_->GetChildren(dir, result);
}

unikv::Status TracingEnv::RemoveFile(const std::string& fname) {
  MetaCall call(fname);
  return base_->RemoveFile(fname);
}

unikv::Status TracingEnv::CreateDir(const std::string& dirname) {
  MetaCall call(dirname);
  return base_->CreateDir(dirname);
}

unikv::Status TracingEnv::RemoveDir(const std::string& dirname) {
  MetaCall call(dirname);
  return base_->RemoveDir(dirname);
}

unikv::Status TracingEnv::GetFileSize(const std::string& fname,
                                      uint64_t* size) {
  MetaCall call(fname);
  return base_->GetFileSize(fname, size);
}

unikv::Status TracingEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  MetaCall call(target);
  return base_->RenameFile(src, target);
}

unikv::Status TracingEnv::SyncDir(const std::string& dirname) {
  MetaCall call(dirname);
  Counters(KindOf(dirname)).syncs.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(dirname);
}

}  // namespace perfbench
