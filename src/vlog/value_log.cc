#include "vlog/value_log.h"

#include <algorithm>

#include "core/filename.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/perf_context.h"

namespace unikv {

void ValuePointer::EncodeTo(std::string* dst) const {
  PutVarint32(dst, partition);
  PutVarint64(dst, log_number);
  PutVarint64(dst, offset);
  PutVarint32(dst, size);
}

bool ValuePointer::DecodeFrom(Slice* input) {
  return GetVarint32(input, &partition) && GetVarint64(input, &log_number) &&
         GetVarint64(input, &offset) && GetVarint32(input, &size);
}

ValueLogWriter::ValueLogWriter(std::unique_ptr<WritableFile> file,
                               uint32_t partition, uint64_t log_number)
    : file_(std::move(file)), partition_(partition), log_number_(log_number) {}

Status ValueLogWriter::Add(const Slice& key, const Slice& value,
                           ValuePointer* ptr) {
  scratch_.clear();
  scratch_.resize(4);  // Space for the crc.
  PutVarint32(&scratch_, static_cast<uint32_t>(key.size()));
  PutVarint32(&scratch_, static_cast<uint32_t>(value.size()));
  scratch_.append(key.data(), key.size());
  scratch_.append(value.data(), value.size());
  uint32_t crc = crc32c::Value(scratch_.data() + 4, scratch_.size() - 4);
  EncodeFixed32(&scratch_[0], crc32c::Mask(crc));

  return AddRecord(Slice(scratch_), ptr);
}

Status ValueLogWriter::AddRecord(const Slice& record, ValuePointer* ptr) {
  Status s = file_->Append(record);
  if (!s.ok()) return s;

  ptr->partition = partition_;
  ptr->log_number = log_number_;
  ptr->offset = offset_;
  ptr->size = static_cast<uint32_t>(record.size());
  offset_ += record.size();
  return Status::OK();
}

Status DecodeValueRecord(const Slice& record, Slice* key, Slice* value) {
  Slice input = record;
  uint32_t crc_stored;
  if (!GetFixed32(&input, &crc_stored)) {
    return Status::Corruption("value record too short");
  }
  uint32_t crc = crc32c::Value(input.data(), input.size());
  if (crc32c::Unmask(crc_stored) != crc) {
    return Status::Corruption("value record checksum mismatch");
  }
  uint32_t key_len, val_len;
  if (!GetVarint32(&input, &key_len) || !GetVarint32(&input, &val_len) ||
      input.size() != static_cast<size_t>(key_len) + val_len) {
    return Status::Corruption("malformed value record");
  }
  *key = Slice(input.data(), key_len);
  *value = Slice(input.data() + key_len, val_len);
  return Status::OK();
}

ValueLogCache::ValueLogCache(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {}

Status ValueLogCache::PinLog(uint64_t log_number,
                             std::shared_ptr<RandomAccessFile>* file) {
  MutexLock l(&mu_);
  auto it = files_.find(log_number);
  if (it != files_.end()) {
    *file = it->second;
    return Status::OK();
  }
  std::unique_ptr<RandomAccessFile> f;
  Status s =
      env_->NewRandomAccessFile(ValueLogFileName(dbname_, log_number), &f);
  if (!s.ok()) return s;
  std::shared_ptr<RandomAccessFile> shared(f.release());
  files_[log_number] = shared;
  *file = std::move(shared);
  return Status::OK();
}

Status ValueLogCache::Get(const ValuePointer& ptr, std::string* value,
                          std::string* stored_key) {
  PerfContext* perf = GetPerfContext();
  perf->vlog_reads++;
  perf->vlog_read_bytes += ptr.size;
  if (reads_counter_ != nullptr) reads_counter_->Inc();
  if (read_bytes_counter_ != nullptr) read_bytes_counter_->Add(ptr.size);
  std::shared_ptr<RandomAccessFile> file;
  Status s = PinLog(ptr.log_number, &file);
  if (!s.ok()) return s;

  std::string buf;
  buf.resize(ptr.size);
  Slice record;
  s = file->Read(ptr.offset, ptr.size, &record, buf.data());
  if (!s.ok()) return s;
  if (record.size() != ptr.size) {
    return Status::Corruption("short value log read");
  }
  Slice key, val;
  s = DecodeValueRecord(record, &key, &val);
  if (!s.ok()) return s;
  value->assign(val.data(), val.size());
  if (stored_key != nullptr) {
    stored_key->assign(key.data(), key.size());
  }
  return Status::OK();
}

void ValueLogCache::Fetch(std::vector<ValueFetch>* batch, uint64_t gap_bytes,
                          FetchStats* stats) {
  constexpr uint64_t kMaxSpan = 1 << 20;
  std::vector<ValueFetch>& b = *batch;
  std::sort(b.begin(), b.end(), [](const ValueFetch& x, const ValueFetch& y) {
    if (x.ptr.log_number != y.ptr.log_number) {
      return x.ptr.log_number < y.ptr.log_number;
    }
    return x.ptr.offset < y.ptr.offset;
  });

  PerfContext* perf = GetPerfContext();
  std::shared_ptr<RandomAccessFile> file;
  uint64_t file_log = 0;
  // Pread fallback only, grown on demand and reused across spans: the
  // mapped path never touches it, so a mapped batch allocates nothing the
  // size of a span.
  std::unique_ptr<char[]> scratch;
  size_t scratch_cap = 0;
  for (size_t i = 0; i < b.size();) {
    const uint64_t log = b[i].ptr.log_number;
    const uint64_t begin = b[i].ptr.offset;
    uint64_t end = begin + b[i].ptr.size;
    size_t j = i + 1;
    for (; j < b.size(); j++) {
      const ValuePointer& p = b[j].ptr;
      const uint64_t pend = std::max(end, p.offset + p.size);
      if (p.log_number != log || p.offset > end + gap_bytes ||
          pend - begin > kMaxSpan) {
        break;
      }
      end = pend;
    }

    Status s;
    if (file == nullptr || file_log != log) {
      file = nullptr;
      s = PinLog(log, &file);
      file_log = log;
    }
    // Members are sliced straight out of the span; on the mapped path the
    // bytes stay valid while `file` is pinned, and gap bytes are never
    // touched.
    Slice span;
    if (s.ok()) {
      const size_t len = static_cast<size_t>(end - begin);
      perf->vlog_span_reads++;
      perf->vlog_read_bytes += len;
      if (span_reads_counter_ != nullptr) span_reads_counter_->Inc();
      if (read_bytes_counter_ != nullptr) read_bytes_counter_->Add(len);
      if (file->ReadZeroCopy(begin, len, &span)) {
        perf->vlog_mmap_reads++;
        if (mmap_reads_counter_ != nullptr) mmap_reads_counter_->Inc();
      } else {
        if (len > scratch_cap) {
          scratch_cap = std::max(len, scratch_cap * 2);
          scratch.reset(new char[scratch_cap]);
        }
        s = file->Read(begin, len, &span, scratch.get());
        if (s.ok() && span.size() != len) {
          s = Status::Corruption("short value log span read");
        }
      }
    }

    for (size_t k = i; k < j; k++) {
      Status rs = s;
      if (rs.ok()) {
        Slice record(span.data() + (b[k].ptr.offset - begin), b[k].ptr.size);
        Slice key, value;
        rs = DecodeValueRecord(record, &key, &value);
        if (rs.ok() && key != b[k].key) {
          rs = Status::Corruption("value log key mismatch");
        }
        if (rs.ok()) {
          const Slice& out = b[k].whole_record ? record : value;
          b[k].value->assign(out.data(), out.size());
        }
      }
      *b[k].status = rs;
    }
    if (stats != nullptr && j - i > 1) {
      stats->coalesced_spans++;
      for (size_t k = i + 1; k < j; k++) stats->bytes_saved += b[k].ptr.size;
    }
    i = j;
  }
}

void ValueLogCache::Readahead(const ValuePointer& ptr, size_t bytes) {
  std::shared_ptr<RandomAccessFile> file;
  if (PinLog(ptr.log_number, &file).ok()) {
    file->ReadaheadHint(ptr.offset, bytes);
  }
}

void ValueLogCache::Evict(uint32_t /*partition*/, uint64_t log_number) {
  MutexLock l(&mu_);
  files_.erase(log_number);
}

Status ScanValueLog(
    Env* env, const std::string& fname,
    const std::function<void(uint64_t, uint32_t, const Slice&, const Slice&)>&
        fn) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  uint64_t file_size;
  s = env->GetFileSize(fname, &file_size);
  if (!s.ok()) return s;

  std::string contents;
  contents.resize(file_size);
  Slice data;
  s = file->Read(file_size, &data, contents.data());
  if (!s.ok()) return s;

  uint64_t offset = 0;
  Slice input = data;
  while (input.size() > 4) {
    // Peek the lengths after the crc to find the record extent.
    Slice peek(input.data() + 4, input.size() - 4);
    uint32_t key_len, val_len;
    if (!GetVarint32(&peek, &key_len) || !GetVarint32(&peek, &val_len)) {
      break;  // Torn tail.
    }
    size_t header = 4 + (peek.data() - (input.data() + 4)) + 4;
    (void)header;
    size_t record_size =
        (peek.data() - input.data()) + static_cast<size_t>(key_len) + val_len;
    if (record_size > input.size()) {
      break;  // Torn tail.
    }
    Slice record(input.data(), record_size);
    Slice key, value;
    if (!DecodeValueRecord(record, &key, &value).ok()) {
      break;  // Corrupt record: stop scanning (crash-truncated tail).
    }
    fn(offset, static_cast<uint32_t>(record_size), key, value);
    input.remove_prefix(record_size);
    offset += record_size;
  }
  return Status::OK();
}

}  // namespace unikv
