// Value-log tests: pointer codec, record round trips via the cache,
// span reads, sequential scans, and torn-tail handling.

#include "vlog/value_log.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/filename.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/random.h"
#include "test_util.h"

namespace unikv {
namespace {

TEST(ValuePointer, Codec) {
  ValuePointer ptr;
  ptr.partition = 7;
  ptr.log_number = 123456789;
  ptr.offset = 0xDEADBEEFCAFEull;
  ptr.size = 4096;
  std::string encoded;
  ptr.EncodeTo(&encoded);

  ValuePointer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input));
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(ptr, decoded);

  // Truncated encodings fail cleanly.
  for (size_t len = 0; len < encoded.size(); len++) {
    ValuePointer bad;
    Slice trunc(encoded.data(), len);
    EXPECT_FALSE(bad.DecodeFrom(&trunc)) << len;
  }
}

class ValueLogTest : public testing::Test {
 protected:
  ValueLogTest() : env_(NewMemEnv()) {
    env_->CreateDir("/db");
    cache_ = std::make_unique<ValueLogCache>(env_.get(), "/db");
  }

  std::unique_ptr<ValueLogWriter> NewWriter(uint64_t log_number) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env_->NewWritableFile(ValueLogFileName("/db", log_number), &file)
            .ok());
    return std::make_unique<ValueLogWriter>(std::move(file), 0, log_number);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<ValueLogCache> cache_;
};

TEST_F(ValueLogTest, WriteAndFetch) {
  auto writer = NewWriter(5);
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 100; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(writer
                    ->Add("key" + std::to_string(i),
                          "value" + std::to_string(i), &ptr)
                    .ok());
    EXPECT_EQ(5u, ptr.log_number);
    ptrs.push_back(ptr);
  }
  ASSERT_TRUE(writer->Flush().ok());

  for (int i = 0; i < 100; i++) {
    std::string value, key;
    ASSERT_TRUE(cache_->Get(ptrs[i], &value, &key).ok());
    EXPECT_EQ("value" + std::to_string(i), value);
    EXPECT_EQ("key" + std::to_string(i), key);
  }
}

TEST_F(ValueLogTest, OffsetsAreContiguous) {
  auto writer = NewWriter(1);
  ValuePointer a, b;
  ASSERT_TRUE(writer->Add("k1", "v1", &a).ok());
  ASSERT_TRUE(writer->Add("k2", "v2", &b).ok());
  EXPECT_EQ(0u, a.offset);
  EXPECT_EQ(a.size, b.offset);
  EXPECT_EQ(writer->CurrentOffset(), b.offset + b.size);
}

TEST_F(ValueLogTest, LargeAndEmptyValues) {
  auto writer = NewWriter(2);
  std::string big(1 << 20, 'B');
  ValuePointer p_big, p_empty;
  ASSERT_TRUE(writer->Add("big", big, &p_big).ok());
  ASSERT_TRUE(writer->Add("empty", "", &p_empty).ok());
  writer->Flush();
  std::string value;
  ASSERT_TRUE(cache_->Get(p_big, &value).ok());
  EXPECT_EQ(big, value);
  ASSERT_TRUE(cache_->Get(p_empty, &value).ok());
  EXPECT_EQ("", value);
}

// Resolves `ptrs` through one Fetch call, expecting key `keys[i]` for
// pointer i; returns the per-slot values and statuses in input order.
void FetchAll(ValueLogCache* cache, const std::vector<ValuePointer>& ptrs,
              const std::vector<std::string>& keys, uint64_t gap,
              std::vector<std::string>* values,
              std::vector<Status>* statuses) {
  values->assign(ptrs.size(), "stale");
  statuses->assign(ptrs.size(), Status::OK());
  std::vector<ValueFetch> batch;
  for (size_t i = 0; i < ptrs.size(); i++) {
    batch.push_back(
        ValueFetch{ptrs[i], keys[i], &(*values)[i], &(*statuses)[i]});
  }
  cache->Fetch(&batch, gap);
}

TEST_F(ValueLogTest, SpanRead) {
  Counter reads, span_reads, read_bytes;
  cache_->SetCounters(&reads, &span_reads, &read_bytes);
  auto writer = NewWriter(3);
  std::vector<ValuePointer> ptrs(10);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        writer->Add("k" + std::to_string(i), std::string(100, 'a' + i),
                    &ptrs[i]).ok());
  }
  ASSERT_TRUE(writer->Flush().ok());
  // Adjacent records 2..7, handed over out of order, come back from one
  // span read covering exactly their bytes.
  std::vector<ValuePointer> want;
  std::vector<std::string> keys;
  for (int i : {7, 2, 5, 3, 6, 4}) {
    want.push_back(ptrs[i]);
    keys.push_back("k" + std::to_string(i));
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchAll(cache_.get(), want, keys, 0, &values, &statuses);
  for (size_t i = 0; i < want.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(std::string(100, keys[i][1] - '0' + 'a'), values[i]);
  }
  EXPECT_EQ(1u, span_reads.Value());
  EXPECT_EQ(0u, reads.Value());
  EXPECT_EQ(ptrs[7].offset + ptrs[7].size - ptrs[2].offset,
            read_bytes.Value());
}

TEST_F(ValueLogTest, FetchKeyMismatchFailsOnlyItsSlot) {
  auto writer = NewWriter(8);
  std::vector<ValuePointer> ptrs(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 10; i++) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(writer->Add(keys[i], "v" + std::to_string(i), &ptrs[i]).ok());
  }
  ASSERT_TRUE(writer->Flush().ok());
  // Slot 3 carries the pointer of k4's record: a pointer stored under the
  // wrong key must never hand back another key's value.
  ptrs[3] = ptrs[4];
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchAll(cache_.get(), ptrs, keys, 4096, &values, &statuses);
  for (int i = 0; i < 10; i++) {
    if (i == 3) {
      EXPECT_TRUE(statuses[i].IsCorruption()) << statuses[i].ToString();
      EXPECT_EQ("stale", values[i]);
    } else {
      ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
      EXPECT_EQ("v" + std::to_string(i), values[i]);
    }
  }
}

TEST_F(ValueLogTest, FetchDuplicateOverlappingAndMultiLogPointers) {
  Counter reads, span_reads, read_bytes;
  cache_->SetCounters(&reads, &span_reads, &read_bytes);
  std::vector<ValuePointer> ptrs;
  std::vector<std::string> keys, expect;
  for (uint64_t log : {11, 12, 13}) {
    auto writer = NewWriter(log);
    for (int i = 0; i < 20; i++) {
      const std::string key = "log" + std::to_string(log) + "_" +
                              std::to_string(i);
      ValuePointer ptr;
      ASSERT_TRUE(writer->Add(key, "value_" + key, &ptr).ok());
      // Every third record is skipped (a gap), every fifth asked twice.
      if (i % 3 == 2) continue;
      for (int dup = 0; dup < (i % 5 == 0 ? 2 : 1); dup++) {
        ptrs.push_back(ptr);
        keys.push_back(key);
        expect.push_back("value_" + key);
      }
    }
    ASSERT_TRUE(writer->Flush().ok());
  }
  // Shuffle so the logs interleave and sorting has work to do.
  Random rnd(17);
  std::vector<ValuePointer> p2 = ptrs;
  std::vector<std::string> k2 = keys, e2 = expect;
  for (size_t i = p2.size(); i > 1; i--) {
    const size_t j = rnd.Uniform(static_cast<int>(i));
    std::swap(p2[i - 1], p2[j]);
    std::swap(k2[i - 1], k2[j]);
    std::swap(e2[i - 1], e2[j]);
  }
  for (uint64_t gap : {0, 4096}) {
    span_reads.Reset();
    std::vector<std::string> values;
    std::vector<Status> statuses;
    FetchAll(cache_.get(), p2, k2, gap, &values, &statuses);
    for (size_t i = 0; i < p2.size(); i++) {
      ASSERT_TRUE(statuses[i].ok()) << k2[i] << " " << statuses[i].ToString();
      EXPECT_EQ(e2[i], values[i]) << k2[i];
    }
    // Gap 0 splits each log at its skipped records; a page of gap bridges
    // them, leaving one span per log.
    if (gap == 0) {
      EXPECT_GT(span_reads.Value(), 3u);
    } else {
      EXPECT_EQ(3u, span_reads.Value());
    }
  }
}

TEST_F(ValueLogTest, FetchSpansStayWithinOneMiB) {
  Counter reads, span_reads, read_bytes;
  cache_->SetCounters(&reads, &span_reads, &read_bytes);
  auto writer = NewWriter(14);
  std::vector<ValuePointer> ptrs(5);
  std::vector<std::string> keys, expect;
  for (int i = 0; i < 5; i++) {
    keys.push_back("big" + std::to_string(i));
    expect.emplace_back(i == 2 ? (1 << 20) + 10 : 300 * 1024, 'a' + i);
    ASSERT_TRUE(writer->Add(keys[i], expect[i], &ptrs[i]).ok());
  }
  ASSERT_TRUE(writer->Flush().ok());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchAll(cache_.get(), ptrs, keys, 4096, &values, &statuses);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(expect[i], values[i]) << i;
  }
  // {0,1}, {2} (one record larger than the cap), {3,4}.
  EXPECT_EQ(3u, span_reads.Value());
}

TEST_F(ValueLogTest, FetchMissingLogFailsOnlyItsSlots) {
  auto writer = NewWriter(15);
  ValuePointer good;
  ASSERT_TRUE(writer->Add("good", "value", &good).ok());
  ASSERT_TRUE(writer->Flush().ok());
  ValuePointer missing;
  missing.log_number = 999;
  missing.size = 10;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchAll(cache_.get(), {missing, good}, {"gone", "good"}, 4096, &values,
           &statuses);
  EXPECT_FALSE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ("value", values[1]);
}

// The POSIX Env serves spans from the log's mapping, MemEnv through the
// pread fallback into a reused buffer: both must give identical bytes.
TEST(ValueLogFetch, MappedAndPreadPathsAgree) {
  std::unique_ptr<MemEnv> mem(NewMemEnv());
  ASSERT_TRUE(mem->CreateDir("/db").ok());
  const std::string dir = test::NewTestDir("vlog_fetch_mmap");
  Random rnd(301);
  std::vector<std::string> keys, vals;
  for (int i = 0; i < 300; i++) {
    keys.push_back("key" + std::to_string(i));
    std::string v(rnd.Uniform(3000), '\0');
    for (char& c : v) c = static_cast<char>(rnd.Uniform(256));
    vals.push_back(v);
  }
  std::vector<std::vector<std::string>> results;
  for (Env* env : {static_cast<Env*>(mem.get()), Env::Default()}) {
    const std::string db = env == Env::Default() ? dir : "/db";
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(ValueLogFileName(db, 21), &file).ok());
    ValueLogWriter writer(std::move(file), 0, 21);
    std::vector<ValuePointer> ptrs(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      ASSERT_TRUE(writer.Add(keys[i], vals[i], &ptrs[i]).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    // Every other record, plus a few repeats, in reverse order.
    std::vector<ValuePointer> want;
    std::vector<std::string> want_keys;
    for (size_t i = keys.size(); i-- > 0;) {
      if (i % 2 == 0 || i % 7 == 0) {
        want.push_back(ptrs[i]);
        want_keys.push_back(keys[i]);
      }
    }
    ValueLogCache cache(env, db);
    Counter reads, span_reads, read_bytes, mmap_reads;
    cache.SetCounters(&reads, &span_reads, &read_bytes, &mmap_reads);
    std::vector<std::string> values;
    std::vector<Status> statuses;
    FetchAll(&cache, want, want_keys, 4096, &values, &statuses);
    for (size_t i = 0; i < want.size(); i++) {
      ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    }
    if (env == Env::Default()) {
      EXPECT_EQ(span_reads.Value(), mmap_reads.Value());
    } else {
      EXPECT_EQ(0u, mmap_reads.Value());
    }
    EXPECT_GT(span_reads.Value(), 0u);
    results.push_back(values);
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t i = 0; i < results[0].size(); i++) {
    EXPECT_EQ(results[0][i], results[1][i]) << i;
  }
  (void)RemoveDirRecursively(Env::Default(), dir);
}

TEST_F(ValueLogTest, CorruptRecordDetected) {
  auto writer = NewWriter(4);
  ValuePointer ptr;
  ASSERT_TRUE(writer->Add("key", "value", &ptr).ok());
  writer->Flush();

  // Corrupt a byte of the stored record.
  std::string fname = ValueLogFileName("/db", 4);
  uint64_t size;
  env_->GetFileSize(fname, &size);
  std::string contents(size, 0);
  {
    std::unique_ptr<RandomAccessFile> reader;
    env_->NewRandomAccessFile(fname, &reader);
    Slice data;
    reader->Read(0, size, &data, contents.data());
    contents.assign(data.data(), data.size());
  }
  contents[size / 2] ^= 0x10;
  std::unique_ptr<WritableFile> w;
  env_->NewWritableFile(fname, &w);
  w->Append(contents);
  w->Close();
  cache_->Evict(0, 4);

  std::string value;
  Status s = cache_->Get(ptr, &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(ValueLogTest, SequentialScanAndTornTail) {
  auto writer = NewWriter(6);
  for (int i = 0; i < 50; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        writer->Add("k" + std::to_string(i), "v" + std::to_string(i), &ptr)
            .ok());
  }
  writer->Flush();
  std::string fname = ValueLogFileName("/db", 6);

  int count = 0;
  ASSERT_TRUE(ScanValueLog(env_.get(), fname,
                           [&](uint64_t, uint32_t, const Slice& key,
                               const Slice& value) {
                             EXPECT_EQ("k" + std::to_string(count),
                                       key.ToString());
                             EXPECT_EQ("v" + std::to_string(count),
                                       value.ToString());
                             count++;
                           })
                  .ok());
  EXPECT_EQ(50, count);

  // Truncate mid-record: the scan stops at the torn tail without error.
  uint64_t size;
  env_->GetFileSize(fname, &size);
  std::string contents(size, 0);
  {
    std::unique_ptr<RandomAccessFile> reader;
    env_->NewRandomAccessFile(fname, &reader);
    Slice data;
    reader->Read(0, size, &data, contents.data());
    contents.assign(data.data(), data.size());
  }
  contents.resize(size - 3);
  std::unique_ptr<WritableFile> w;
  env_->NewWritableFile(fname, &w);
  w->Append(contents);
  w->Close();

  count = 0;
  ASSERT_TRUE(ScanValueLog(env_.get(), fname,
                           [&](uint64_t, uint32_t, const Slice&,
                               const Slice&) { count++; })
                  .ok());
  EXPECT_EQ(49, count);
}

TEST_F(ValueLogTest, MissingLogFileSurfacesError) {
  ValuePointer ptr;
  ptr.log_number = 999;
  ptr.size = 10;
  std::string value;
  EXPECT_FALSE(cache_->Get(ptr, &value).ok());
}

TEST_F(ValueLogTest, BinaryKeysAndValues) {
  auto writer = NewWriter(7);
  std::string key("\0\xff\n", 3);
  std::string value("\0\0\0\0", 4);
  ValuePointer ptr;
  ASSERT_TRUE(writer->Add(key, value, &ptr).ok());
  writer->Flush();
  std::string got_value, got_key;
  ASSERT_TRUE(cache_->Get(ptr, &got_value, &got_key).ok());
  EXPECT_EQ(key, got_key);
  EXPECT_EQ(value, got_value);
}

}  // namespace
}  // namespace unikv
