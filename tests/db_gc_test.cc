// Value-log garbage collection tests: space is reclaimed, pointers are
// rewritten correctly, shared logs after a split are lazily segregated,
// and the store stays correct through many update/GC cycles.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/db.h"
#include "core/filename.h"
#include "test_util.h"
#include "util/fault_injection_env.h"
#include "util/random.h"

namespace unikv {
namespace {

Options GcOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 8 * 1024 * 1024;
  opt.sorted_table_size = 32 * 1024;
  opt.gc_garbage_threshold = 64 * 1024;  // Aggressive GC.
  return opt;
}

uint64_t DirBytes(const std::string& dir, FileType want) {
  std::vector<std::string> children;
  // Empty-on-failure: the byte totals then read 0 and the assertions
  // comparing before/after sizes fail loudly.
  (void)Env::Default()->GetChildren(dir, &children);
  uint64_t total = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == want) {
      uint64_t size = 0;
      (void)Env::Default()->GetFileSize(dir + "/" + child, &size);
      total += size;
    }
  }
  return total;
}

// Value-log record bytes of one test key/value pair: masked crc, two
// varint lengths (1 byte for the 13-byte key, 2 for values of 128..16K),
// key, value.
uint64_t RecordBytes(size_t value_size) {
  return 4 + 1 + 2 + test::TestKey(0).size() + value_size;
}

// `name=<n>` out of the db.stats text.
uint64_t Stat(DB* db, const std::string& name) {
  std::string stats;
  if (!db->GetProperty("db.stats", &stats)) return 0;
  const size_t pos = stats.find(name + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + name.size() + 1, nullptr, 10);
}

// Sum of every `"field":<n>` in `json`.
uint64_t SumJsonField(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\":";
  uint64_t sum = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    sum += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  }
  return sum;
}

uint64_t MetricsSum(DB* db, const std::string& field) {
  std::string json;
  if (!db->GetProperty("db.metrics.json", &json)) return 0;
  return SumJsonField(json, field);
}

// Polls `done` for up to 20 s; background jobs run asynchronously.
bool WaitUntil(const std::function<bool()>& done) {
  for (int i = 0; i < 2000; i++) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

// The `gc` lines of the store's EVENTS log.
std::vector<std::string> GcEvents(const std::string& dir) {
  std::vector<std::string> out;
  std::ifstream in(dir + "/EVENTS");
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"event\":\"gc\"") != std::string::npos) {
      out.push_back(line);
    }
  }
  return out;
}

class DbGcTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbGcTest, GcReclaimsOverwrittenValues) {
  Open(GcOptions(), "gc_reclaim");
  const int kKeys = 300;
  const int kValueSize = 1024;

  // Overwrite the same keys many times: without GC the logs would hold
  // every version.
  for (int round = 0; round < 8; round++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i * 1000 + round, kValueSize))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  std::string stats;
  ASSERT_TRUE(db_->GetProperty("db.stats", &stats));
  EXPECT_NE(stats.find("gcs="), std::string::npos);
  // GC must have run at least once under this churn.
  EXPECT_EQ(stats.find("gcs=0 "), std::string::npos) << stats;

  // Live data is ~300 KiB; the value logs must be nowhere near the
  // 8 rounds x 300 KiB of total writes.
  uint64_t vlog_bytes = DirBytes(dir_, FileType::kValueLogFile);
  EXPECT_LT(vlog_bytes, 3u * kKeys * kValueSize) << "GC failed to reclaim";

  // And everything still reads back the newest version.
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i * 1000 + 7, kValueSize), value);
  }
}

TEST_F(DbGcTest, DeletedValuesAreCollected) {
  Open(GcOptions(), "gc_deletes");
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // Delete 90% of the data.
  for (int i = 0; i < 400; i++) {
    if (i % 10 != 0) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), test::TestKey(i)).ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  uint64_t vlog_bytes = DirBytes(dir_, FileType::kValueLogFile);
  EXPECT_LT(vlog_bytes, 200u * 1024) << "dead values not reclaimed";
  for (int i = 0; i < 400; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), test::TestKey(i), &value);
    if (i % 10 == 0) {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(test::TestValue(i, 1024), value);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << i;
    }
  }
}

// GC must check each live record's key like every read path: a pointer
// to another key's record fails the job with Corruption, and nothing is
// installed — the old log stays, and no key is rewritten under the wrong
// value.
TEST_F(DbGcTest, GcOverPointerToWrongKeyFailsAndInstallsNothing) {
  Open(GcOptions(), "gc_wrong_key");
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  const std::vector<std::string> logs_before = test::ValueLogPaths(dir_);
  ASSERT_TRUE(test::RelabelValueLogRecord(dir_, test::TestKey(150),
                                          test::TestKey(151)));

  // Overwrite a third of the keys (not the relabelled one): enough
  // garbage to trigger GC of the partition.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i + 1000, 1024))
                    .ok());
  }
  Status s = db_->CompactAll();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  std::string stats;
  ASSERT_TRUE(db_->GetProperty("db.stats", &stats));
  EXPECT_NE(stats.find("gcs=0 "), std::string::npos) << stats;
  for (const std::string& log : logs_before) {
    EXPECT_TRUE(Env::Default()->FileExists(log)) << log;
  }
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), test::TestKey(150), &value)
                  .IsCorruption());
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(200), &value).ok());
  EXPECT_EQ(test::TestValue(200, 1024), value);
}

TEST_F(DbGcTest, SharedLogsAfterSplitAreLazilySegregated) {
  Options opt = GcOptions();
  opt.partition_size_limit = 512 * 1024;  // Force splits.
  Open(opt, "gc_split");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 512);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);

  // Churn one half of the key space so its partition GCs; the shared old
  // logs must survive until both sides have collected, and reads from
  // the *other* partition must keep working throughout.
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 1000; i++) {
      std::string key = test::TestKey(i);
      std::string value = test::TestValue(i + round * 7777, 512);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    for (int i = 1000; i < 2000; i += 97) {
      std::string key = test::TestKey(i);
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok())
          << key << " lost after GC round " << round;
      EXPECT_EQ(model[key], value);
    }
  }
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(expected, value);
  }
}

// Options for tests that drive GC by its threshold rather than through
// CompactAll (which collects every log with a dead byte): each
// FlushMemTable makes one table, which one merge turns into one log.
Options ThresholdGcOptions() {
  Options opt = GcOptions();
  opt.write_buffer_size = 4 * 1024 * 1024;
  opt.unsorted_limit = 1;  // Every flushed table is merged at once.
  opt.gc_garbage_threshold = 100 * 1024;
  return opt;
}

// Flushes the memtable and waits until its table is merged.
void FlushAndSettle(DB* db, uint64_t merges_before) {
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return Stat(db, "merges") > merges_before &&
           MetricsSum(db, "unsorted_tables") == 0;
  }));
}

// GC collects a log by its dead share: of two logs, the one three
// quarters dead is copied, the one with 5% dead records keeps its file
// number, and every value still reads back.
TEST_F(DbGcTest, GcCopiesOnlyTheHalfDeadLog) {
  Open(ThresholdGcOptions(), "gc_selective");
  std::map<std::string, std::string> model;
  auto put = [&](int i, int version) {
    const std::string key = test::TestKey(i);
    model[key] = test::TestValue(i * 100 + version, 1024);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, model[key]).ok());
  };
  for (int i = 0; i < 200; i++) put(i, 0);
  FlushAndSettle(db_.get(), 0);
  const std::vector<std::string> first = test::ValueLogPaths(dir_);
  ASSERT_EQ(1u, first.size());
  for (int i = 1000; i < 1200; i++) put(i, 0);
  FlushAndSettle(db_.get(), 1);
  std::vector<std::string> second = test::ValueLogPaths(dir_);
  ASSERT_EQ(2u, second.size());
  std::erase(second, first[0]);

  // 150 of the first log's 200 records die; 10 of the second's.
  for (int i = 0; i < 150; i++) put(i, 1);
  for (int i = 1000; i < 1010; i++) put(i, 1);
  FlushAndSettle(db_.get(), 2);
  ASSERT_TRUE(WaitUntil([&] { return Stat(db_.get(), "gcs") == 1; }));

  EXPECT_FALSE(Env::Default()->FileExists(first[0])) << "half-dead log kept";
  EXPECT_TRUE(Env::Default()->FileExists(second[0]))
      << "mostly-live log was rewritten";
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(expected, value);
  }

  db_.reset();  // Close so EVENTS is complete.
  const std::vector<std::string> gcs = GcEvents(dir_);
  ASSERT_EQ(1u, gcs.size());
  EXPECT_EQ(1u, SumJsonField(gcs[0], "selected_vlogs")) << gcs[0];
  EXPECT_EQ(2u, SumJsonField(gcs[0], "kept_vlogs")) << gcs[0];
  EXPECT_EQ(50 * RecordBytes(1024), SumJsonField(gcs[0], "live_bytes_copied"))
      << gcs[0];
  EXPECT_EQ(150 * RecordBytes(1024),
            SumJsonField(gcs[0], "garbage_reclaimed"))
      << gcs[0];
  EXPECT_EQ(1u, SumJsonField(gcs[0], "threads")) << gcs[0];
}

// A split leaves both halves referencing the old logs; none of those
// records is dead, so CompactAll must not rewrite any log.
TEST_F(DbGcTest, CompactAllAfterSplitRewritesNoLog) {
  Options opt = GcOptions();
  opt.partition_size_limit = 512 * 1024;  // Force splits.
  Open(opt, "gc_split_no_rewrite");
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);
  const std::vector<std::string> logs = test::ValueLogPaths(dir_);
  ASSERT_TRUE(db_->CompactAll().ok());

  EXPECT_EQ(0u, Stat(db_.get(), "gcs"));
  EXPECT_EQ(logs, test::ValueLogPaths(dir_));
  EXPECT_EQ(0u, MetricsSum(db_.get(), "vlog_garbage_bytes"));
}

// CompactAll still reclaims every dead byte, including the dead records
// in logs shared across a split: afterwards the logs hold exactly the
// live records.
TEST_F(DbGcTest, CompactAllReclaimsEveryDeadByteInSharedLogs) {
  Options opt = GcOptions();
  opt.partition_size_limit = 512 * 1024;  // Force splits.
  Open(opt, "gc_split_reclaim");
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);

  // A few overwrites scattered over the whole key space leave a little
  // garbage in every shared log.
  for (int i = 0; i < kKeys; i += 50) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i + 9999, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  EXPECT_EQ(0u, MetricsSum(db_.get(), "vlog_garbage_bytes"));
  EXPECT_EQ(kKeys * RecordBytes(512), DirBytes(dir_, FileType::kValueLogFile));
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i % 50 == 0 ? i + 9999 : i, 512), value);
  }
}

// A GC that CompactAll waits for copies its key range on
// background_threads threads, each into a log of its own; the values and
// the space come out as with one thread.
TEST_F(DbGcTest, CompactAllGcSplitsKeyRangeOverThreads) {
  for (int threads : {1, 3}) {
    Options opt = GcOptions();
    opt.background_threads = threads;
    Open(opt, "gc_threads" + std::to_string(threads));
    const int kKeys = 6000;  // Four sorted tables, one partition.
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i, 512))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    for (int i = 0; i < kKeys; i += 4) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + 9999, 512))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());

    EXPECT_EQ(kKeys * RecordBytes(512),
              DirBytes(dir_, FileType::kValueLogFile));
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok())
          << i;
      EXPECT_EQ(test::TestValue(i % 4 == 0 ? i + 9999 : i, 512), value);
    }
    db_.reset();
    const std::vector<std::string> gcs = GcEvents(dir_);
    ASSERT_FALSE(gcs.empty());
    EXPECT_EQ(static_cast<uint64_t>(threads),
              SumJsonField(gcs.back(), "threads"))
        << gcs.back();
  }
}

// Uniform random overwrites with GC left to its threshold: the logs stay
// within 2x the live bytes plus the GC threshold plus one UnsortedStore
// of shadowed-but-unmerged records.
TEST_F(DbGcTest, UniformOverwritesKeepLogSpaceBounded) {
  Options opt = GcOptions();
  opt.gc_garbage_threshold = 256 * 1024;
  Open(opt, "gc_space_bound");
  const int kKeys = 1000;
  const uint64_t live = kKeys * RecordBytes(1024);
  const uint64_t bound =
      2 * live + opt.gc_garbage_threshold + opt.unsorted_limit;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  Random rnd(301);
  for (int pass = 0; pass < 8; pass++) {
    for (int n = 0; n < kKeys; n++) {
      const int i = static_cast<int>(rnd.Uniform(kKeys));
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + pass, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    uint64_t vlog_bytes = 0;
    EXPECT_TRUE(WaitUntil([&] {
      vlog_bytes = DirBytes(dir_, FileType::kValueLogFile);
      return vlog_bytes <= bound;
    })) << "pass " << pass << ": " << vlog_bytes << " log bytes for "
        << live << " live";
  }
  EXPECT_GE(Stat(db_.get(), "gcs"), 1u);
}

// Dead log bytes are rebuilt at Open: without that, a reopened store
// forgot its garbage and CompactAll left every dead record in place.
TEST_F(DbGcTest, GarbageSurvivesReopen) {
  Options opt = GcOptions();
  opt.unsorted_limit = 1;  // Every flushed table is merged at once.
  opt.gc_garbage_threshold = uint64_t{1} << 40;  // Only CompactAll GCs.
  Open(opt, "gc_reopen");
  const int kKeys = 2000;
  uint64_t merges = 0;
  for (int pass = 0; pass < 3; pass++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + pass, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    ASSERT_TRUE(WaitUntil([&] {
      return MetricsSum(db_.get(), "unsorted_tables") == 0;
    }));
    merges = Stat(db_.get(), "merges");
  }
  ASSERT_GE(merges, 3u);
  EXPECT_EQ(0u, Stat(db_.get(), "gcs"));
  const uint64_t live = kKeys * RecordBytes(1024);
  const uint64_t garbage = MetricsSum(db_.get(), "vlog_garbage_bytes");
  EXPECT_EQ(2 * live, garbage);
  EXPECT_EQ(3 * live, DirBytes(dir_, FileType::kValueLogFile));

  db_.reset();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);
  EXPECT_EQ(garbage, MetricsSum(db_.get(), "vlog_garbage_bytes"));
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(live, DirBytes(dir_, FileType::kValueLogFile));
  for (int i = 0; i < kKeys; i += 7) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 2, 1024), value);
  }
}

TEST_F(DbGcTest, NoKvSeparationMeansNoVlogs) {
  Options opt = GcOptions();
  opt.enable_kv_separation = false;
  Open(opt, "gc_nosep");
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(0u, DirBytes(dir_, FileType::kValueLogFile));
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(5), &value).ok());
  EXPECT_EQ(test::TestValue(5, 1024), value);
}

TEST_F(DbGcTest, ObsoleteFilesAreDeleted) {
  Open(GcOptions(), "gc_files");
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + round, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }
  // After settling, the directory holds only the live file set: no temp
  // files and no orphaned WALs.
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_, &children).ok());
  int wals = 0, tmps = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    if (type == FileType::kWalFile || type == FileType::kShardWalFile) {
      wals++;
    }
    if (type == FileType::kTempFile) tmps++;
  }
  EXPECT_LE(wals, 2);
  EXPECT_EQ(0, tmps);
}

// ----------------------------------------------------------- GC + crashes

namespace {

int CountVlogs(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  // Empty-on-failure: a zero vlog count fails the caller's assertion.
  (void)env->GetChildren(dir, &children);
  int n = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kValueLogFile) {
      n++;
    }
  }
  return n;
}

}  // namespace

// Crash in the window between the GC install (pointer-rewrite merge +
// manifest sync) and the deletion of the old value logs. Reopen must
// neither lose live values nor double-free the leftover log files.
TEST_F(DbGcTest, CrashBetweenGcInstallAndOldLogDeletion) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opt = GcOptions();
  opt.env = &fenv;
  const std::string name = "/gc_crash";
  const int kKeys = 300;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                        test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  // Overwrites make the first vlog's records garbage, arming GC.
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                        test::TestValue(i + 5000, 1024))
                    .ok());
  }
  // The first value-log deletion happens in the obsolete-file sweep right
  // after the GC's manifest install — exactly the target window.
  fenv.CrashAt(FaultOp::kRemoveFile, ".vlog", 0);
  (void)db->CompactAll();  // The sweep tolerates the frozen filesystem.
  ASSERT_TRUE(fenv.crashed());
  db.reset();

  fenv.ClearFaults();
  ASSERT_TRUE(fenv.RecoverAfterCrash().ok());
  raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  db.reset(raw);

  // No live value lost: the GC install was durable, so every pointer
  // resolves into the rewritten log.
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
  // No double-free: the leftover old logs are swept exactly once (a
  // second sweep finding them already gone must not fail the engine),
  // and the store keeps working afterwards.
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->GetBackgroundError().ok());
  for (int i = 0; i < kKeys; i += 37) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
  }
}

// Crash right before the GC's manifest sync: the install is not durable,
// so reopen must come back in the pre-GC state — with the old logs still
// present and every live value still readable through the old pointers.
TEST_F(DbGcTest, CrashBeforeGcInstallKeepsOldLogs) {
  const std::string name = "/gc_crash2";
  const int kKeys = 300;
  auto workload = [&](FaultInjectionEnv* fenv, std::unique_ptr<DB>* out) {
    Options opt = GcOptions();
    opt.env = fenv;
    DB* raw = nullptr;
    Status s = DB::Open(opt, name, &raw);
    out->reset(raw);
    if (!s.ok()) return s;
    DB* db = out->get();
    for (int i = 0; i < kKeys; i++) {
      s = db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 1024));
      if (!s.ok()) return s;
    }
    s = db->CompactAll();
    if (!s.ok()) return s;
    for (int i = 0; i < kKeys; i++) {
      s = db->Put(WriteOptions(), test::TestKey(i),
                  test::TestValue(i + 5000, 1024));
      if (!s.ok()) return s;
    }
    return db->CompactAll();
  };

  // Twin run #1: profile the clean call sequence to count the manifest
  // syncs; the last one is the GC install. The count is keyed to the
  // MANIFEST file, not the global call index: how background-job env
  // calls interleave with foreground ones varies with scheduling, but
  // the number of installs is data-driven and stable.
  uint64_t manifest_syncs = 0;
  {
    std::unique_ptr<MemEnv> base(NewMemEnv());
    FaultInjectionEnv fenv(base.get());
    fenv.EnableTrace(true);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(workload(&fenv, &db).ok());
    for (const auto& ev : fenv.Trace()) {
      if (ev.op == FaultOp::kSync &&
          ev.filename.find("MANIFEST") != std::string::npos) {
        manifest_syncs++;
      }
    }
    ASSERT_GT(manifest_syncs, 0u);
  }

  // Twin run #2: same workload, crash at that (0-based) manifest sync.
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  fenv.CrashAt(FaultOp::kSync, "MANIFEST", manifest_syncs - 1);
  std::unique_ptr<DB> db;
  Status s = workload(&fenv, &db);
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(fenv.crashed());
  db.reset();

  fenv.ClearFaults();
  ASSERT_TRUE(fenv.RecoverAfterCrash().ok());
  int vlogs_after_crash = CountVlogs(&fenv, name);
  EXPECT_GE(vlogs_after_crash, 2) << "old value logs were lost";

  Options opt = GcOptions();
  opt.env = &fenv;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  db.reset(raw);
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
  // The interrupted GC can be completed now and the store stays correct.
  ASSERT_TRUE(db->CompactAll().ok());
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
}

}  // namespace
}  // namespace unikv
