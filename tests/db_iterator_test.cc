// Iterator semantics over the full UniKV stack: ordering, tombstone
// hiding, value-pointer resolution, forward/backward mixes, Scan().

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>

#include "core/db.h"
#include "test_util.h"
#include "util/random.h"

namespace unikv {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 64 * 1024;
  opt.unsorted_limit = 256 * 1024;
  opt.partition_size_limit = 2 * 1024 * 1024;
  opt.sorted_table_size = 64 * 1024;
  opt.scan_merge_limit = 4;
  return opt;
}

class DbIteratorTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  // Populates the DB and a model, with data spread over memtable,
  // UnsortedStore and SortedStore.
  void FillLayered(std::map<std::string, std::string>* model) {
    // Oldest batch -> SortedStore.
    for (int i = 0; i < 300; i++) {
      std::string key = test::TestKey(i * 3);
      std::string value = "sorted" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    // Middle batch -> UnsortedStore.
    for (int i = 0; i < 200; i++) {
      std::string key = test::TestKey(i * 5 + 1);
      std::string value = "unsorted" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    // Newest batch -> memtable (plus some overwrites and deletes).
    for (int i = 0; i < 100; i++) {
      std::string key = test::TestKey(i * 7 + 2);
      std::string value = "mem" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    for (int i = 0; i < 50; i++) {
      std::string key = test::TestKey(i * 6);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model->erase(key);
    }
  }

  std::string dir_;
  std::unique_ptr<Env> env_;  // Outlives db_, which may use it.
  std::unique_ptr<DB> db_;
};

TEST_F(DbIteratorTest, EmptyDbIterator) {
  Open(SmallOptions(), "iter_empty");
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  iter->SeekToLast();
  EXPECT_FALSE(iter->Valid());
  iter->Seek("anything");
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(DbIteratorTest, FullForwardMatchesModel) {
  Open(SmallOptions(), "iter_fwd");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(DbIteratorTest, FullBackwardMatchesModel) {
  Open(SmallOptions(), "iter_bwd");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++mit) {
    ASSERT_NE(mit, model.rend());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.rend());
}

TEST_F(DbIteratorTest, SeekLandsOnLowerBound) {
  Open(SmallOptions(), "iter_seek");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  Random rnd(5);
  for (int trial = 0; trial < 50; trial++) {
    std::string target = test::TestKey(rnd.Uniform(1200));
    iter->Seek(target);
    auto mit = model.lower_bound(target);
    if (mit == model.end()) {
      EXPECT_FALSE(iter->Valid()) << target;
    } else {
      ASSERT_TRUE(iter->Valid()) << target;
      EXPECT_EQ(mit->first, iter->key().ToString());
      EXPECT_EQ(mit->second, iter->value().ToString());
    }
  }
}

TEST_F(DbIteratorTest, DirectionSwitches) {
  Open(SmallOptions(), "iter_switch");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  std::string first = iter->key().ToString();
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(first, iter->key().ToString());
  iter->Prev();
  EXPECT_FALSE(iter->Valid());

  // Zigzag in the middle.
  iter->Seek(test::TestKey(500));
  ASSERT_TRUE(iter->Valid());
  std::string a = iter->key().ToString();
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  std::string b = iter->key().ToString();
  EXPECT_LT(a, b);
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(a, iter->key().ToString());
}

TEST_F(DbIteratorTest, SnapshotIsolationFromLaterWrites) {
  Open(SmallOptions(), "iter_snapshot");
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "before").ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  // Writes after iterator creation are invisible to it.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "after").ok());
  }
  ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(200), "new-key").ok());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    EXPECT_EQ("before", iter->value().ToString());
  }
  EXPECT_EQ(100, count);
}

TEST_F(DbIteratorTest, IteratorSurvivesConcurrentCompaction) {
  Open(SmallOptions(), "iter_compact");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 128);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  // Force merges that rewrite everything underneath the iterator.
  ASSERT_TRUE(db_->CompactAll().ok());
  auto mit = model.begin();
  for (; iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(DbIteratorTest, ScanMatchesIterator) {
  Open(SmallOptions(), "iter_scan");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  Random rnd(17);
  for (int trial = 0; trial < 20; trial++) {
    std::string start = test::TestKey(rnd.Uniform(1000));
    int count = 1 + rnd.Uniform(60);
    std::vector<std::pair<std::string, std::string>> scan_result;
    ASSERT_TRUE(db_->Scan(ReadOptions(), start, count, &scan_result).ok());

    auto mit = model.lower_bound(start);
    size_t i = 0;
    for (; mit != model.end() && i < static_cast<size_t>(count);
         ++mit, ++i) {
      ASSERT_LT(i, scan_result.size());
      EXPECT_EQ(mit->first, scan_result[i].first);
      EXPECT_EQ(mit->second, scan_result[i].second);
    }
    EXPECT_EQ(i, scan_result.size());
  }
}

TEST_F(DbIteratorTest, ScanWithOptimizationsOffMatches) {
  Options opt = SmallOptions();
  opt.enable_scan_optimization = false;
  Open(opt, "iter_scan_noopt");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::vector<std::pair<std::string, std::string>> result;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 100, &result).ok());
  auto mit = model.lower_bound(test::TestKey(0));
  for (size_t i = 0; i < result.size(); i++, ++mit) {
    EXPECT_EQ(mit->first, result[i].first);
    EXPECT_EQ(mit->second, result[i].second);
  }
}

// Counts readahead hints on value-log files; everything else passes
// through to the POSIX Env (so spans still come from the mappings).
class HintCountingEnv : public InstrumentedEnv {
 public:
  HintCountingEnv() : InstrumentedEnv(Env::Default()) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    Status s = InstrumentedEnv::NewRandomAccessFile(fname, result);
    if (s.ok() && fname.size() > 5 &&
        fname.substr(fname.size() - 5) == ".vlog") {
      *result = std::make_unique<File>(std::move(*result), &hints);
    }
    return s;
  }

  std::atomic<uint64_t> hints{0};

 private:
  class File : public RandomAccessFile {
   public:
    File(std::unique_ptr<RandomAccessFile> base, std::atomic<uint64_t>* hints)
        : base_(std::move(base)), hints_(hints) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      return base_->Read(offset, n, result, scratch);
    }
    bool ReadZeroCopy(uint64_t offset, size_t n,
                      Slice* result) const override {
      return base_->ReadZeroCopy(offset, n, result);
    }
    void ReadaheadHint(uint64_t offset, size_t n) const override {
      hints_->fetch_add(1);
      base_->ReadaheadHint(offset, n);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<uint64_t>* hints_;
  };
};

// Loads `n` separated values (ascending keys) and merges them into the
// SortedStore, filling `model`.
void LoadSeparated(DB* db, int n, size_t value_size,
                   std::map<std::string, std::string>* model) {
  for (int i = 0; i < n; i++) {
    const std::string key = test::TestKey(i);
    const std::string value = test::TestValue(i, value_size);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    (*model)[key] = value;
  }
  ASSERT_TRUE(db->CompactAll().ok());
}

TEST_F(DbIteratorTest, ReadaheadHintsOncePerScanAndPerWindow) {
  auto* env = new HintCountingEnv;
  env_.reset(env);
  Options opt = SmallOptions();
  opt.env = env;
  // One partition: each merge's log then holds an ascending key range, so
  // the walk reads every log front to back.
  opt.partition_size_limit = 64 << 20;
  Open(opt, "iter_readahead");
  std::map<std::string, std::string> model;
  LoadSeparated(db_.get(), 2000, 1000, &model);
  ASSERT_GT(test::ValueLogPaths(dir_).size(), 0u);

  // A Scan hints once, at its first separated value.
  env->hints = 0;
  std::vector<std::pair<std::string, std::string>> result;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(500), 100, &result).ok());
  ASSERT_EQ(100u, result.size());
  EXPECT_EQ(model[test::TestKey(500)], result[0].second);
  EXPECT_LE(env->hints.load(), 1u);

  // An iterator walk hints once per 256 KiB window of each log it reads.
  uint64_t log_bytes = 0;
  const std::vector<std::string> logs = test::ValueLogPaths(dir_);
  for (const std::string& path : logs) {
    uint64_t size = 0;
    ASSERT_TRUE(Env::Default()->GetFileSize(path, &size).ok());
    log_bytes += size;
  }
  env->hints = 0;
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  size_t walked = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), walked++) {
    ASSERT_EQ(model[iter->key().ToString()], iter->value().ToString());
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(model.size(), walked);
  EXPECT_GE(env->hints.load(), 1u);
  EXPECT_LE(env->hints.load(),
            static_cast<double>(log_bytes) / (256 * 1024) + logs.size());
}

// A flipped byte in a value log must surface as Corruption from Scan and
// from an iterator walk — never as wrong bytes.
TEST_F(DbIteratorTest, CorruptVlogRecordSurfacesAsCorruption) {
  Open(SmallOptions(), "iter_corrupt");
  std::map<std::string, std::string> model;
  LoadSeparated(db_.get(), 400, 256, &model);
  ASSERT_GT(test::FlipValueLogBytes(dir_, 1500), 0);

  std::vector<std::pair<std::string, std::string>> result;
  Status s = db_->Scan(ReadOptions(), test::TestKey(0), 400, &result);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(result.empty());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  size_t good = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const std::string value = iter->value().ToString();
    if (!iter->status().ok()) break;
    ASSERT_EQ(model[iter->key().ToString()], value);
    good++;
  }
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  EXPECT_LT(good, model.size());
}

// A SortedStore pointer to another key's (intact) record must surface as
// Corruption from Scan and from an iterator walk.
TEST_F(DbIteratorTest, PointerToAnotherKeysRecordIsCorruption) {
  Open(SmallOptions(), "iter_wrong_key");
  std::map<std::string, std::string> model;
  LoadSeparated(db_.get(), 200, 256, &model);
  ASSERT_TRUE(test::RelabelValueLogRecord(dir_, test::TestKey(120),
                                          test::TestKey(121)));

  std::vector<std::pair<std::string, std::string>> result;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 100, &result).ok());
  Status s = db_->Scan(ReadOptions(), test::TestKey(100), 50, &result);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->Seek(test::TestKey(120));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(test::TestKey(120), iter->key().ToString());
  EXPECT_TRUE(iter->value().empty());
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

}  // namespace
}  // namespace unikv
