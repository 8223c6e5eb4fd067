// Deterministic crash-consistency matrix (DESIGN.md §crash consistency).
//
// A CrashHarness workload exercises every background-operation kind —
// flush, UnsortedStore→SortedStore merge, dynamic range split, value-log
// GC, WAL append/sync, manifest/CURRENT install — and the matrix tests
// crash at every counted mutating Env call, recover, reopen, and verify
// the store against the golden model.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "core/unikv_db.h"
#include "crash_harness.h"
#include "test_util.h"
#include "util/fault_injection_env.h"

namespace unikv {
namespace {

// Stride for the exhaustive matrices, overridable so slower configurations
// (e.g. the ASan variant) can sample the same fault points more coarsely.
uint64_t MatrixStride() {
  const char* s = std::getenv("UNIKV_CRASH_STRIDE");
  if (s != nullptr && s[0] != '\0') {
    long v = std::atol(s);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 1;
}

bool TraceHas(const std::vector<FaultInjectionEnv::CallRecord>& trace,
              FaultOp op, const char* substr) {
  for (const auto& rec : trace) {
    if (rec.op == op && rec.filename.find(substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

uint64_t ParseStat(const std::string& stats, const char* name) {
  std::string needle = std::string(name) + "=";
  size_t pos = stats.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

// The workload must enumerate at least one fault point per background-op
// kind; otherwise the crash matrix silently loses coverage.
TEST(DbCrashTest, FaultPointCoverage) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  EXPECT_GT(profile.workload_calls, 0u);
  EXPECT_GT(profile.reopen_calls, 0u);

  // One fault point per op kind, recognized by file-name suffix.
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".swal"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSync, ".swal"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".sst"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".vlog"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSync, "MANIFEST"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kRenameFile, "CURRENT"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSyncDir, "/"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kRemoveFile, ".vlog"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kNewWritableFile, ".hidx"));

  // The stats prove each background op actually ran (not just that some
  // file of the right name was touched).
  EXPECT_GE(ParseStat(profile.stats, "flushes"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "merges"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "splits"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "gcs"), 1u) << profile.stats;
}

TEST(DbCrashTest, CrashAtEveryFaultPoint) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.workload_calls; i += stride) {
    std::string r = harness.RunCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at call " << i;
      if (failures >= 5) break;  // Enough diagnostics; stop the flood.
    }
  }
  EXPECT_EQ(0u, failures);
}

// Recovery itself is full of fault points: WAL-replay flush, manifest
// rewrite, CURRENT rename + directory sync, obsolete-file sweep. Crash at
// every counted call of a reopen and verify via a third, clean open.
TEST(DbCrashTest, ReopenCrashMatrix) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.reopen_calls; i += stride) {
    std::string r = harness.RunReopenCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at reopen call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// The same matrices over a cross-shard workload: four foreground shards,
// four WALs, every sync-put exercising the sync-all durability floor.
// Coverage first — the workload must actually spread across shard WALs.
TEST(DbCrashTest, ShardedFaultPointCoverage) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  std::set<std::string> shard_wals;
  for (const auto& rec : profile.trace) {
    if (rec.op == FaultOp::kAppend &&
        rec.filename.find(".swal") != std::string::npos) {
      shard_wals.insert(rec.filename);
    }
  }
  EXPECT_GE(shard_wals.size(), 2u)
      << "workload keys hash onto fewer than 2 shard WALs";
}

// Crash at every counted Env call of the cross-shard workload. Recovery
// must merge the shard WALs by sequence number and land on a consistent
// prefix cut — including the cross-shard last-sequence check.
TEST(DbCrashTest, ShardedCrashAtEveryFaultPoint) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.workload_calls; i += stride) {
    std::string r = harness.RunCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// Crash at every counted call of a reopen that replays four shard WALs.
TEST(DbCrashTest, ShardedReopenCrashMatrix) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.reopen_calls; i += stride) {
    std::string r = harness.RunReopenCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at reopen call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// A GC that collects one log and keeps others: the crash matrix over a
// workload whose GCs keep logs covers every Env call of such a job. The
// kept logs' pointers are rewritten byte for byte, so a crash anywhere
// must leave them resolvable.
TEST(DbCrashTest, SelectiveGcCrashAtEveryFaultPoint) {
  test::CrashHarness harness(1, test::CrashHarness::Script::kSelectiveGc);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));
  EXPECT_GE(ParseStat(profile.stats, "splits"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "gcs"), 1u) << profile.stats;
  bool kept = false;
  for (size_t pos = profile.events.find("\"kept_vlogs\":");
       pos != std::string::npos;
       pos = profile.events.find("\"kept_vlogs\":", pos + 1)) {
    kept = kept || std::strtoull(profile.events.c_str() + pos + 13, nullptr,
                                 10) > 0;
  }
  ASSERT_TRUE(kept) << "no GC kept a log:\n" << profile.events;

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.workload_calls; i += stride) {
    std::string r = harness.RunCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// Sensitivity check demanded by the acceptance criteria: reintroduce the
// historical unsafe GC ordering (old value logs deleted before the manifest
// install is durable) and prove the harness catches it. A harness that
// passes both with and without the bug would be vacuous.
TEST(DbCrashTest, DeliberateGcOrderingBugIsCaught) {
  struct BugGuard {
    BugGuard() {
      UniKVDB::TEST_gc_unsafe_delete_before_install_.store(true);
    }
    ~BugGuard() {
      UniKVDB::TEST_gc_unsafe_delete_before_install_.store(false);
    }
  } guard;

  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  // Without a crash the bug is invisible: deletion and install both land.
  ASSERT_EQ("", harness.RunProfile(&profile));

  // Find the window the bug opens: the first premature vlog deletion, and
  // the manifest sync that follows it. Crashing in between leaves the
  // manifest pointing at value logs that no longer exist.
  uint64_t delete_index = UINT64_MAX;
  uint64_t sync_index = UINT64_MAX;
  for (uint64_t i = 0; i < profile.trace.size(); i++) {
    const auto& rec = profile.trace[i];
    if (delete_index == UINT64_MAX && rec.op == FaultOp::kRemoveFile &&
        rec.filename.find(".vlog") != std::string::npos) {
      delete_index = i;
    } else if (delete_index != UINT64_MAX && rec.op == FaultOp::kSync &&
               rec.filename.find("MANIFEST") != std::string::npos) {
      sync_index = i;
      break;
    }
  }
  ASSERT_NE(UINT64_MAX, delete_index);
  ASSERT_NE(UINT64_MAX, sync_index);

  // Crash right before the manifest sync: the deletions are durable, the
  // install is not. Recovery must detect the lost live values (either as
  // unreadable pointers or as a state matching no valid prefix cut).
  std::string r = harness.RunCrashAt(sync_index);
  EXPECT_NE("", r);
}

// A failed manifest sync must latch a sticky background error: later
// writes are rejected, reads keep working.
TEST(DbCrashTest, BackgroundErrorIsStickyAndRejectsWrites) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opts;
  opts.env = &fenv;
  opts.write_buffer_size = 1 << 20;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opts, "/bgerrdb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  EXPECT_TRUE(db->GetBackgroundError().ok());

  ASSERT_TRUE(
      db->Put(WriteOptions(), test::TestKey(1), test::TestValue(1)).ok());

  // Every manifest sync from now on fails.
  fenv.FailAt(FaultOp::kSync, "MANIFEST", 0, /*sticky=*/true);
  Status fs = db->FlushMemTable();
  EXPECT_FALSE(fs.ok());
  EXPECT_FALSE(db->GetBackgroundError().ok());

  Status ws = db->Put(WriteOptions(), test::TestKey(2), test::TestValue(2));
  EXPECT_FALSE(ws.ok());

  // Reads still work after the engine goes read-only.
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(1), &value).ok());
  EXPECT_EQ(test::TestValue(1), value);
}

// A failed WAL sync latches the same sticky error through the write path.
TEST(DbCrashTest, FailedWalSyncLatchesBackgroundError) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opts;
  opts.env = &fenv;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opts, "/walerrdb", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(
      db->Put(WriteOptions(), test::TestKey(1), test::TestValue(1)).ok());

  fenv.FailAt(FaultOp::kSync, ".swal", 0, /*sticky=*/true);
  WriteOptions sync_write;
  sync_write.sync = true;
  Status ws = db->Put(sync_write, test::TestKey(2), test::TestValue(2));
  EXPECT_FALSE(ws.ok());
  EXPECT_FALSE(db->GetBackgroundError().ok());
  EXPECT_FALSE(
      db->Put(WriteOptions(), test::TestKey(3), test::TestValue(3)).ok());

  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), test::TestKey(1), &value).ok());
}

}  // namespace
}  // namespace unikv
