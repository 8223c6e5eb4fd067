#ifndef UNIKV_TESTS_CRASH_HARNESS_H_
#define UNIKV_TESTS_CRASH_HARNESS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "util/fault_injection_env.h"

namespace unikv {
namespace test {

/// Model-based crash-consistency harness (DESIGN.md §crash consistency).
///
/// A fixed scripted workload — puts, overwrites, deletes, sync-puts, and
/// FlushMemTable / CompactAll barriers — drives every background operation
/// kind: WAL append/sync, memtable flush, UnsortedStore→SortedStore merge
/// with KV separation, dynamic range split, value-log GC, hash-index
/// checkpointing, and the manifest/CURRENT install. The harness can
///
///  - profile the workload (no faults) over a FaultInjectionEnv to learn
///    N = the number of counted mutating Env calls and their trace, and
///  - re-run it crashing at any counted call index, recover, reopen, and
///    verify the recovered store against a golden std::map.
///
/// Verification accepts exactly the prefix cuts c in [S, C]: C is the
/// number of acknowledged ops (every op after the crash fails), S the
/// strongest durability lower bound (last acknowledged sync-put or
/// barrier). A lost synced write, a mid-sequence gap, a resurrected or
/// unknown key, an unreadable value, or a store that fails to reopen is a
/// failure. Because the crash fires *before* its target call, iterating
/// the index over [0, N) covers every call boundary in the workload.
class CrashHarness {
 public:
  struct Profile {
    uint64_t workload_calls = 0;  // N: counted calls in one workload run.
    uint64_t reopen_calls = 0;    // M: counted calls in one clean reopen.
    std::vector<FaultInjectionEnv::CallRecord> trace;  // Workload portion.
    std::string stats;   // Final "db.stats" property text.
    std::string events;  // The workload's EVENTS log.
  };

  enum class Script {
    /// Every background op kind, GC collecting every log it references.
    kDefault,
    /// Two key ranges merged into separate logs, then overwrites in the
    /// first range only: the GC collects the first log and keeps the
    /// others (log-selective GC).
    kSelectiveGc,
  };

  /// `write_shards` > 1 makes the scripted workload cross-shard: keys hash
  /// onto that many foreground shards, each with its own WAL, so every
  /// crash point also exercises the merged-by-sequence recovery path and
  /// the cross-shard durability floor.
  explicit CrashHarness(int write_shards = 1,
                        Script script = Script::kDefault);

  /// Clean run over a FaultInjectionEnv with tracing: fills *out and
  /// verifies the final and post-reopen state. Returns "" on success,
  /// else a failure description.
  std::string RunProfile(Profile* out);

  /// Crash at counted call `index` during the workload, then recover,
  /// reopen and verify. Returns "" if the recovered store is a consistent
  /// prefix cut, else a failure description.
  std::string RunCrashAt(uint64_t index);

  /// Runs the workload to completion, closes cleanly, then crashes at the
  /// `index`-th counted call of the subsequent re-open (recovery itself is
  /// full of fault points: WAL-replay flush, manifest rewrite, CURRENT
  /// rename, obsolete-file sweep). Verifies via a third, clean open.
  std::string RunReopenCrashAt(uint64_t index);

  size_t NumOps() const { return ops_.size(); }

 private:
  struct Op {
    enum Kind { kPut, kDelete, kFlush, kCompact };
    Kind kind;
    std::string key;
    std::string value;
    bool sync = false;
  };

  Options MakeOptions(Env* env) const;
  Status ApplyOp(DB* db, const Op& op) const;
  void ApplyToModel(const Op& op, std::map<std::string, std::string>* m) const;

  /// Issues ops in order until one fails or the env crashes. Returns C
  /// (the acknowledged prefix length) and sets *synced_prefix to S. Sets
  /// *in_flight_at_crash when the crash interrupted an op mid-flight —
  /// that op is unacknowledged but may already be partially durable (a
  /// sharded sync write syncs its own WAL before the cross-shard
  /// sync-all), so verification accepts one cut past C for it.
  size_t RunWorkload(DB* db, const FaultInjectionEnv& env,
                     size_t* synced_prefix,
                     bool* in_flight_at_crash = nullptr) const;

  /// Checks that `db` equals model_at(c) for some c in [synced_prefix,
  /// acked_ops], that the store's last sequence number equals the matched
  /// cut's cumulative mutation count plus `probe_mutations` (the probe
  /// writes earlier verifies left behind) — the cross-shard consistency
  /// check: one global counter must account for every shard's WAL — and
  /// that the store still accepts writes. "" on success.
  std::string VerifyRecovered(DB* db, size_t synced_prefix, size_t acked_ops,
                              size_t probe_mutations = 0) const;

  std::vector<Op> ops_;
  std::set<std::string> universe_;
  int write_shards_ = 1;
};

}  // namespace test
}  // namespace unikv

#endif  // UNIKV_TESTS_CRASH_HARNESS_H_
