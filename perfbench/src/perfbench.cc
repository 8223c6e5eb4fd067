// UniKV workload program for the repository benchmark (perfbench/run.py).
//
// Drives one workload through the public DB API with default Options
// (only `env` is set) and async writes, from closed-loop client threads:
// each client sends its next call only after the previous one returned.
// Every result is checked against a per-key version model outside the
// timed call. Writes one raw JSON record of what it measured to --out;
// run.py turns that into the benchmark's metrics.
//
//   unikv_perfbench --workload read_heavy --seed 1 --seconds 10 --trace 0
//       --dir <scratch db dir> --out <raw.json>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "util/histogram.h"
#include "keys.h"
#include "trace.h"

namespace perfbench {
namespace {

using unikv::DB;
using unikv::Histogram;
using unikv::Options;
using unikv::ReadOptions;
using unikv::Slice;
using unikv::Status;
using unikv::WriteOptions;

// ------------------------------------------------------------- workloads

// Call shares are per 10000 calls; Gets take the rest.
struct Workload {
  const char* name;
  uint64_t keys;
  int clients;
  int put_share;
  int mget_share;
  int scan_share;
  bool puts_insert;  // Puts add new keys instead of updating loaded ones.
  // The window is a fixed number of calls, ops_per_second x --seconds
  // (5 to 20 s at 10 s on a 4-core box, which runs from half to full
  // speed as its host's load changes), so every run does the same work
  // and its background debt and write amplification compare across runs.
  uint64_t ops_per_second;
  int setups;  // Loads per run; setup_s is their median.
  // Keys inserted after the settle and flushed but not merged, so the
  // window starts with a populated UnsortedStore, as a store taking
  // inserts has (scans then go through the anchor view).
  uint64_t tail_inserts;
};

// Every workload issues every call type, so each end-to-end latency is
// measured on each of them; the minor types are a small share of calls.
constexpr Workload kWorkloads[] = {
    // 95% reads (1 in 20 a MultiGet of 16), 5% updates; 0.5% of calls scan.
    {"read_heavy", 64 << 10, 4, 500, 475, 50, false, 600000, 5, 0},
    // 50% updates; reads are Gets with 3% MultiGets and 3% Scans.
    {"mixed_update", 512 << 10, 1, 5000, 300, 300, false, 40000, 2, 0},
    // 5% inserts of new keys; reads are Scans, with 4% Gets and 4%
    // MultiGets of calls. The 12 Ki tail inserts make about four flushes:
    // a few unsorted tables per partition, below the merge and scan-merge
    // triggers.
    {"scan_insert", 512 << 10, 1, 500, 400, 8700, true, 10000, 2, 12 << 10},
};

constexpr int kMultiGetKeys = 16;
constexpr int kMaxScanLength = 100;

// ---------------------------------------------------------------- model

// What the store must hold: ids [0, count) are present; each id's latest
// started write has version `version[id]`, its latest acknowledged one
// `committed[id]` (acknowledged at steady time `commit_ns[id]`). Writes to
// one id are serialized by a stripe lock so versions land in order.
class Model {
 public:
  Model(uint64_t loaded, uint64_t capacity)
      : capacity_(capacity),
        count_(loaded),
        version_(new std::atomic<uint32_t>[capacity]),
        committed_(new std::atomic<uint32_t>[capacity]),
        commit_ns_(new std::atomic<uint64_t>[capacity]) {
    sorted_.reserve(loaded);
    for (uint64_t id = 0; id < capacity; id++) {
      const uint32_t v = id < loaded ? 1 : 0;
      version_[id].store(v);
      committed_[id].store(v);
      commit_ns_[id].store(0);
      if (id < loaded) sorted_.push_back(KeyHash(id));
    }
    std::sort(sorted_.begin(), sorted_.end());
    if (std::adjacent_find(sorted_.begin(), sorted_.end()) != sorted_.end()) {
      std::fprintf(stderr, "key name collision\n");
      std::exit(2);
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  uint64_t capacity() const { return capacity_; }
  std::mutex& stripe(uint64_t id) { return stripes_[id % kStripes]; }

  // Called with stripe(id) held.
  uint32_t BeginWrite(uint64_t id) { return version_[id].fetch_add(1) + 1; }
  void Commit(uint64_t id, uint32_t v) {
    commit_ns_[id].store(NowNanos(), std::memory_order_relaxed);
    committed_[id].store(v, std::memory_order_release);
  }
  // Single-client inserts only: publishes id == count().
  void AddInserted(uint64_t id) {
    inserted_.insert(KeyHash(id));
    count_.store(id + 1, std::memory_order_release);
  }

  // True when `v` may be what a read of `id` that began at `op_start_ns`
  // returned: no newer than the latest write started, and no older than
  // the latest write acknowledged before the read began.
  bool VersionOk(uint64_t id, uint32_t v, uint64_t op_start_ns) const {
    const uint32_t c = committed_[id].load(std::memory_order_acquire);
    const uint64_t t = commit_ns_[id].load(std::memory_order_relaxed);
    const uint32_t x = version_[id].load(std::memory_order_acquire);
    return v >= 1 && v <= x && (t > op_start_ns || v >= c);
  }

  // The first `n` present key hashes >= `start`, in key order.
  void Expected(uint64_t start, int n, std::vector<uint64_t>* out) const {
    out->clear();
    auto a = std::lower_bound(sorted_.begin(), sorted_.end(), start);
    auto b = inserted_.lower_bound(start);
    while (static_cast<int>(out->size()) < n) {
      const bool a_ok = a != sorted_.end();
      const bool b_ok = b != inserted_.end();
      if (!a_ok && !b_ok) break;
      if (a_ok && (!b_ok || *a < *b)) {
        out->push_back(*a++);
      } else {
        out->push_back(*b++);
      }
    }
  }

 private:
  static constexpr int kStripes = 4096;
  const uint64_t capacity_;
  std::atomic<uint64_t> count_;
  std::unique_ptr<std::atomic<uint32_t>[]> version_;
  std::unique_ptr<std::atomic<uint32_t>[]> committed_;
  std::unique_ptr<std::atomic<uint64_t>[]> commit_ns_;
  std::vector<uint64_t> sorted_;  // Loaded keys, fixed after construction.
  std::set<uint64_t> inserted_;   // Written by the single inserting client.
  std::mutex stripes_[kStripes];
};

// ---------------------------------------------------------------- clients

// The window's calls are cut into kSlices runs of equal count (by the order
// clients claim them); throughput and medians are reported as the median
// over slices, so a few seconds of interference from outside the process
// move them less.
constexpr int kSlices = 10;

// Call latencies are recorded in nanoseconds: the histogram's buckets are
// then 10-20% wide around microsecond latencies, and percentiles
// interpolate inside a bucket.
struct ClientResult {
  Histogram lat[kSlices][kNumOpTypes];
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Calls that returned an error.
  uint64_t wrong = 0;   // Calls whose result failed verification.
  uint64_t user_bytes = 0;
  uint64_t ops_traced = 0;
  uint64_t ops_untraced = 0;
  std::string first_error;
};

struct RunControl {
  uint64_t total_ops = 0;
  std::atomic<uint64_t> next_op{0};
  // Entry kSlices is the window's end, set by the last client to finish.
  std::atomic<uint64_t> slice_start_ns[kSlices + 1] = {};
  std::mutex mu;
  std::condition_variable all_done;
  int running = 0;  // Guarded by mu.

  void ClientDone() {
    std::lock_guard<std::mutex> lock(mu);
    if (--running == 0) {
      slice_start_ns[kSlices].store(NowNanos());
      all_done.notify_all();
    }
  }
};

class Client {
 public:
  Client(DB* db, Model* model, const Workload& w, uint64_t seed, int index,
         RunControl* ctl)
      : db_(db),
        model_(model),
        w_(w),
        rng_(Mix64(seed) ^ Mix64(static_cast<uint64_t>(index) + 101)),
        chooser_(model->capacity()),
        ctl_(ctl) {}

  void Run() {
    trace_ = Tracer::Get().RegisterClient();
    value_buf_.resize(kValueSize);
    while (true) {
      const uint64_t op = ctl_->next_op.fetch_add(1);
      if (op >= ctl_->total_ops) break;
      slice_ = static_cast<int>(op * kSlices / ctl_->total_ops);
      if (op == (static_cast<uint64_t>(slice_) * ctl_->total_ops + kSlices - 1) /
                    kSlices) {
        ctl_->slice_start_ns[slice_].store(NowNanos());
      }
      const int r = static_cast<int>(rng_.Below(10000));
      (Tracer::Get().on() ? res_.ops_traced : res_.ops_untraced)++;
      res_.attempted++;
      if (r < w_.put_share) {
        w_.puts_insert ? DoInsert() : DoUpdate();
      } else if (r < w_.put_share + w_.mget_share) {
        DoMultiGet();
      } else if (r < w_.put_share + w_.mget_share + w_.scan_share) {
        DoScan();
      } else {
        DoGet();
      }
    }
    ctl_->ClientDone();
    // Folds this thread's pending engine counters into the registry so the
    // window's counter deltas include every call made here.
    std::string ignored;
    db_->GetProperty("db.metrics.json", &ignored);
  }

  ClientResult& result() { return res_; }

 private:
  // A zipfian id among the present keys (YCSB redraws past the end).
  uint64_t ChooseId() {
    const uint64_t n = model_->count();
    while (true) {
      const uint64_t id = chooser_.Next(&rng_);
      if (id < n) return id;
    }
  }

  void Wrong(const char* what, uint64_t id) {
    res_.wrong++;
    if (res_.first_error.empty()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s (id %" PRIu64 ")", what, id);
      res_.first_error = buf;
    }
  }
  void Failed(const Status& s) {
    res_.failed++;
    if (res_.first_error.empty()) res_.first_error = s.ToString();
  }

  // Checks one returned value for `id`.
  bool ValueOk(uint64_t id, const std::string& value, uint64_t start_ns) {
    uint64_t got_id;
    uint32_t v;
    if (!DecodeValue(value, &got_id, &v)) return false;
    return got_id == id && model_->VersionOk(id, v, start_ns);
  }

  void DoGet() {
    const uint64_t id = ChooseId();
    char key[kKeySize + 1];
    KeyName(id, key);
    const uint64_t t0 = NowNanos();
    const uint32_t span = Tracer::Get().BeginOp(trace_, kOpGet);
    Status s = db_->Get(ro_, Slice(key, kKeySize), &value_);
    Tracer::Get().EndOp(trace_, span);
    res_.lat[slice_][kOpGet].Add(NowNanos() - t0);
    if (!s.ok()) return Failed(s);
    if (!ValueOk(id, value_, t0)) Wrong("get", id);
  }

  void DoMultiGet() {
    uint64_t ids[kMultiGetKeys];
    char keys[kMultiGetKeys][kKeySize + 1];
    mget_keys_.clear();
    for (int i = 0; i < kMultiGetKeys; i++) {
      ids[i] = ChooseId();
      KeyName(ids[i], keys[i]);
      mget_keys_.emplace_back(keys[i], kKeySize);
    }
    const uint64_t t0 = NowNanos();
    const uint32_t span = Tracer::Get().BeginOp(trace_, kOpMultiGet);
    Status s = db_->MultiGet(ro_, mget_keys_, &mget_values_, &mget_statuses_);
    Tracer::Get().EndOp(trace_, span);
    res_.lat[slice_][kOpMultiGet].Add(NowNanos() - t0);
    if (!s.ok()) return Failed(s);
    for (int i = 0; i < kMultiGetKeys; i++) {
      if (!mget_statuses_[i].ok() ||
          !ValueOk(ids[i], mget_values_[i], t0)) {
        return Wrong("multiget", ids[i]);
      }
    }
  }

  void Write(uint64_t id, uint32_t version) {
    char key[kKeySize + 1];
    KeyName(id, key);
    EncodeValue(id, version, value_buf_.data());
    const uint64_t t0 = NowNanos();
    const uint32_t span = Tracer::Get().BeginOp(trace_, kOpPut);
    Status s = db_->Put(wo_, Slice(key, kKeySize),
                        Slice(value_buf_.data(), kValueSize));
    Tracer::Get().EndOp(trace_, span);
    res_.lat[slice_][kOpPut].Add(NowNanos() - t0);
    if (!s.ok()) return Failed(s);
    model_->Commit(id, version);
    res_.user_bytes += kKeySize + kValueSize;
  }

  void DoUpdate() {
    const uint64_t id = ChooseId();
    std::lock_guard<std::mutex> lock(model_->stripe(id));
    Write(id, model_->BeginWrite(id));
  }

  void DoInsert() {
    const uint64_t id = model_->count();
    if (id >= model_->capacity()) return DoUpdate();
    {
      std::lock_guard<std::mutex> lock(model_->stripe(id));
      Write(id, model_->BeginWrite(id));
    }
    model_->AddInserted(id);
  }

  void DoScan() {
    const uint64_t id = ChooseId();
    const int len = 1 + static_cast<int>(rng_.Below(kMaxScanLength));
    char key[kKeySize + 1];
    KeyName(id, key);
    const uint64_t t0 = NowNanos();
    const uint32_t span = Tracer::Get().BeginOp(trace_, kOpScan);
    Status s = db_->Scan(ro_, Slice(key, kKeySize), len, &scan_out_);
    Tracer::Get().EndOp(trace_, span);
    res_.lat[slice_][kOpScan].Add(NowNanos() - t0);
    if (!s.ok()) return Failed(s);
    // Order, gaps and duplicates: the keys must be exactly the next `len`
    // present keys from the start key. The key set only changes under
    // single-client inserts, so the expectation is exact.
    model_->Expected(KeyHash(id), len, &expected_);
    if (scan_out_.size() != expected_.size()) return Wrong("scan length", id);
    for (size_t i = 0; i < expected_.size(); i++) {
      const auto& [k, v] = scan_out_[i];
      uint64_t hash, got_id;
      uint32_t version;
      if (!ParseKeyHash(k.data(), k.size(), &hash) || hash != expected_[i] ||
          !DecodeValue(v, &got_id, &version) || KeyHash(got_id) != hash ||
          !model_->VersionOk(got_id, version, t0)) {
        return Wrong("scan entry", id);
      }
    }
  }

  DB* const db_;
  Model* const model_;
  const Workload& w_;
  Rng rng_;
  const ScrambledZipfian chooser_;
  RunControl* const ctl_;
  ThreadTrace* trace_ = nullptr;
  int slice_ = 0;
  const ReadOptions ro_;
  const WriteOptions wo_;  // sync=false: WAL appended, fsync at flush only.
  ClientResult res_;
  std::string value_;
  std::vector<char> value_buf_;
  std::vector<Slice> mget_keys_;
  std::vector<std::string> mget_values_;
  std::vector<Status> mget_statuses_;
  std::vector<std::pair<std::string, std::string>> scan_out_;
  std::vector<uint64_t> expected_;
};

// ------------------------------------------------------------- helpers

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "unikv_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

uint64_t WallMicros() { return unikv::Env::Default()->NowMicros(); }

// System-wide CPU time by state from /proc/stat, in clock ticks: user,
// nice, system, idle, iowait, irq, softirq, steal. Steal is time the host
// ran something else while a virtual CPU here wanted to run.
struct CpuTimes {
  uint64_t t[8] = {};
};
CpuTimes ReadCpuTimes() {
  CpuTimes c;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  for (uint64_t& v : c.t) f >> v;
  return c;
}

// The process's anonymous RSS in KiB (not VmRSS/VmHWM: mmapped value logs
// inflate the file-backed part).
uint64_t ReadRssAnonKib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

// Samples ReadRssAnonKib() every 20 ms while it exists.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Samples so far, in KiB.
  std::vector<uint64_t> samples() {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      samples_.push_back(ReadRssAnonKib());
      cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;                // Guarded by mu_.
  std::vector<uint64_t> samples_;    // Guarded by mu_.
  std::thread thread_;  // Declared last: started after the fields it uses.
};

std::string Property(DB* db, const char* name) {
  std::string v;
  if (!db->GetProperty(name, &v)) Die(std::string("no property ") + name);
  return v;
}

// Value of a top-level unsigned field in one JSON line, or 0.
uint64_t JsonUint(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t p = line.find(needle);
  if (p == std::string::npos) return 0;
  return std::strtoull(line.c_str() + p + needle.size(), nullptr, 10);
}

std::string JsonEvent(const std::string& line) {
  const std::string needle = "\"event\":\"";
  const size_t p = line.find(needle);
  if (p == std::string::npos) return "";
  const size_t e = line.find('"', p + needle.size());
  return line.substr(p + needle.size(), e - p - needle.size());
}

struct Job {
  uint64_t start_ns, end_ns;  // steady clock
  std::string kind;
};

// Background jobs that finished in [from_us, to_us] (wall clock), from
// the engine's EVENTS log (and its rotated predecessor).
std::vector<std::string> ReadEvents(const std::string& dir, uint64_t from_us,
                                    uint64_t to_us) {
  std::vector<std::string> lines;
  for (const char* name : {"EVENTS.old", "EVENTS"}) {
    std::ifstream f(dir + "/" + name);
    std::string line;
    while (std::getline(f, line)) {
      const uint64_t ts = JsonUint(line, "ts_micros");
      if (ts >= from_us && ts <= to_us && !line.empty()) {
        lines.push_back(line);
      }
    }
  }
  return lines;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void AppendIo(std::string* out, const IoSnapshot& a, const IoSnapshot& b) {
  *out += "{";
  for (int k = 0; k < kNumKinds; k++) {
    if (k) *out += ",";
    *out += "\"";
    *out += kKindNames[k];
    *out += "\":{";
    for (int c = 0; c < kNumClasses; c++) {
      const auto& x = a.cell[k][c];
      const auto& y = b.cell[k][c];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s\"%s\":{\"read_bytes\":%" PRIu64 ",\"write_bytes\":%" PRIu64
          ",\"syncs\":%" PRIu64 ",\"calls\":%" PRIu64 ",\"io_us\":%.3f"
          ",\"zero_copy_reads\":%" PRIu64 ",\"copy_reads\":%" PRIu64 "}",
          c ? "," : "", c == kClient ? "client" : "engine",
          y.read_bytes - x.read_bytes, y.write_bytes - x.write_bytes,
          y.syncs - x.syncs, y.calls - x.calls, (y.io_ns - x.io_ns) / 1e3,
          y.zero_copy_reads - x.zero_copy_reads, y.copy_reads - x.copy_reads);
      *out += buf;
    }
    *out += "}";
  }
  *out += "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// The median, over groups of adjacent slices, of each group's q-th
// percentile. Uses the most groups (10, 5, 2 or 1) in which every group
// holds at least `min_samples` calls; with one group it is the whole
// window's.
double SlicedPercentileUs(const std::vector<const Histogram*>& slices,
                          double q, uint64_t min_samples, int* groups) {
  for (int k : {kSlices, kSlices / 2, 2, 1}) {
    const int per = kSlices / k;
    std::vector<Histogram> merged(k);
    bool enough = true;
    for (int g = 0; g < k; g++) {
      for (int j = 0; j < per; j++) merged[g].Merge(*slices[g * per + j]);
      enough = enough && merged[g].Count() >= min_samples;
    }
    if (!enough && k > 1) continue;
    std::vector<double> v;
    for (const Histogram& h : merged) v.push_back(h.Percentile(q) / 1e3);
    std::sort(v.begin(), v.end());
    *groups = k;
    return k % 2 ? v[k / 2] : (v[k / 2 - 1] + v[k / 2]) / 2;
  }
  return 0;  // Not reached: one group always qualifies.
}

// ----------------------------------------------------------- trace results

struct TraceSummary {
  uint64_t ops[kNumOpTypes] = {};
  uint64_t op_ns[kNumOpTypes] = {};
  uint64_t child_ns[kNumOpTypes] = {};
  uint64_t child_spans = 0;
  uint64_t nest_violations = 0;
  uint64_t bg_spans = 0;
  uint64_t dropped = 0;
  std::vector<std::pair<std::string, double>> bg_io_us_by_job;
};

// Folds the span buffers: per call type, the op spans' total time and the
// part of it covered by their child Env spans (self time is the rest);
// background Env spans are matched to the EVENTS job running at the time.
TraceSummary SummarizeTrace(const std::vector<Job>& jobs,
                            const std::string& spans_path,
                            uint64_t origin_ns) {
  TraceSummary sum;
  std::map<std::string, uint64_t> bg_by_job;
  std::ofstream spans(spans_path);
  spans << "thread\tclass\tindex\tparent\tname\tfile_kind\tstart_ns\tdur_ns\n";
  size_t written = 0;
  constexpr size_t kMaxWritten = 200000;
  int thread_no = 0;
  for (ThreadTrace* t : Tracer::Get().Buffers()) {
    sum.dropped += t->dropped;
    for (size_t i = 0; i < t->spans.size(); i++) {
      const Span& s = t->spans[i];
      if (written < kMaxWritten) {
        spans << thread_no << '\t' << (t->cls == kClient ? "client" : "engine")
              << '\t' << i << '\t'
              << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
              << '\t' << kSpanNames[s.name] << '\t'
              << (s.name < kNumOpTypes ? "-" : kKindNames[s.kind]) << '\t'
              << s.start_ns - origin_ns << '\t' << s.end_ns - s.start_ns
              << '\n';
        written++;
      }
      if (s.name < kNumOpTypes) {
        sum.ops[s.name]++;
        sum.op_ns[s.name] += s.end_ns - s.start_ns;
      } else if (s.parent != kNoParent) {
        const Span& p = t->spans[s.parent];
        sum.child_spans++;
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
          sum.nest_violations++;
        }
        sum.child_ns[p.name] += s.end_ns - s.start_ns;
      } else {
        sum.bg_spans++;
        const uint64_t mid = s.start_ns + (s.end_ns - s.start_ns) / 2;
        std::string kind = "unmatched";
        for (const Job& j : jobs) {
          if (j.start_ns <= mid && mid <= j.end_ns) {
            kind = j.kind;
            break;
          }
        }
        bg_by_job[kind] += s.end_ns - s.start_ns;
      }
    }
    thread_no++;
  }
  for (const auto& [k, ns] : bg_by_job) {
    sum.bg_io_us_by_job.emplace_back(k, ns / 1e3);
  }
  return sum;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload, dir, out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;    // Shrinks the key count (self-test).
  bool inject = false;   // Plants one wrong value (self-test).
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--scale") {
      a.scale = std::strtod(v.c_str(), nullptr);
    } else if (k == "--inject-wrong") {
      a.inject = v == "1";
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.dir.empty() || a.out.empty() || a.seconds <= 0) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1 --dir D --out F");
  }
  return a;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool Optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// Writes version 1 of ids [begin, end) in batches of 64.
void Load(DB* db, uint64_t begin, uint64_t end) {
  WriteOptions wo;
  unikv::WriteBatch batch;
  char key[kKeySize + 1];
  std::vector<char> value(kValueSize);
  for (uint64_t id = begin; id < end; id++) {
    KeyName(id, key);
    EncodeValue(id, 1, value.data());
    batch.Put(Slice(key, kKeySize), Slice(value.data(), kValueSize));
    if (batch.Count() == 64 || id + 1 == end) {
      Check(db->Write(wo, &batch), "load");
      batch.Clear();
    }
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (std::strcmp(Sanitizer(), "none") != 0 || !Optimized()) {
    Die("refusing to measure a sanitizer or unoptimized build");
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads) {
    if (args.workload == x.name) w = &x;
  }
  if (w == nullptr) Die("unknown workload " + args.workload);
  const uint64_t keys =
      std::max<uint64_t>(2048, static_cast<uint64_t>(w->keys * args.scale));
  const uint64_t ops_per_second = static_cast<uint64_t>(
      w->ops_per_second * std::min(1.0, std::max(args.scale, 0.05)));
  const uint64_t total_ops = std::max<uint64_t>(
      kSlices, static_cast<uint64_t>(ops_per_second * args.seconds));
  const uint64_t tail = static_cast<uint64_t>(w->tail_inserts * args.scale);
  const uint64_t capacity = w->puts_insert ? keys + tail + keys / 2 : keys;

  TracingEnv env(unikv::Env::Default());
  Options options;
  options.env = &env;

  std::filesystem::create_directories(args.dir);
  std::vector<double> setup_s;
  DB* db = nullptr;
  std::unique_ptr<Model> model;
  for (int i = 0; i < w->setups; i++) {
    delete db;
    db = nullptr;
    model.reset();
    const auto t0 = std::chrono::steady_clock::now();
    Check(unikv::DestroyDB(options, args.dir), "destroy");
    Check(DB::Open(options, args.dir, &db), "open");
    model = std::make_unique<Model>(keys, capacity);
    Load(db, 0, keys);
    Check(db->CompactAll(), "settle before window");
    if (tail > 0) {
      Load(db, keys, keys + tail);
      for (uint64_t id = keys; id < keys + tail; id++) {
        std::lock_guard<std::mutex> lock(model->stripe(id));
        model->Commit(id, model->BeginWrite(id));
        model->AddInserted(id);
      }
      Check(db->FlushMemTable(), "flush tail inserts");
    }
    setup_s.push_back(SecondsSince(t0));
  }

  if (args.inject) {
    // A value the model does not know about: reads of the hottest key must
    // now fail verification.
    const uint64_t id = ScrambledZipfian(capacity).Hottest() % keys;
    char key[kKeySize + 1];
    std::vector<char> value(kValueSize);
    KeyName(id, key);
    EncodeValue(id, 1, value.data());
    value[100] ^= 1;
    Check(db->Put(WriteOptions(), Slice(key, kKeySize),
                  Slice(value.data(), kValueSize)),
          "inject");
  }

  // ---- timed window
  RunControl ctl;
  ctl.total_ops = total_ops;
  const std::string metrics_start = Property(db, "db.metrics.json");
  const std::string stats_start = Property(db, "db.stats");
  const IoSnapshot io_start = Tracer::Get().SnapshotIo();
  const uint64_t wall_start = WallMicros();
  const CpuTimes cpu_start = ReadCpuTimes();
  const uint64_t steady_start = NowNanos();
  const auto window_t0 = std::chrono::steady_clock::now();
  auto rss = std::make_unique<RssSampler>();

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < w->clients; i++) {
    clients.push_back(
        std::make_unique<Client>(db, model.get(), *w, args.seed, i, &ctl));
  }
  ctl.running = w->clients;
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back([&c] { c->Run(); });
  // Traced runs alternate 200 ms periods with tracing on and off, so the
  // two modes see the same store and machine state; their throughput gap
  // is the tracing overhead.
  double mode_s[2] = {0, 0};  // [untraced, traced]
  {
    bool traced = false;
    std::unique_lock<std::mutex> lock(ctl.mu);
    while (ctl.running > 0) {
      if (args.trace) {
        traced = !traced;
        Tracer::Get().SetOn(traced);
      }
      const auto t0 = std::chrono::steady_clock::now();
      ctl.all_done.wait_for(lock, std::chrono::milliseconds(200),
                            [&] { return ctl.running == 0; });
      mode_s[traced ? 1 : 0] += SecondsSince(t0);
    }
  }
  for (auto& t : threads) t.join();
  Tracer::Get().SetOn(false);
  // Anonymous memory the process holds at the window's end once the
  // allocator has returned its free pages: the live footprint, without
  // what malloc arenas happened to retain (the sampled peak is mostly
  // that).
  malloc_trim(0);
  const uint64_t rss_live_kib = ReadRssAnonKib();
  const double window_s = SecondsSince(window_t0);
  const uint64_t wall_window_end = WallMicros();
  const CpuTimes cpu_window = ReadCpuTimes();
  const std::string metrics_window = Property(db, "db.metrics.json");
  const std::string hash_index_bytes = Property(db, "db.hash-index-bytes");
  const std::string partitions = Property(db, "db.num-partitions");
  const IoSnapshot io_window = Tracer::Get().SnapshotIo();

  // ---- settle: the background debt the window left behind
  const auto settle_t0 = std::chrono::steady_clock::now();
  Check(db->CompactAll(), "settle after window");
  const double settle_s = SecondsSince(settle_t0);
  const std::string metrics_end = Property(db, "db.metrics.json");
  const std::string stats_end = Property(db, "db.stats");
  const IoSnapshot io_end = Tracer::Get().SnapshotIo();
  const uint64_t wall_end = WallMicros();
  std::vector<uint64_t> rss_kib = rss->samples();
  rss.reset();
  std::sort(rss_kib.begin(), rss_kib.end());
  if (rss_kib.empty()) rss_kib.push_back(0);
  delete db;  // Joins the engine's threads before their spans are read.
  db = nullptr;
  const uint64_t disk_bytes = DirBytes(args.dir);

  // ---- gather
  ClientResult total;
  for (auto& c : clients) {
    ClientResult& r = c->result();
    for (int k = 0; k < kSlices; k++) {
      for (int i = 0; i < kNumOpTypes; i++) total.lat[k][i].Merge(r.lat[k][i]);
    }
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.wrong += r.wrong;
    total.user_bytes += r.user_bytes;
    total.ops_traced += r.ops_traced;
    total.ops_untraced += r.ops_untraced;
    if (total.first_error.empty()) total.first_error = r.first_error;
  }
  const std::vector<std::string> events =
      ReadEvents(args.dir, wall_start, wall_end);
  std::vector<Job> jobs;
  for (const std::string& e : events) {
    const uint64_t end_ns =
        steady_start + (JsonUint(e, "ts_micros") - wall_start) * 1000;
    const uint64_t dur_ns = JsonUint(e, "duration_micros") * 1000;
    jobs.push_back({end_ns - std::min(end_ns, dur_ns), end_ns, JsonEvent(e)});
  }
  const std::string spans_path = args.trace ? args.out + ".spans.tsv" : "";
  const TraceSummary trace =
      args.trace ? SummarizeTrace(jobs, spans_path, steady_start)
                 : TraceSummary();

  std::string o = "{";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"keys\":%" PRIu64 ",\"clients\":%d,\"trace\":%s,"
                "\"environment\":{\"nproc\":%u,\"build_type\":\"%s\","
                "\"compiler\":%s,\"sanitizer\":\"%s\",\"optimized\":%s},",
                w->name, args.seed, keys, w->clients,
                args.trace ? "true" : "false",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                JsonString(__VERSION__).c_str(), Sanitizer(),
                Optimized() ? "true" : "false");
  o += buf;
  o += "\"cpu_window\":{";
  {
    static const char* kStates[8] = {"user",   "nice", "system",  "idle",
                                     "iowait", "irq",  "softirq", "steal"};
    uint64_t total = 0;
    for (int i = 0; i < 8; i++) total += cpu_window.t[i] - cpu_start.t[i];
    for (int i = 0; i < 8; i++) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.4f", i ? "," : "",
                    kStates[i],
                    total ? double(cpu_window.t[i] - cpu_start.t[i]) / total
                          : 0.0);
      o += buf;
    }
  }
  o += "},\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", setup_s[i]);
    o += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"wall_start_us\":%" PRIu64 ",\"wall_window_end_us\":%" PRIu64
                ",\"window_s\":%.6f,\"settle_s\":%.6f,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"wrong\":%" PRIu64
                ",\"first_error\":%s,\"user_bytes_written\":%" PRIu64
                ",\"live_user_bytes\":%" PRIu64 ",\"disk_bytes\":%" PRIu64
                ",\"rss_anon_live_kib\":%" PRIu64
                ",\"rss_anon_p95_kib\":%" PRIu64
                ",\"rss_anon_max_kib\":%" PRIu64
                ",\"hash_index_bytes\":%s,\"partitions\":%s,\"ops\":{",
                wall_start, wall_window_end, window_s, settle_s, total.attempted, total.failed, total.wrong,
                JsonString(total.first_error).c_str(), total.user_bytes,
                model->count() * (kKeySize + kValueSize), disk_bytes,
                rss_live_kib, rss_kib[rss_kib.size() * 95 / 100], rss_kib.back(),
                hash_index_bytes.c_str(), partitions.c_str());
  o += buf;
  for (int i = 0; i < kNumOpTypes; i++) {
    std::vector<const Histogram*> slices;
    Histogram pooled;
    for (int k = 0; k < kSlices; k++) {
      slices.push_back(&total.lat[k][i]);
      pooled.Merge(total.lat[k][i]);
    }
    // The median is taken per slice (robust to interference from outside
    // the process); the tail over the whole window, since background jobs
    // make slices' tails differ by design.
    int p50_groups;
    const double p50 = SlicedPercentileUs(slices, 50, 100, &p50_groups);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%" PRIu64
                  ",\"mean_us\":%.4f,\"p50_us\":%.4f,\"p50_groups\":%d"
                  ",\"p99_us\":%.4f}",
                  i ? "," : "", kSpanNames[i], pooled.Count(),
                  pooled.Average() / 1e3, p50, p50_groups,
                  pooled.Percentile(99) / 1e3);
    o += buf;
  }
  o += "},\"slice_s\":[";
  for (int k = 0; k < kSlices; k++) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", k ? "," : "",
                  (ctl.slice_start_ns[k + 1].load() -
                   ctl.slice_start_ns[k].load()) / 1e9);
    o += buf;
  }
  o += "],\"slice_ops\":[";
  for (int k = 0; k < kSlices; k++) {
    const auto first = [&](uint64_t j) {
      return (j * total_ops + kSlices - 1) / kSlices;
    };
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, k ? "," : "",
                  first(k + 1) - first(k));
    o += buf;
  }
  o += "]";
  o += ",\"io_window\":";
  AppendIo(&o, io_start, io_window);
  o += ",\"io\":";
  AppendIo(&o, io_start, io_end);
  o += ",\"metrics_start\":" + metrics_start;
  o += ",\"metrics_window\":" + metrics_window;
  o += ",\"metrics_end\":" + metrics_end;
  o += ",\"stats_start\":" + JsonString(stats_start);
  o += ",\"stats_end\":" + JsonString(stats_end);
  o += ",\"events\":[";
  for (size_t i = 0; i < events.size(); i++) {
    if (i) o += ",";
    o += events[i];
  }
  o += "],\"trace_summary\":{";
  std::snprintf(buf, sizeof(buf),
                "\"untraced_s\":%.6f,\"traced_s\":%.6f,\"ops_untraced\":%" PRIu64
                ",\"ops_traced\":%" PRIu64 ",\"child_spans\":%" PRIu64
                ",\"nest_violations\":%" PRIu64 ",\"bg_spans\":%" PRIu64
                ",\"dropped\":%" PRIu64 ",\"ops\":{",
                mode_s[0], mode_s[1], total.ops_untraced, total.ops_traced,
                trace.child_spans, trace.nest_violations, trace.bg_spans,
                trace.dropped);
  o += buf;
  for (int i = 0; i < kNumOpTypes; i++) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%" PRIu64 ",\"span_us\":%.3f"
                  ",\"child_io_us\":%.3f}",
                  i ? "," : "", kSpanNames[i], trace.ops[i],
                  trace.op_ns[i] / 1e3, trace.child_ns[i] / 1e3);
    o += buf;
  }
  o += "},\"bg_io_us_by_job\":{";
  for (size_t i = 0; i < trace.bg_io_us_by_job.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", i ? "," : "",
                  trace.bg_io_us_by_job[i].first.c_str(),
                  trace.bg_io_us_by_job[i].second);
    o += buf;
  }
  o += "},\"spans_file\":" + JsonString(spans_path) + "}}\n";

  std::ofstream f(args.out);
  f << o;
  f.close();
  if (!f) Die("cannot write " + args.out);
  Check(unikv::DestroyDB(options, args.dir), "destroy after run");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
