#ifndef UNIKV_TESTS_TEST_UTIL_H_
#define UNIKV_TESTS_TEST_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/random.h"
#include "vlog/value_log.h"

namespace unikv {
namespace test {

/// Binaries that compile the same test source twice (the TSan/ASan
/// variants) must not share scratch directories with their unsanitized
/// twin: ctest runs them in parallel, and two live DB instances in one
/// directory sweep each other's files. The sanitizer targets define a
/// distinguishing tag.
#ifndef UNIKV_TEST_DIR_TAG
#define UNIKV_TEST_DIR_TAG ""
#endif

/// Returns a fresh scratch directory path for the calling test (removed
/// first if it already exists).
inline std::string NewTestDir(const std::string& name) {
  const char* base = std::getenv("TEST_TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/unikv_test_" UNIKV_TEST_DIR_TAG + name;
  // Best-effort: a stale survivor or pre-existing dir shows up as test
  // failures with far better messages than an abort here would give.
  (void)RemoveDirRecursively(Env::Default(), dir);
  (void)Env::Default()->CreateDir(dir);
  return dir;
}

/// Deterministic key of fixed width: "key0000001234".
inline std::string TestKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010llu",
                static_cast<unsigned long long>(i));
  return buf;
}

/// Deterministic value derived from (i, len).
inline std::string TestValue(uint64_t i, size_t len = 64) {
  Random rnd(static_cast<uint32_t>(i * 2654435761u + 1));
  std::string v;
  v.reserve(len);
  for (size_t j = 0; j < len; j++) {
    v.push_back(static_cast<char>('a' + rnd.Uniform(26)));
  }
  return v;
}

/// Paths of every value log in `dir`.
inline std::vector<std::string> ValueLogPaths(const std::string& dir) {
  std::vector<std::string> children, paths;
  (void)Env::Default()->GetChildren(dir, &children);
  for (const std::string& f : children) {
    if (f.size() > 5 && f.substr(f.size() - 5) == ".vlog") {
      paths.push_back(dir + "/" + f);
    }
  }
  return paths;
}

/// Flips one byte every `stride` bytes (from byte 700) of every value log
/// in `dir`, so a fraction of the records fail their checksum. Returns the
/// number of logs touched.
inline int FlipValueLogBytes(const std::string& dir, long stride) {
  int touched = 0;
  for (const std::string& path : ValueLogPaths(dir)) {
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    if (fp == nullptr) continue;
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    for (long off = 700; off < size; off += stride) {
      std::fseek(fp, off, SEEK_SET);
      const int c = std::fgetc(fp);
      std::fseek(fp, off, SEEK_SET);
      std::fputc(c ^ 0x5a, fp);
    }
    std::fclose(fp);
    touched++;
  }
  return touched;
}

/// Rewrites the value-log record stored under `from` so that it claims
/// key `to` (same length) with a valid checksum: the pointer to it is then
/// a pointer to another key's record. Returns false if no record matched.
inline bool RelabelValueLogRecord(const std::string& dir,
                                  const std::string& from,
                                  const std::string& to) {
  if (from.size() != to.size()) return false;
  for (const std::string& path : ValueLogPaths(dir)) {
    uint64_t offset = 0, size = 0, key_at = 0;
    bool found = false;
    (void)ScanValueLog(Env::Default(), path,
                       [&](uint64_t off, uint32_t rsize, const Slice& key,
                           const Slice& value) {
                         if (found || key != Slice(from)) return;
                         found = true;
                         offset = off;
                         size = rsize;
                         key_at = rsize - key.size() - value.size();
                       });
    if (!found) continue;
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    if (fp == nullptr) return false;
    std::string record(size, '\0');
    std::fseek(fp, static_cast<long>(offset), SEEK_SET);
    const bool read_ok = std::fread(record.data(), 1, size, fp) == size;
    record.replace(key_at, to.size(), to);
    EncodeFixed32(record.data(),
                  crc32c::Mask(crc32c::Value(record.data() + 4, size - 4)));
    std::fseek(fp, static_cast<long>(offset), SEEK_SET);
    const bool write_ok = std::fwrite(record.data(), 1, size, fp) == size;
    std::fclose(fp);
    return read_ok && write_ok;
  }
  return false;
}

/// Minimal recursive-descent JSON validity checker used by the metrics /
/// event-logger tests. Accepts any single JSON value; no semantic checks.
class JsonChecker {
 public:
  static bool Valid(const std::string& s) {
    JsonChecker c(s);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.pos_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    pos_++;  // '{'
    SkipWs();
    if (Peek() == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      pos_++;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    pos_++;  // '['
    SkipWs();
    if (Peek() == ']') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == ']') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    pos_++;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') {
        pos_++;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        pos_++;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; i++) {
            pos_++;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      pos_++;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') pos_++;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    if (Peek() == '.') {
      pos_++;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      pos_++;
      if (Peek() == '+' || Peek() == '-') pos_++;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      pos_++;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

inline bool IsValidJson(const std::string& s) { return JsonChecker::Valid(s); }

}  // namespace test
}  // namespace unikv

#endif  // UNIKV_TESTS_TEST_UTIL_H_
