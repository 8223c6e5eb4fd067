// Key choice and self-verifying values.
//
// Keys follow YCSB's scrambled zipfian chooser: a zipfian rank over a huge
// item space, scattered over the key ids by an FNV hash, so the hot keys
// are spread across the key range (and therefore across partitions and
// blocks). benchutil's KeyGenerator puts the hot set on the lowest ids
// instead, which with ordered key names lands it in one partition.
#ifndef PERFBENCH_KEYS_H_
#define PERFBENCH_KEYS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench {

// YCSB Utils.fnvhash64: FNV-1a over the 8 bytes of `v`, sign bit cleared.
inline uint64_t Fnv64(uint64_t v) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < 8; i++) {
    h ^= v & 0xff;
    v >>= 8;
    h *= 1099511628211ull;
  }
  return h & 0x7fffffffffffffffull;
}

inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// splitmix64 stream; seeded per thread from the run seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix64(s_++ * 0x9e3779b97f4a7c15ull + 1); }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

// YCSB ScrambledZipfianGenerator (theta 0.99): ranks come from a zipfian
// over 10^10 items with YCSB's precomputed zeta, then FNV-scrambled into
// [0, items).
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t items)
      : items_(items),
        zeta2_(1.0 + std::pow(0.5, kTheta)),
        alpha_(1.0 / (1.0 - kTheta)),
        eta_((1.0 - std::pow(2.0 / kItemSpace, 1.0 - kTheta)) /
             (1.0 - zeta2_ / kZetan)) {}

  uint64_t Next(Rng* rng) const {
    const double u = rng->Uniform();
    const double uz = u * kZetan;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < zeta2_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(kItemSpace *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Fnv64(rank) % items_;
  }

  // The id the most popular rank maps to.
  uint64_t Hottest() const { return Fnv64(0) % items_; }

 private:
  static constexpr double kTheta = 0.99;
  static constexpr double kItemSpace = 1e10;
  static constexpr double kZetan = 26.46902820178302;  // zeta(10^10, 0.99)
  const uint64_t items_;
  const double zeta2_;  // zeta(2, theta)
  const double alpha_, eta_;
};

// Key names are scattered by a mix of the id, as YCSB hashes its key
// numbers, so scans over key order visit unrelated ids.
constexpr size_t kKeySize = 20;
inline uint64_t KeyHash(uint64_t id) { return Mix64(id ^ 0x5bd1e995ull); }
inline void KeyName(uint64_t id, char out[kKeySize + 1]) {
  std::snprintf(out, kKeySize + 1, "user%016llx",
                static_cast<unsigned long long>(KeyHash(id)));
}
inline bool ParseKeyHash(const char* data, size_t n, uint64_t* hash) {
  if (n != kKeySize || std::memcmp(data, "user", 4) != 0) return false;
  uint64_t h = 0;
  for (size_t i = 4; i < n; i++) {
    const char c = data[i];
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    h = (h << 4) | static_cast<uint64_t>(d);
  }
  *hash = h;
  return true;
}

// A value is [id u64][version u32][checksum u32][filler], the filler a
// stream derived from (id, version) and the checksum covering every other
// byte, so a reader can check a value from its bytes alone: which key it
// belongs to, which write produced it, and that no byte changed.
constexpr size_t kValueSize = 1024;

inline uint32_t ValueChecksum(const char* v, size_t n) {
  uint64_t h = 0x27d4eb2f165667c5ull ^ n;
  uint64_t w;
  std::memcpy(&w, v, 8);
  h = Mix64(h ^ w);
  uint32_t ver;
  std::memcpy(&ver, v + 8, 4);
  h = Mix64(h ^ ver);
  for (size_t off = 16; off + 8 <= n; off += 8) {
    std::memcpy(&w, v + off, 8);
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 29;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

inline void EncodeValue(uint64_t id, uint32_t version, char* v) {
  std::memcpy(v, &id, 8);
  std::memcpy(v + 8, &version, 4);
  uint64_t s = Mix64(id * 0x100000001b3ull + version);
  for (size_t off = 16; off < kValueSize; off += 8) {
    s = Mix64(s);
    std::memcpy(v + off, &s, 8);
  }
  const uint32_t sum = ValueChecksum(v, kValueSize);
  std::memcpy(v + 12, &sum, 4);
}

// Checks a value's integrity and reports its id and version.
inline bool DecodeValue(const std::string& v, uint64_t* id,
                        uint32_t* version) {
  if (v.size() != kValueSize) return false;
  uint32_t sum;
  std::memcpy(&sum, v.data() + 12, 4);
  if (sum != ValueChecksum(v.data(), v.size())) return false;
  std::memcpy(id, v.data(), 8);
  std::memcpy(version, v.data() + 8, 4);
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_KEYS_H_
