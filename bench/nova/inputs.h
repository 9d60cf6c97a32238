// Workload inputs owned by bench_nova: a seeded xorshift generator,
// 24-byte keys, and 1 KB values that embed their key so every read can be
// checked. Nothing here depends on the store, so a change to the store
// cannot change what the benchmark sends.
#ifndef NOVA_BENCH_NOVA_INPUTS_H_
#define NOVA_BENCH_NOVA_INPUTS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace nova_bench {

constexpr size_t kKeyBytes = 24;
constexpr size_t kValueBytes = 1024;
/// Bytes of a value that are random; the rest repeat a 16-byte pattern,
/// so a data block compresses about 2:1.
constexpr size_t kRandomBytes = kValueBytes / 2;
constexpr size_t kNonceOffset = kKeyBytes;
constexpr size_t kNonceDigits = 16;

/// splitmix64: spreads consecutive seeds over the whole state space.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xorshift64* (Vigna 2016).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix64(seed) | 1) {}

  uint64_t Next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1Dull;
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// "user" + 20 zero-padded digits: 24 bytes, ordered like the index.
inline std::string Key(uint64_t index) {
  char buf[kKeyBytes + 1];
  snprintf(buf, sizeof(buf), "user%020llu",
           static_cast<unsigned long long>(index));
  return std::string(buf, kKeyBytes);
}

/// The index of a key Key() made; false for any other string.
inline bool KeyIndex(const std::string& key, uint64_t* index) {
  if (key.size() != kKeyBytes || key.compare(0, 4, "user") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < kKeyBytes; i++) {
    if (key[i] < '0' || key[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *index = v;
  return true;
}

/// Fills out[0, kValueBytes) with the value for (key, nonce):
///   key | nonce as 16 hex digits | random bytes up to kRandomBytes |
///   the nonce digits repeated to the end.
/// The random part is a function of (key, nonce), so a value can be
/// re-derived from its own first 40 bytes.
inline void FillValue(const char* key, uint64_t nonce, char* out) {
  memcpy(out, key, kKeyBytes);
  char digits[kNonceDigits + 1];
  snprintf(digits, sizeof(digits), "%016llx",
           static_cast<unsigned long long>(nonce));
  memcpy(out + kNonceOffset, digits, kNonceDigits);
  uint64_t h = nonce;
  for (size_t i = 0; i < kKeyBytes; i++) {
    h = Mix64(h ^ static_cast<unsigned char>(key[i]));
  }
  Rng rng(h);
  size_t pos = kNonceOffset + kNonceDigits;
  while (pos < kRandomBytes) {
    uint64_t word = rng.Next();
    size_t n = std::min(sizeof(word), kRandomBytes - pos);
    memcpy(out + pos, &word, n);
    pos += n;
  }
  while (pos < kValueBytes) {
    size_t n = std::min(kNonceDigits, kValueBytes - pos);
    memcpy(out + pos, digits, n);
    pos += n;
  }
}

inline std::string MakeValue(const std::string& key, uint64_t nonce) {
  std::string value(kValueBytes, '\0');
  FillValue(key.data(), nonce, &value[0]);
  return value;
}

/// True when value is exactly a value MakeValue produced for this key
/// (any nonce): right length, right embedded key, and the random and
/// repeated parts match what the embedded nonce derives.
inline bool CheckValue(const std::string& key, const std::string& value) {
  if (key.size() != kKeyBytes || value.size() != kValueBytes ||
      memcmp(value.data(), key.data(), kKeyBytes) != 0) {
    return false;
  }
  uint64_t nonce = 0;
  for (size_t i = 0; i < kNonceDigits; i++) {
    char c = value[kNonceOffset + i];
    int d = (c >= '0' && c <= '9')   ? c - '0'
            : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                     : -1;
    if (d < 0) {
      return false;
    }
    nonce = (nonce << 4) | static_cast<uint64_t>(d);
  }
  char expect[kValueBytes];
  FillValue(key.data(), nonce, expect);
  return memcmp(expect, value.data(), kValueBytes) == 0;
}

}  // namespace nova_bench

#endif  // NOVA_BENCH_NOVA_INPUTS_H_
