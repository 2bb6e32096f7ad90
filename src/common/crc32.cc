#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PITREE_CRC32C_X86 1
#endif

namespace pitree {

namespace {

// Table-driven CRC-32C, generated at first use.
struct Crc32cTable {
  uint32_t table[256];
  Crc32cTable() {
    const uint32_t poly = 0x82f63b78u;  // reflected Castagnoli polynomial
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      table[i] = crc;
    }
  }
};

const Crc32cTable& GetTable() {
  static const Crc32cTable* table = new Crc32cTable();
  return *table;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  const Crc32cTable& t = GetTable();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = t.table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return ~crc;
}

#ifdef PITREE_CRC32C_X86

bool HardwareAvailable() {
  // __builtin_cpu_init must precede __builtin_cpu_supports when the first
  // call can come from a static initializer.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

// The instruction folds the same reflected Castagnoli polynomial as the
// table, 8 bytes per step; x86 is little-endian, so loading a word and
// feeding it whole equals feeding its bytes in address order.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++data) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*data));
  }
  return ~c32;
}

#else

bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n) {
  return ExtendPortable(crc, data, n);
}

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  if (crc32c_internal::HardwareAvailable()) {
    return crc32c_internal::ExtendHardware(crc, data, n);
  }
  return crc32c_internal::ExtendPortable(crc, data, n);
}

uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace pitree
