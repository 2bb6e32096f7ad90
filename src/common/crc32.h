#ifndef PITREE_COMMON_CRC32_H_
#define PITREE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace pitree {

/// CRC-32C (Castagnoli). Used to frame WAL records so recovery can detect
/// torn writes at the log tail and distinguish them from corruption.
uint32_t Crc32c(const char* data, size_t n);

/// Extends a running CRC with more data. Uses the SSE4.2 `crc32`
/// instruction when the CPU has it, the byte table otherwise; both give
/// bit-identical values, so logs written by either read back under the
/// other.
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

/// Masks a CRC so that a CRC of data that itself contains CRCs does not
/// produce pathological values (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

namespace crc32c_internal {

/// The two implementations Crc32cExtend dispatches between, exposed so
/// tests can hold the instruction path to the portable table.
uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n);
/// True when ExtendHardware may be called on this CPU.
bool HardwareAvailable();
uint32_t ExtendHardware(uint32_t crc, const char* data, size_t n);

}  // namespace crc32c_internal

}  // namespace pitree

#endif  // PITREE_COMMON_CRC32_H_
