#include "util/crc.hpp"

#include <array>
#include <cstddef>

namespace aseck::util {

namespace {

/// Byte-wide table for an MSB-first CRC of `Width` (8..32) bits: entry i is
/// the register `i << (Width - 8)` after eight shift-and-divide steps. The
/// register is masked to `Width` bits, so a polynomial constant that spells
/// out the x^Width term divides exactly like one that leaves it implicit.
template <unsigned Width, std::uint32_t Poly>
consteval std::array<std::uint32_t, 256> msb_table() {
  static_assert(Width >= 8 && Width <= 32);
  constexpr std::uint32_t kMask =
      Width == 32 ? 0xffffffffu : ((1u << Width) - 1);
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i << (Width - 8);
    for (int bit = 0; bit < 8; ++bit) {
      const bool top = (crc >> (Width - 1)) & 1u;
      crc = (crc << 1) & kMask;
      if (top) crc ^= Poly & kMask;
    }
    table[i] = crc;
  }
  return table;
}

/// MSB-first CRC over bytes, one table lookup per byte.
template <unsigned Width, std::uint32_t Poly>
std::uint32_t crc_msb(BytesView data, std::uint32_t init,
                      std::uint32_t xorout) {
  static constexpr std::array<std::uint32_t, 256> kTable =
      msb_table<Width, Poly>();
  constexpr std::uint32_t kMask =
      Width == 32 ? 0xffffffffu : ((1u << Width) - 1);
  std::uint32_t crc = init;
  for (std::uint8_t byte : data) {
    crc = ((crc << 8) & kMask) ^ kTable[((crc >> (Width - 8)) ^ byte) & 0xffu];
  }
  return (crc ^ xorout) & kMask;
}

/// Reflected (LSB-first) CRC-32 table for polynomial 0xEDB88320.
consteval std::array<std::uint32_t, 256> crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    table[i] = crc;
  }
  return table;
}

/// Slicing-by-8 tables: row 0 is crc32_table(), and row k maps a byte to
/// its row-0 entry advanced through k more zero bytes, so one step folds
/// eight input bytes with eight independent lookups.
consteval std::array<std::array<std::uint32_t, 256>, 8> crc32_slice8_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = crc32_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

}  // namespace

std::uint16_t crc15_can(BytesView data) {
  return static_cast<std::uint16_t>(crc_msb<15, 0x4599>(data, 0, 0));
}

std::uint32_t crc17_canfd(BytesView data) {
  return crc_msb<17, 0x3685B>(data, 0, 0);
}

std::uint32_t crc21_canfd(BytesView data) {
  return crc_msb<21, 0x302899>(data, 0, 0);
}

std::uint16_t crc11_flexray(BytesView data) {
  return static_cast<std::uint16_t>(crc_msb<11, 0x385>(data, 0x01A, 0));
}

std::uint32_t crc24_flexray(BytesView data) {
  return crc_msb<24, 0x5D6DCB>(data, 0xFEDCBA, 0);
}

std::uint32_t crc32_ieee(BytesView data) {
  static constexpr auto kT = crc32_slice8_tables();
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
    crc = kT[7][crc & 0xffu] ^ kT[6][(crc >> 8) & 0xffu] ^
          kT[5][(crc >> 16) & 0xffu] ^ kT[4][crc >> 24] ^ kT[3][p[4]] ^
          kT[2][p[5]] ^ kT[1][p[6]] ^ kT[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kT[0][(crc ^ *p) & 0xffu];
  return crc ^ 0xffffffffu;
}

std::uint8_t crc8_j1850(BytesView data) {
  return static_cast<std::uint8_t>(crc_msb<8, 0x1D>(data, 0xFF, 0xFF));
}

}  // namespace aseck::util
