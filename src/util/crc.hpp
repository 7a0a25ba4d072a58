#pragma once
// CRC implementations used by the in-vehicle network models.
//
// CAN 2.0 uses CRC-15 (poly 0x4599); CAN FD uses CRC-17 (0x3685B) for
// payloads up to 16 bytes and CRC-21 (0x302899) above; FlexRay uses CRC-24
// on the frame and CRC-11 on the header; Ethernet uses CRC-32 (reflected).
//
// Polynomial constants: 0x3685B and 0x302899 spell out the x^17 and x^21
// terms, while 0x4599 and the others leave the x^width term implicit. The
// register is masked to the CRC width, so both spellings divide by the same
// polynomial (0x1685B and 0x102899 in the implicit form).

#include <cstdint>

#include "util/bytes.hpp"

namespace aseck::util {

/// CAN 2.0 CRC-15, polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1 (0x4599),
/// init 0, over bytes MSB-first. The CAN model feeds it the stuff region
/// packed MSB-first and zero-padded to a byte boundary.
std::uint16_t crc15_can(BytesView data);

/// CAN FD CRC-17 (poly 0x3685B) over bytes, MSB-first, init 0.
std::uint32_t crc17_canfd(BytesView data);

/// CAN FD CRC-21 (poly 0x302899) over bytes, MSB-first, init 0.
std::uint32_t crc21_canfd(BytesView data);

/// FlexRay header CRC-11 (poly 0x385, init 0x01A).
std::uint16_t crc11_flexray(BytesView data);

/// FlexRay frame CRC-24 (poly 0x5D6DCB, init 0xFEDCBA).
std::uint32_t crc24_flexray(BytesView data);

/// IEEE 802.3 CRC-32 (reflected, init/final 0xFFFFFFFF). Flash pages are
/// checked with it, so it runs slicing-by-8: eight bytes per step through
/// eight compile-time tables, the tail one byte at a time through the first.
/// util_test checks it against a bit-serial reference.
std::uint32_t crc32_ieee(BytesView data);

/// AUTOSAR E2E Profile CRC-8 (SAE J1850, poly 0x1D, init 0xFF, xorout 0xFF).
std::uint8_t crc8_j1850(BytesView data);

}  // namespace aseck::util
