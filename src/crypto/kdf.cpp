#include "crypto/kdf.hpp"

#include <cstring>
#include <stdexcept>

namespace aseck::crypto {

Block mp_compress(util::BytesView msg, bool she_padding) {
  util::Bytes data(msg.begin(), msg.end());
  if (she_padding) {
    // SHE padding: 1-bit, zero fill, 40-bit big-endian message bit length in
    // the last 5 bytes of the final block.
    const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
    data.push_back(0x80);
    while (data.size() % kAesBlockSize != kAesBlockSize - 5) data.push_back(0);
    util::append_be(data, bit_len, 5);
  } else if (data.size() % kAesBlockSize != 0) {
    throw std::invalid_argument("mp_compress: unaligned input without padding");
  }
  Block h{};
  for (std::size_t off = 0; off < data.size(); off += kAesBlockSize) {
    Block m;
    std::memcpy(m.data(), &data[off], kAesBlockSize);
    const Block e = Aes(util::BytesView(h.data(), h.size())).encrypt(m);
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      h[i] = static_cast<std::uint8_t>(e[i] ^ h[i] ^ m[i]);
    }
  }
  return h;
}

Block she_kdf(const Block& key, const Block& c) {
  // The SHE constants already carry the padding/length encoding, so the
  // compression runs over exactly the two blocks K || C.
  util::Bytes msg(key.begin(), key.end());
  msg.insert(msg.end(), c.begin(), c.end());
  return mp_compress(msg, /*she_padding=*/false);
}

namespace {
Block make_constant(std::uint8_t id) {
  // SHE spec constants, e.g. KEY_UPDATE_ENC_C =
  // 0x0101534845008000_00000000000000B0: prefix 0x01, usage id, "SHE",
  // 0x00 0x80 pad marker, and 0xB0 trailer.
  Block c{};
  c[0] = 0x01;
  c[1] = id;
  c[2] = 0x53;  // 'S'
  c[3] = 0x48;  // 'H'
  c[4] = 0x45;  // 'E'
  c[5] = 0x00;
  c[6] = 0x80;
  c[15] = 0xB0;
  return c;
}
}  // namespace

const Block& she_key_update_enc_c() {
  static const Block c = make_constant(0x01);
  return c;
}
const Block& she_key_update_mac_c() {
  static const Block c = make_constant(0x02);
  return c;
}

}  // namespace aseck::crypto
