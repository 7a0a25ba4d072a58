#include "crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

namespace aseck::crypto {

namespace {

std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a >> 7) * 0x1b));
}

struct Tables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};

  Tables() {
    // Build the S-box from multiplicative inverses in GF(2^8) followed by
    // the affine transform, using the standard generator-walk trick:
    // 3 generates GF(2^8)*, so inv(3^i) = 3^(255-i).
    std::array<std::uint8_t, 256> pow3{};
    std::array<std::uint8_t, 256> log3{};
    std::uint8_t p = 1;
    for (int i = 0; i < 255; ++i) {
      pow3[i] = p;
      log3[p] = static_cast<std::uint8_t>(i);
      // multiply by 3 = x + 1
      p = static_cast<std::uint8_t>(p ^ xtime(p));
    }
    for (int x = 0; x < 256; ++x) {
      std::uint8_t inv =
          (x == 0) ? 0 : pow3[(255 - log3[static_cast<std::uint8_t>(x)]) % 255];
      // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
      auto rotl8 = [](std::uint8_t v, int n) {
        return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
      };
      std::uint8_t s = static_cast<std::uint8_t>(
          inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63);
      sbox[x] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(x);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

void add_round_key(std::uint8_t st[16], const std::uint8_t rk[16]) {
  for (int i = 0; i < 16; ++i) st[i] ^= rk[i];
}

void sub_bytes(std::uint8_t st[16]) {
  const auto& t = tables();
  for (int i = 0; i < 16; ++i) st[i] = t.sbox[st[i]];
}

void inv_sub_bytes(std::uint8_t st[16]) {
  const auto& t = tables();
  for (int i = 0; i < 16; ++i) st[i] = t.inv_sbox[st[i]];
}

// State layout: st[4*c + r] is row r, column c (column-major as in FIPS 197).
void shift_rows(std::uint8_t st[16]) {
  std::uint8_t tmp;
  // row 1: shift left by 1
  tmp = st[1];
  st[1] = st[5];
  st[5] = st[9];
  st[9] = st[13];
  st[13] = tmp;
  // row 2: shift left by 2
  std::swap(st[2], st[10]);
  std::swap(st[6], st[14]);
  // row 3: shift left by 3 (= right by 1)
  tmp = st[15];
  st[15] = st[11];
  st[11] = st[7];
  st[7] = st[3];
  st[3] = tmp;
}

void inv_shift_rows(std::uint8_t st[16]) {
  std::uint8_t tmp;
  // row 1: shift right by 1
  tmp = st[13];
  st[13] = st[9];
  st[9] = st[5];
  st[5] = st[1];
  st[1] = tmp;
  // row 2
  std::swap(st[2], st[10]);
  std::swap(st[6], st[14]);
  // row 3: shift right by 3 (= left by 1)
  tmp = st[3];
  st[3] = st[7];
  st[7] = st[11];
  st[11] = st[15];
  st[15] = tmp;
}

void mix_columns(std::uint8_t st[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = st + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
    col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
    col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
    col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
    col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
  }
}

void inv_mix_columns(std::uint8_t st[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = st + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                       gf_mul(a2, 13) ^ gf_mul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                       gf_mul(a2, 11) ^ gf_mul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                       gf_mul(a2, 14) ^ gf_mul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                       gf_mul(a2, 9) ^ gf_mul(a3, 14));
  }
}

}  // namespace

std::uint8_t aes_sbox(std::uint8_t x) { return tables().sbox[x]; }
std::uint8_t aes_inv_sbox(std::uint8_t x) { return tables().inv_sbox[x]; }

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

Aes::Aes(util::BytesView key) {
  const std::size_t nk = key.size() / 4;  // key words
  switch (key.size()) {
    case 16: rounds_ = 10; break;
    case 24: rounds_ = 12; break;
    case 32: rounds_ = 14; break;
    default: throw std::invalid_argument("Aes: key must be 16/24/32 bytes");
  }
  const auto& t = tables();
  const std::size_t total_words = 4 * (rounds_ + 1);
  // Word i is rk_[4*i .. 4*i+3].
  std::memcpy(rk_.data(), key.data(), key.size());
  std::uint8_t rcon = 1;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t w[4];
    std::memcpy(w, &rk_[4 * (i - 1)], 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t tmp = w[0];
      w[0] = static_cast<std::uint8_t>(t.sbox[w[1]] ^ rcon);
      w[1] = t.sbox[w[2]];
      w[2] = t.sbox[w[3]];
      w[3] = t.sbox[tmp];
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : w) b = t.sbox[b];
    }
    for (int j = 0; j < 4; ++j) {
      rk_[4 * i + j] = static_cast<std::uint8_t>(rk_[4 * (i - nk) + j] ^ w[j]);
    }
  }
  // Equivalent-inverse-cipher decryption round keys: reverse order,
  // InvMixColumns on the middle ones.
  for (int r = 0; r <= rounds_; ++r) {
    std::memcpy(&drk_[16 * r], &rk_[16 * (rounds_ - r)], 16);
    if (r != 0 && r != rounds_) inv_mix_columns(&drk_[16 * r]);
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t st[16];
  std::memcpy(st, in, 16);
  add_round_key(st, round_key(0));
  for (int r = 1; r < rounds_; ++r) {
    sub_bytes(st);
    shift_rows(st);
    mix_columns(st);
    add_round_key(st, round_key(r));
  }
  sub_bytes(st);
  shift_rows(st);
  add_round_key(st, round_key(rounds_));
  std::memcpy(out, st, 16);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t st[16];
  std::memcpy(st, in, 16);
  add_round_key(st, &drk_[0]);
  for (int r = 1; r < rounds_; ++r) {
    inv_sub_bytes(st);
    inv_shift_rows(st);
    inv_mix_columns(st);
    add_round_key(st, &drk_[16 * r]);
  }
  inv_sub_bytes(st);
  inv_shift_rows(st);
  add_round_key(st, &drk_[16 * rounds_]);
  std::memcpy(out, st, 16);
}

Block Aes::encrypt(const Block& in) const {
  Block out;
  encrypt_block(in.data(), out.data());
  return out;
}

Block Aes::decrypt(const Block& in) const {
  Block out;
  decrypt_block(in.data(), out.data());
  return out;
}

util::Bytes aes_ctr(const Aes& aes, const Block& iv, util::BytesView data) {
  util::Bytes out(data.size());
  Block counter = iv;
  Block keystream;
  std::size_t off = 0;
  while (off < data.size()) {
    aes.encrypt_block(counter.data(), keystream.data());
    const std::size_t n = std::min(kAesBlockSize, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = static_cast<std::uint8_t>(data[off + i] ^ keystream[i]);
    }
    off += n;
    // Increment low 32 bits big-endian.
    for (int i = 15; i >= 12; --i) {
      if (++counter[static_cast<std::size_t>(i)] != 0) break;
    }
  }
  return out;
}

util::Bytes aes_cbc_encrypt(const Aes& aes, const Block& iv, util::BytesView plain) {
  const std::size_t pad = kAesBlockSize - plain.size() % kAesBlockSize;
  util::Bytes padded(plain.begin(), plain.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));
  util::Bytes out(padded.size());
  Block prev = iv;
  for (std::size_t off = 0; off < padded.size(); off += kAesBlockSize) {
    Block blk;
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      blk[i] = static_cast<std::uint8_t>(padded[off + i] ^ prev[i]);
    }
    aes.encrypt_block(blk.data(), &out[off]);
    std::memcpy(prev.data(), &out[off], kAesBlockSize);
  }
  return out;
}

util::Bytes aes_cbc_decrypt(const Aes& aes, const Block& iv, util::BytesView cipher) {
  if (cipher.empty() || cipher.size() % kAesBlockSize != 0) {
    throw std::invalid_argument("aes_cbc_decrypt: length not a block multiple");
  }
  util::Bytes out(cipher.size());
  Block prev = iv;
  for (std::size_t off = 0; off < cipher.size(); off += kAesBlockSize) {
    Block plain;
    aes.decrypt_block(&cipher[off], plain.data());
    for (std::size_t i = 0; i < kAesBlockSize; ++i) {
      out[off + i] = static_cast<std::uint8_t>(plain[i] ^ prev[i]);
    }
    std::memcpy(prev.data(), &cipher[off], kAesBlockSize);
  }
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kAesBlockSize || pad > out.size()) {
    throw std::invalid_argument("aes_cbc_decrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw std::invalid_argument("aes_cbc_decrypt: bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace aseck::crypto
