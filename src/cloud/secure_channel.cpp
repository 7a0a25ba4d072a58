#include "cloud/secure_channel.hpp"

#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace aseck::cloud {

namespace {

/// Derives both directions' keys from the ECDHE secret and transcript.
struct TrafficKeys {
  util::Bytes c2s_key, c2s_iv, s2c_key, s2c_iv;
};

TrafficKeys derive_keys(util::BytesView shared, util::BytesView transcript) {
  const crypto::Digest th = crypto::sha256(transcript);
  const util::Bytes okm = crypto::hkdf(
      util::BytesView(th.data(), th.size()), shared,
      util::from_string("aseck-cloud-v1"), 2 * (16 + 12));
  TrafficKeys keys;
  keys.c2s_key.assign(okm.begin(), okm.begin() + 16);
  keys.c2s_iv.assign(okm.begin() + 16, okm.begin() + 28);
  keys.s2c_key.assign(okm.begin() + 28, okm.begin() + 44);
  keys.s2c_iv.assign(okm.begin() + 44, okm.begin() + 56);
  return keys;
}

}  // namespace

util::Bytes ServerCredential::tbs() const {
  util::Bytes out(name.begin(), name.end());
  out.push_back(0);
  const util::Bytes kb = public_key.to_bytes();
  out.insert(out.end(), kb.begin(), kb.end());
  return out;
}

ServerCredential ServerCredential::issue(const std::string& name,
                                         const crypto::EcdsaPublicKey& key,
                                         const crypto::EcdsaPrivateKey& authority) {
  ServerCredential c;
  c.name = name;
  c.public_key = key;
  c.authority_sig = authority.sign(c.tbs());
  return c;
}

util::Bytes handshake_transcript(const ClientHello& ch, const util::Bytes& sr,
                                 const crypto::EcdsaPublicKey& server_ecdhe) {
  util::Bytes t = ch.random;
  const util::Bytes ce = ch.ecdhe.to_bytes();
  t.insert(t.end(), ce.begin(), ce.end());
  t.insert(t.end(), sr.begin(), sr.end());
  const util::Bytes se = server_ecdhe.to_bytes();
  t.insert(t.end(), se.begin(), se.end());
  return t;
}

RecordKeys::RecordKeys(util::Bytes key16, util::Bytes iv12)
    : aes_(crypto::Aes(key16)), iv_(std::move(iv12)) {}

RecordKeys::Sealed RecordKeys::seal(util::BytesView plaintext,
                                    util::BytesView aad) {
  if (!aes_) {
    throw std::logic_error("RecordKeys::seal: no session established");
  }
  Sealed out;
  out.seq = send_seq_++;
  util::Bytes nonce = iv_;
  for (int i = 0; i < 8; ++i) {
    nonce[11 - static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(out.seq >> (8 * i));
  }
  const crypto::GcmResult r = crypto::aes_gcm_encrypt(*aes_, nonce, aad, plaintext);
  out.ciphertext = r.ciphertext;
  out.tag = r.tag;
  return out;
}

std::optional<util::Bytes> RecordKeys::open(const Sealed& record,
                                            util::BytesView aad) {
  if (!aes_) return std::nullopt;
  util::Bytes nonce = iv_;
  for (int i = 0; i < 8; ++i) {
    nonce[11 - static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(record.seq >> (8 * i));
  }
  return crypto::aes_gcm_decrypt(*aes_, nonce, aad, record.ciphertext,
                                 util::BytesView(record.tag.data(), 16));
}

ChannelServer::ChannelServer(ServerCredential cred,
                             crypto::EcdsaPrivateKey identity,
                             crypto::Drbg& rng)
    : cred_(std::move(cred)), identity_(std::move(identity)), rng_(rng) {}

ServerHello ChannelServer::respond(const ClientHello& hello) {
  const auto ephemeral = crypto::EcdsaPrivateKey::generate(rng_);
  ServerHello out;
  out.random = rng_.bytes(32);
  out.ecdhe = ephemeral.public_key();
  out.credential = cred_;
  const util::Bytes transcript =
      handshake_transcript(hello, out.random, out.ecdhe);
  out.transcript_sig = identity_.sign(transcript);

  const auto shared =
      crypto::ecdh_shared(ephemeral, hello.ecdhe,
                          util::from_string("ecdhe"), 32);
  if (shared) {
    const TrafficKeys keys = derive_keys(*shared, transcript);
    from_client_ = RecordKeys(keys.c2s_key, keys.c2s_iv);
    to_client_ = RecordKeys(keys.s2c_key, keys.s2c_iv);
  }
  return out;
}

ChannelClient::ChannelClient(crypto::EcdsaPublicKey authority, crypto::Drbg& rng)
    : authority_(std::move(authority)), rng_(rng) {}

ClientHello ChannelClient::hello() {
  ephemeral_ = crypto::EcdsaPrivateKey::generate(rng_);
  client_random_ = rng_.bytes(32);
  ClientHello out;
  out.random = client_random_;
  out.ecdhe = ephemeral_->public_key();
  return out;
}

ChannelClient::Result ChannelClient::finish(const ServerHello& hello) {
  // 1. Server credential must chain to the pinned authority.
  if (!crypto::ecdsa_verify(authority_, hello.credential.tbs(),
                            hello.credential.authority_sig)) {
    return Result::kBadCredential;
  }
  // 2. Transcript must be signed by the credential's key (anti-MITM).
  ClientHello ch;
  ch.random = client_random_;
  ch.ecdhe = ephemeral_->public_key();
  const util::Bytes transcript =
      handshake_transcript(ch, hello.random, hello.ecdhe);
  if (!crypto::ecdsa_verify(hello.credential.public_key, transcript,
                            hello.transcript_sig)) {
    return Result::kBadTranscriptSig;
  }
  // 3. Key agreement + traffic key derivation.
  const auto shared = crypto::ecdh_shared(*ephemeral_, hello.ecdhe,
                                          util::from_string("ecdhe"), 32);
  if (!shared) return Result::kEcdhFailure;
  const TrafficKeys keys = derive_keys(*shared, transcript);
  to_server_ = RecordKeys(keys.c2s_key, keys.c2s_iv);
  from_server_ = RecordKeys(keys.s2c_key, keys.s2c_iv);
  return Result::kOk;
}

}  // namespace aseck::cloud
