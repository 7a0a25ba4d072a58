#pragma once
// Vehicle <-> cloud secure channel, TLS-1.3-flavored (paper §7 Secure
// Interfaces: "existing Internet security technologies such as HTTPS and
// TLS can be leveraged"). One-round-trip handshake:
//
//   client -> server : client_random || client ECDHE pub
//   server -> client : server_random || server ECDHE pub || server cert
//                      || SIG_server(transcript)
//
// Both sides derive directional AES-GCM traffic keys via HKDF over the
// ECDHE secret and the transcript hash. The client authenticates the server
// against a pinned authority key (OEM backend CA). Downgrade or key
// substitution breaks the transcript signature.

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"

namespace aseck::cloud {

/// Server identity: key pair + authority signature over (name || pubkey).
struct ServerCredential {
  std::string name;
  crypto::EcdsaPublicKey public_key;
  crypto::EcdsaSignature authority_sig;

  util::Bytes tbs() const;
  static ServerCredential issue(const std::string& name,
                                const crypto::EcdsaPublicKey& key,
                                const crypto::EcdsaPrivateKey& authority);
};

struct ClientHello {
  util::Bytes random;             // 32 bytes
  crypto::EcdsaPublicKey ecdhe;   // client ephemeral share (P-256 point)
};

struct ServerHello {
  util::Bytes random;
  crypto::EcdsaPublicKey ecdhe;
  ServerCredential credential;
  crypto::EcdsaSignature transcript_sig;
};

/// Established record protection for one direction.
class RecordKeys {
 public:
  RecordKeys() = default;
  RecordKeys(util::Bytes key16, util::Bytes iv12);

  /// Encrypts with the running sequence number mixed into the nonce.
  struct Sealed {
    util::Bytes ciphertext;
    std::array<std::uint8_t, 16> tag;
    std::uint64_t seq;
  };
  Sealed seal(util::BytesView plaintext, util::BytesView aad = {});
  std::optional<util::Bytes> open(const Sealed& record, util::BytesView aad = {});

 private:
  std::optional<crypto::Aes> aes_;
  util::Bytes iv_;
  std::uint64_t send_seq_ = 0;
};

/// Server side of the handshake.
class ChannelServer {
 public:
  ChannelServer(ServerCredential cred, crypto::EcdsaPrivateKey identity,
                crypto::Drbg& rng);

  /// Processes a ClientHello, producing the ServerHello and installing
  /// traffic keys.
  ServerHello respond(const ClientHello& hello);

  RecordKeys& to_client() { return to_client_; }
  RecordKeys& from_client() { return from_client_; }

 private:
  ServerCredential cred_;
  crypto::EcdsaPrivateKey identity_;
  crypto::Drbg& rng_;
  RecordKeys to_client_, from_client_;
};

/// Client side.
class ChannelClient {
 public:
  /// `authority` is the pinned OEM backend CA key.
  ChannelClient(crypto::EcdsaPublicKey authority, crypto::Drbg& rng);

  ClientHello hello();

  enum class Result { kOk, kBadCredential, kBadTranscriptSig, kEcdhFailure };
  Result finish(const ServerHello& hello);

  RecordKeys& to_server() { return to_server_; }
  RecordKeys& from_server() { return from_server_; }

 private:
  crypto::EcdsaPublicKey authority_;
  crypto::Drbg& rng_;
  std::optional<crypto::EcdsaPrivateKey> ephemeral_;
  util::Bytes client_random_;
  RecordKeys to_server_, from_server_;
};

/// Transcript serialization shared by both sides (what the server signs).
util::Bytes handshake_transcript(const ClientHello& ch, const util::Bytes& sr,
                                 const crypto::EcdsaPublicKey& server_ecdhe);

}  // namespace aseck::cloud
