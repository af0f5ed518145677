#include "elgamal/serialize.hpp"

#include "group/codec.hpp"
#include "group/serialize.hpp"

namespace dblind::elgamal {

namespace {

constexpr std::uint8_t kPublicKeyTag = 0x21;
constexpr std::uint8_t kCiphertextTag = 0x22;

// A public key on the wire: its group's encoding, then y.
struct PublicKeyRecord {
  std::vector<std::uint8_t> params;
  group::Element y;
};

}  // namespace

std::vector<std::uint8_t> public_key_to_bytes(const PublicKey& key) {
  return group::to_bytes(kPublicKeyTag,
                         PublicKeyRecord{group::group_params_to_bytes(key.params()), key.y()});
}

PublicKey public_key_from_bytes(std::span<const std::uint8_t> bytes) {
  PublicKeyRecord rec = group::from_bytes<PublicKeyRecord>(kPublicKeyTag, bytes);
  group::GroupParams params = group::group_params_from_bytes_trusted(rec.params);
  return PublicKey(std::move(params), rec.y);  // validates y ∈ G_p
}

std::vector<std::uint8_t> ciphertext_to_bytes(const Ciphertext& c) {
  return group::to_bytes(kCiphertextTag, c);
}

Ciphertext ciphertext_from_bytes(std::span<const std::uint8_t> bytes) {
  return group::from_bytes<Ciphertext>(kCiphertextTag, bytes);
}

}  // namespace dblind::elgamal
