// Identifiers and context strings for the re-encryption protocol.
#pragma once

#include <cstdint>
#include <string>

#include "common/codec.hpp"

namespace dblind::core {

using common::CodecError;
using common::Reader;
using common::Writer;

// Rank of a server within its service, 1-based (matches threshold share
// indices).
using ServerRank = std::uint32_t;

enum class ServiceRole : std::uint8_t {
  kServiceA = 0,  // holds E_A(m); performs threshold decryption (step 6)
  kServiceB = 1,  // destination; runs the distributed blinding protocol
};

// Application-level transfer: "re-encrypt stored secret #x from A to B".
using TransferId = std::uint64_t;

// Monotonically increasing CONFIGURATION epoch (roster/threshold/share-set
// generation) shared by both services. Distinct from InstanceId::epoch, which
// is a per-transfer coordinator retry counter. Every server-signed envelope
// is stamped with (and its signature bound to) the sender's config epoch;
// mixing contributions across config epochs is forbidden (invariant I6).
using ConfigEpoch = std::uint32_t;

// Instance of the distributed blinding protocol (§4: "id identifies the
// instance of the protocol execution; id contains, among other things, the
// identifier for the coordinator").
struct InstanceId {
  TransferId transfer = 0;
  ServerRank coordinator = 0;  // rank of the coordinator within service B
  // Retry counter: a coordinator starts a fresh instance (epoch+1) in the
  // rare case the combined contribution is degenerate (§3's side condition)
  // — "new values can thus be requested".
  std::uint32_t epoch = 0;

  [[nodiscard]] std::string str() const {
    return "t" + std::to_string(transfer) + "/c" + std::to_string(coordinator) + "/e" +
           std::to_string(epoch);
  }

  friend bool operator==(const InstanceId&, const InstanceId&) = default;
  friend auto operator<=>(const InstanceId&, const InstanceId&) = default;
};

// Context strings binding ZK proofs to their use site.
inline std::string vde_context(const InstanceId& id, ServerRank server) {
  return "dblind/contribution/" + id.str() + "/s" + std::to_string(server);
}
inline std::string decrypt_context(const InstanceId& id) {
  return "dblind/decrypt/" + id.str();
}

}  // namespace dblind::core
