// Public system configuration shared by every node.
//
// Everything in here is public information: group parameters, service public
// keys, Feldman commitments (which determine per-server verification keys),
// and the per-server message-signing verification keys. Private key shares
// are held only by the individual server nodes.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"
#include "elgamal/elgamal.hpp"
#include "net/sim.hpp"
#include "threshold/feldman.hpp"
#include "threshold/keygen.hpp"
#include "zkp/schnorr.hpp"

namespace dblind::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace dblind::obs

namespace dblind::core {

// Public view of one distributed service.
struct ServicePublic {
  threshold::ServiceConfig cfg;
  elgamal::PublicKey encryption_key;                   // K_S
  threshold::FeldmanCommitments enc_commitments;       // verification of decryption shares
  zkp::SchnorrVerifyKey signing_key;                   // service signature verification
  threshold::FeldmanCommitments sign_commitments;      // verification of partial signatures
  std::vector<zkp::SchnorrVerifyKey> server_sign_keys;  // per-server message keys, [rank-1]
  net::NodeId first_node = 0;                          // simulator id of rank 1
  // Explicit rank→node map installed by epochal reconfiguration
  // (core/reconfig). Empty (the seed layout) means the contiguous
  // first_node + rank - 1 block; after a roster change ranks may map to
  // arbitrary simulator ids (joined standbys, surviving veterans).
  std::vector<net::NodeId> roster;

  [[nodiscard]] net::NodeId node_of(ServerRank rank) const {
    if (rank == 0 || rank > cfg.n) throw std::out_of_range("ServicePublic::node_of");
    if (!roster.empty()) return roster[rank - 1];
    return first_node + rank - 1;
  }
  // Every roster node, in rank order.
  [[nodiscard]] std::vector<net::NodeId> nodes() const {
    std::vector<net::NodeId> out;
    for (ServerRank r = 1; r <= cfg.n; ++r) out.push_back(node_of(r));
    return out;
  }
  [[nodiscard]] const zkp::SchnorrVerifyKey& server_key(ServerRank rank) const {
    if (rank == 0 || rank > server_sign_keys.size())
      throw std::out_of_range("ServicePublic::server_key");
    return server_sign_keys[rank - 1];
  }
};

struct SystemConfig {
  group::GroupParams params;
  ServicePublic a;  // source service (holds E_A(m))
  ServicePublic b;  // destination service (runs distributed blinding)

  [[nodiscard]] const ServicePublic& service(ServiceRole role) const {
    return role == ServiceRole::kServiceA ? a : b;
  }
};

// One ciphertext per transfer: A's stored E_A(m), B's results E_B(m).
using ResultMap = std::map<TransferId, elgamal::Ciphertext>;

// Private per-server key material (held by exactly one node).
struct ServerSecrets {
  ServiceRole role;
  ServerRank rank = 0;
  threshold::Share enc_share;           // share of the service ElGamal key
  threshold::Share sign_share;          // share of the service signing key
  zkp::SchnorrSigningKey server_sign_key;  // taint:secret — this server's message-signing key
};

// --- chaos-layer retransmission schedule (liveness only) ----------------------
// Liveness-critical messages are re-sent on a capped exponential backoff
// (ProtocolOptions::retransmit switches the layer on or off).
inline constexpr net::Time kRetransmitInitialDelay = 150'000;
inline constexpr net::Time kRetransmitMaxDelay = 1'200'000;
// Total send attempts per cached message (the original send counts).
inline constexpr int kRetransmitMaxAttempts = 12;
// B servers missing a result (recovered from a crash, or blinded by a
// partition while the done message went out) periodically pull the
// service-signed done message from their peers.
inline constexpr net::Time kResultPullDelay = 800'000;

// Tunable protocol behavior (liveness knobs only; safety never depends on
// these).
struct ProtocolOptions {
  // Virtual-time delay before backup coordinator r starts (rank-1 scaled):
  // §4.1's optimization. 0 = all f+1 coordinators start immediately.
  net::Time coordinator_backup_delay = 400'000;
  // Same idea on the A side for step 6.
  net::Time responder_backup_delay = 400'000;
  // Retry timeout for threshold-signing sessions that stall (a quorum member
  // crashed or withheld its partial).
  net::Time signing_retry_delay = 600'000;
  // If true, B servers build their blinding contribution (ρ, both
  // encryptions, the VDE announcements) for the designated coordinator's
  // instance of every registered transfer during on_start, before the init
  // arrives (step-flexibility / pre-computation claim §1). Contribution
  // randomness comes from a per-instance keyed stream, so the precomputed
  // bundle is exactly the one the instance would derive on demand: results
  // are byte-identical either way, only WHEN the work runs moves.
  bool precompute_contributions = false;

  // --- chaos-layer retransmission (liveness only) ----------------------------
  // Re-send liveness-critical messages on the backoff above until progress
  // cancels the entry (or attempts run out, so the event queue always
  // drains). Retransmissions reuse the originally-signed cached bytes —
  // committed values are never re-randomized. Disabling this reproduces the
  // fire-once behavior where a single lost protocol message deadlocks a
  // transfer (exercised by the chaos deadlock regression test).
  bool retransmit = true;

  // --- concurrent multi-transfer engine (core/transfer_engine.hpp) ----------
  // Cap on transfers this server may *self-coordinate* concurrently; excess
  // registrations queue FIFO and are admitted as in-flight transfers record
  // their done message. Gates only self-coordination (starting/backing-up a
  // coordinator for a transfer) — contributor, responder and signing-member
  // roles always react to whatever arrives, so a capped server still serves
  // other coordinators' transfers. 0 (the default) = unlimited: every
  // registered transfer is admitted immediately, byte-identical scheduling to
  // the pre-engine flow. 1 = strictly sequential (the open-loop load bench's
  // baseline mode).
  std::size_t max_inflight_transfers = 0;

  // --- observability (no protocol effect; see docs/OBSERVABILITY.md) --------
  // Structured per-phase trace events (epoch starts, commit/reveal/
  // contribute edges, verify pass/fail with culprits, retransmits, done).
  // Non-owning; nullptr (the default) emits nothing. core::System also
  // installs this recorder on its Simulator for network-level events.
  obs::TraceRecorder* trace = nullptr;
  // Metrics registry for counters/gauges/histograms (message counts by
  // type, mont-muls per phase, latency). Non-owning; nullptr disables
  // registration — handles then point at the process-wide discard cell, so
  // hot-path updates stay branch-free either way.
  obs::MetricsRegistry* metrics = nullptr;
  // Stall watchdog (obs/watchdog.hpp): per-transfer idle deadline in
  // transport time on B servers. A transfer with no trace activity for this
  // long gets a kStall event (with a one-shot public state dump); progress
  // after a stall gets kStallResolved. 0 (the default) disables the
  // watchdog — no timers are armed and the seed event schedule is
  // byte-identical. The watchdog reports through the trace, so it is also
  // inert while `trace` is null.
  net::Time watchdog_deadline = 0;
};

}  // namespace dblind::core
