// The narrow context ProtocolServer's modules run in (DESIGN.md, "Module
// map"): per call a module reads a Local, plus the Ledger or a sibling module
// where it needs them. No module keeps a Local or sees the server itself.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/observer.hpp"
#include "core/validity.hpp"
#include "net/sim.hpp"

namespace dblind::core {

class Recovery;

// Fault-injection behaviours (ProtocolServer::Behavior).
enum class Behavior : std::uint8_t {
  kHonest = 0,
  // Receives everything, sends nothing (distinct from a crash only in that
  // the node still counts as "running").
  kSilent,
  // Contributor sends an inconsistent encrypted contribution
  // (E_A(ρ), E_B(ρ')) with ρ != ρ' and a necessarily-bogus VDE proof
  // (§4.2.2's attack).
  kInconsistentContribution,
  // Contributor commits but never reveals its contribution (why the
  // coordinator must collect 2f+1 commitments, §4.2.1).
  kWithholdContribution,
  // Signing member participates through nonce reveal, then withholds its
  // partial signature (exercises the signing retry path).
  kWithholdPartial,
  // Coordinator fabricates (E_A(ρ̂), E_B(ρ̂)) it knows and asks B to
  // threshold-sign it without valid evidence (§4.2.3's attack).
  kBogusBlindCoordinator,
  // Coordinator colludes with compromised contributors to run the §4.2.1
  // adaptive-cancellation splice across two reveal rounds. Defeated by the
  // commit/reveal order plus the same-reveal evidence rule.
  kAdaptiveCancelCoordinator,
};

// Timer tokens: the high byte names the kind, the rest is its argument.
namespace timer {
inline constexpr std::uint64_t kKindMask = 0xffull << 56;
inline constexpr std::uint64_t kCoordinator = 1ull << 56;      // | transfer
inline constexpr std::uint64_t kResponder = 2ull << 56;        // | responder timer id
inline constexpr std::uint64_t kSignRetry = 3ull << 56;        // | session id
inline constexpr std::uint64_t kStoreSecret = 4ull << 56;      // | transfer
inline constexpr std::uint64_t kResend = 5ull << 56;           // | retransmission key
inline constexpr std::uint64_t kReconfig = 8ull << 56;         // | schedule index
inline constexpr std::uint64_t kTransferArrival = 9ull << 56;  // | arrival index
inline constexpr std::uint64_t kWatchdog = 10ull << 56;
}  // namespace timer

// Per-transfer state: ProtocolServer owns and snapshots it, modules read it.
struct Ledger {
  ResultMap stored;                                                     // A: E_A(m)
  std::map<TransferId, std::pair<elgamal::Ciphertext, net::Time>> pending_store;  // A
  std::set<TransferId> transfers;                                       // B: to run
  ResultMap results;                                                    // B: E_B(m)
  // Every validated done message per transfer (several coordinators may each
  // produce one): they answer clients and authorize client decryption.
  std::map<TransferId, std::vector<ServiceSignedMsg>> done_msgs;
  std::map<TransferId, std::vector<DonePayload>> done_payloads;
};

struct Local {
  const SystemConfig& cfg;  // the installed configuration
  const ServerSecrets& me;  // this server's role, rank and shares
  ConfigEpoch epoch;        // the installed config epoch
  bool share_pending;       // a new-roster member still completing its share
  net::Context& ctx;
  Recovery& resend;    // the retransmission table
  Observer& observer;  // the trace hook and metric handles

  [[nodiscard]] bool is_b() const { return me.role == ServiceRole::kServiceB; }
  // Retired/standby servers (rank 0) serve only results and reconfiguration.
  [[nodiscard]] bool active() const { return me.rank != 0; }
  // Signing and decrypting need a share the installed keys accept.
  [[nodiscard]] bool holds_share() const { return active() && !share_pending; }
  [[nodiscard]] const ServicePublic& service() const { return cfg.service(me.role); }

  // This server's envelope over `body`, stamped with the installed epoch.
  [[nodiscard]] SignedMessage sign(std::vector<std::uint8_t> body) const {
    return make_envelope(me, std::move(body), epoch, ctx.rng());
  }
  // The same, framed: the bytes to send and to cache for resends.
  [[nodiscard]] Frame signed_frame(std::vector<std::uint8_t> body) const {
    return frame_signed(sign(std::move(body)));
  }

  void trace(obs::EventKind kind, const InstanceId* id = nullptr,
             const TraceExtras& extra = {}) const {
    observer.emit(ctx, epoch, is_b() && active(), kind, id, extra);
  }
  // Counts and traces one Fig. 5 verdict on a message from `peer`; returns
  // `ok`. A failed batch check also counts as a batch fallback.
  bool verdict(bool ok, bool batch, const InstanceId* id, std::uint64_t peer,
               MsgType subject) const {
    if (ok) {
      observer.m.verify_pass.inc();
    } else {
      observer.m.verify_fail.inc();
      if (batch) observer.m.batch_fallbacks.inc();
    }
    trace(ok ? obs::EventKind::kVerifyPass : obs::EventKind::kVerifyFail, id,
          {.peer = peer, .subject = static_cast<std::uint32_t>(subject)});
    return ok;
  }
};

}  // namespace dblind::core
