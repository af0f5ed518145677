// ProtocolServer: one server of a distributed service, running the complete
// re-encryption protocol of paper Figure 4. A B server contributes,
// coordinates (ranks 1..f+1, rank j after (j-1)·coordinator_backup_delay:
// §4.1's delayed coordinators), signs for B and consumes `done`; an A server
// responds (step 6), provides decryption shares and signs for A.
//
// Each role is a module with its own state (DESIGN.md, "Module map"):
// Blinding, Signing, Responder, Resharing and Recovery. This class owns the
// configuration, the key material and the per-transfer Ledger, parses every
// frame once and hands it to its module with a narrow Local context. Every
// message is validated per Figure 5 before use; an invalid one is ignored,
// indistinguishable from loss. Behavior selects Byzantine fault injection.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/blinding.hpp"
#include "core/recovery.hpp"
#include "core/resharing.hpp"
#include "core/responder.hpp"
#include "core/signing.hpp"
#include "core/transfer_engine.hpp"

namespace dblind::core {

class ProtocolServer final : public net::Node {
 public:
  using Behavior = core::Behavior;
  using TraceExtras = core::TraceExtras;
  using Metrics = ServerMetrics;

  ProtocolServer(SystemConfig cfg, ServerSecrets secrets, ProtocolOptions opts,
                 Behavior behavior = Behavior::kHonest);

  // --- pre-simulation setup --------------------------------------------------
  // Service A: store E_A(m) for a transfer, available from virtual time 0.
  void store_secret(TransferId transfer, elgamal::Ciphertext ea_m);
  // Service A: the ciphertext becomes available only at virtual time `when`
  // (models "E_A(m) not yet generated" for the pre-computation experiment).
  void store_secret_at(TransferId transfer, elgamal::Ciphertext ea_m, net::Time when);
  // Service B: announce a transfer to run. Must be called on every B server
  // before the simulation starts.
  void register_transfer(TransferId transfer);
  // Service B: the transfer only becomes known at virtual time `when` (open-
  // loop workload: Poisson arrivals hit the running system instead of being
  // batch-registered at time 0). Arrival behaves exactly like a client
  // kTransferRequest landing at `when`.
  void register_transfer_arriving(TransferId transfer, net::Time when);
  // Epochal reconfiguration: at virtual time `at`, start a reconfiguration
  // round proposing `spec` (this server acts as the round's coordinator).
  // Call on old ranks 1..f+1 with staggered times — like Fig. 4 coordinators,
  // f+1 staggered proposers guarantee progress without echo-vote splits in
  // the common case. A server already at (or past) spec.epoch skips the round.
  void schedule_reconfig(ReconfigSpec spec, net::Time at);

  // --- observers --------------------------------------------------------------
  // Service B: the validated re-encrypted ciphertext, once a valid `done`
  // message arrived.
  [[nodiscard]] std::optional<elgamal::Ciphertext> result(TransferId transfer) const;
  // CPU time spent inside this node's handlers (for the offloading claim).
  [[nodiscard]] double cpu_seconds() const { return cpu_seconds_; }
  // Number of transfers with a validated result. Atomic so that controlling
  // threads (e.g. net::ThreadedBus::run_until) can poll completion without a
  // data race; inspect `result()` itself only when the transport is paused.
  [[nodiscard]] std::uint64_t results_count() const {
    return results_count_.load(std::memory_order_acquire);
  }
  // Attack diagnostics: number of service signatures this (Byzantine)
  // coordinator managed to obtain on fabricated/spliced payloads.
  [[nodiscard]] int attack_successes() const { return blinding_.attack_successes(); }
  // Received-message histogram by type (accounting for the benches).
  [[nodiscard]] const std::map<MsgType, std::uint64_t>& rx_histogram() const {
    return rx_counts_;
  }
  // Number of cached frames re-sent by the retransmission layer (benches
  // report this as retransmission overhead). Backed by an atomic cell so the
  // metrics registry can attach it as a counter time series.
  [[nodiscard]] std::uint64_t retransmits_sent() const { return recovery_.sent(); }
  // Currently installed config epoch (0 = the seed configuration).
  [[nodiscard]] ConfigEpoch config_epoch() const { return cfg_epoch_; }
  // Current rank under the installed configuration; 0 = retired/standby
  // (serves stored results and reconfiguration traffic, nothing else).
  [[nodiscard]] ServerRank rank() const { return secrets_.rank; }
  // True while this server is a roster member still waiting for re-shared
  // sub-shares after an install (it pulls them from the dealers).
  [[nodiscard]] bool share_pending() const { return resharing_.share_pending(); }
  // This server's current view of the system configuration.
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  // Open contributor instances: one per coordinator init this server
  // committed to (or precomputed a contribution for).
  [[nodiscard]] std::size_t contributor_instances() const {
    return blinding_.contributor_instances();
  }
  // Signing sessions still holding a nonce k_i (and a copy of the key share):
  // those that have neither produced their partial nor been left out of
  // their session's quorum.
  [[nodiscard]] std::size_t signing_nonces_held() const { return signing_.nonces_held(); }

  // --- net::Node --------------------------------------------------------------
  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, net::NodeId from, std::span<const std::uint8_t> bytes) override;
  void on_timer(net::Context& ctx, std::uint64_t token) override;
  // Crash-recovery (net::Simulator::restart_at): durable state is what a
  // correct server persists before acting on it — stored secrets, registered
  // transfers, validated done messages, and the next coordinator epoch per
  // transfer. Everything else (round state, signing sessions, caches) is
  // volatile and lost on a crash.
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> snap) override;

 private:
  [[nodiscard]] bool is_b() const { return secrets_.role == ServiceRole::kServiceB; }
  [[nodiscard]] bool active() const { return secrets_.rank != 0; }
  [[nodiscard]] Local local(net::Context& ctx) {
    return Local{cfg_,  secrets_,  cfg_epoch_, resharing_.share_pending(),
                 ctx,   recovery_, observer_};
  }
  // Pins the bases every encryption and VDE proof exponentiates: g (combed
  // by pow_g), y_A, y_B and y_A·y_B (Pr3's base).
  void pin_bases();
  // Counts a received frame; the result attributes the handler's mont-muls.
  [[nodiscard]] obs::ScopedCounterDelta count_rx(MsgType type, std::size_t bytes);
  // Hands a parsed frame to the module that owns its type.
  void on_signed(net::Context& ctx, net::NodeId from, MsgType type, const SignedMessage& env);
  void on_client(net::Context& ctx, net::NodeId from, MsgType type,
                 std::span<const std::uint8_t> body);

  // ---- service B results ------------------------------------------------------
  // A done message from A or a pulled result (which names its `transfer`).
  void accept_done(net::Context& ctx, const ServiceSignedMsg& msg,
                   std::optional<TransferId> transfer);
  // Records a validated done message. `ctx` is null when restore() replays
  // durable state: those dones were traced in a previous incarnation.
  void record_done(net::Context* ctx, const DonePayload& done, const ServiceSignedMsg& msg);

  // ---- client-facing handlers (library extension; see core/client.hpp) -----------
  void handle_transfer_request(net::Context& ctx, std::span<const std::uint8_t> body);
  void handle_client_decrypt_request(net::Context& ctx, net::NodeId from,
                                     std::span<const std::uint8_t> body);

  // ---- concurrent multi-transfer engine (core/transfer_engine.hpp) -----------
  // B: registers a newly known transfer and runs it.
  void run_transfer(net::Context& ctx, TransferId transfer);
  // Self-coordination is admission-gated; the other roles react to whatever
  // arrives regardless.
  void schedule_coordinator(net::Context& ctx, TransferId transfer);
  // Starts coordinators (rank-staggered) for transfers just admitted.
  void launch_admitted(net::Context& ctx, std::span<const TransferId> admitted);

  // ---- epochal reconfiguration (core/resharing.hpp) ---------------------------
  void install_if(net::Context& ctx, std::optional<Certificate> cert) {
    if (cert) install(ctx, std::move(*cert));
  }
  // Aborts the instances bound to the old configuration, swaps keys and
  // roster, and resumes under the new ranks.
  void install(net::Context& ctx, Certificate cert);
  // A new member's re-shared shares are complete: it becomes a full member.
  void adopt_share(net::Context& ctx, CompletedShare share);
  // Drops all round state bound to the running configuration: the one reset
  // path install() and restore() share.
  void drop_round_state();

  SystemConfig cfg_;
  ServerSecrets secrets_;
  ProtocolOptions opts_;
  Behavior behavior_;
  ConfigEpoch cfg_epoch_ = 0;
  // Construction-time copies: a crash loses every installed configuration
  // (the install chain is re-learned from peers), so restore() resets to
  // these and recovers via pulls.
  SystemConfig initial_cfg_;
  ServerSecrets initial_secrets_;

  Ledger ledger_;
  Observer observer_;  // before the modules that report through it
  Recovery recovery_;
  Blinding blinding_;
  Signing signing_;
  Responder responder_;
  Resharing resharing_;
  TransferEngine engine_;

  // (request body, reply frame) per (client, transfer): duplicates get the
  // same bytes.
  std::map<std::pair<net::NodeId, TransferId>, std::pair<Frame, Frame>> client_decrypt_cache_;
  // Set by restore(): the next on_start pulls the install chain from every
  // peer, since any install while this server was down left it stale.
  bool restored_ = false;
  // Pre-simulation schedules armed in on_start: (virtual time, spec) rounds
  // and open-loop (virtual time, transfer) arrivals.
  std::vector<std::pair<net::Time, ReconfigSpec>> scheduled_reconfigs_;
  std::vector<std::pair<net::Time, TransferId>> scheduled_arrivals_;

  std::map<MsgType, std::uint64_t> rx_counts_;
  std::atomic<std::uint64_t> results_count_{0};
  double cpu_seconds_ = 0;
};

}  // namespace dblind::core
