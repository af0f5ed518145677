// System: end-to-end assembly of two distributed services in the simulator.
//
// This is the top of the public API: it performs trusted-dealer (or DKG)
// setup of both services' key material, instantiates one ProtocolServer per
// server in the simulator, and exposes transfer start/completion plus the
// dealer-side test oracle (private keys) for verification in tests, benches
// and examples.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/server.hpp"
#include "net/sim.hpp"

namespace dblind::core {

struct SystemOptions {
  // Default group: the toy mod-p set, unless DBLIND_BACKEND=ec retargets the
  // whole default-parameter surface (tests, chaos sweeps, load harness) onto
  // the ristretto255 backend — this is the CI backend-matrix hook.
  group::GroupParams params = group::GroupParams::named_or_env(group::ParamId::kToy64);
  threshold::ServiceConfig a{4, 1};
  threshold::ServiceConfig b{4, 1};
  std::uint64_t seed = 1;
  ProtocolOptions protocol;
  // Delay policy bounds for the UniformDelay default (virtual microseconds).
  net::Time delay_min = 500;
  net::Time delay_max = 20'000;
  // Optional custom delay policy; overrides delay_min/max when set.
  std::unique_ptr<net::DelayPolicy> delay_policy;
  // Per-rank Byzantine behaviours (empty = all honest). Index [rank-1].
  std::vector<ProtocolServer::Behavior> a_behaviors;
  std::vector<ProtocolServer::Behavior> b_behaviors;
  // Use the joint-Feldman DKG instead of the trusted dealer for key setup.
  bool use_dkg = false;
  // Extra B-role servers created outside the epoch-0 roster (rank 0, no key
  // shares, a real message-signing keypair). They idle until an epochal
  // reconfiguration (core/reconfig) adopts them into the roster.
  std::size_t b_standby = 0;
};

class System {
 public:
  explicit System(SystemOptions opts);

  // --- setup (call before run) -----------------------------------------------
  // Encrypts `m` (a group element) under K_A, stores it on every A server,
  // registers the transfer on every B server. Returns the transfer id.
  TransferId add_transfer(const mpz::Bigint& m);
  // Same, but the ciphertext only becomes available to A at virtual time
  // `when` (pre-computation experiment).
  TransferId add_transfer_at(const mpz::Bigint& m, net::Time when);
  // Open-loop arrival (load harness): the transfer does not exist anywhere
  // before virtual time `when` — A servers receive the ciphertext and B
  // servers register (and begin coordinating) the transfer at `when`. With
  // when == 0 this is add_transfer.
  TransferId add_transfer_arriving(const mpz::Bigint& m, net::Time when);

  // --- run ---------------------------------------------------------------------
  // Runs until every *honest* B server has a result for every transfer (or
  // the event queue drains / max_events is hit). Returns success.
  bool run_to_completion(std::uint64_t max_events = 50'000'000);

  // --- observers ------------------------------------------------------------------
  [[nodiscard]] const SystemConfig& config() const { return *cfg_; }
  [[nodiscard]] net::Simulator& sim() { return *sim_; }
  [[nodiscard]] ProtocolServer& a_server(ServerRank rank) { return *a_servers_.at(rank - 1); }
  [[nodiscard]] ProtocolServer& b_server(ServerRank rank) { return *b_servers_.at(rank - 1); }
  [[nodiscard]] const threshold::ServiceConfig& a_cfg() const { return cfg_->a.cfg; }
  [[nodiscard]] const threshold::ServiceConfig& b_cfg() const { return cfg_->b.cfg; }

  // Result as seen by B server `rank`.
  [[nodiscard]] std::optional<elgamal::Ciphertext> result(TransferId t, ServerRank rank = 1);
  // Test oracle: decrypt a ciphertext with B's (dealer-known) private key.
  [[nodiscard]] mpz::Bigint oracle_decrypt_b(const elgamal::Ciphertext& c) const;
  [[nodiscard]] mpz::Bigint oracle_decrypt_a(const elgamal::Ciphertext& c) const;
  // The plaintext originally stored for a transfer.
  [[nodiscard]] const mpz::Bigint& plaintext_of(TransferId t) const { return plaintexts_.at(t); }
  // Aggregate CPU seconds across one service's servers (offloading claim).
  [[nodiscard]] double service_cpu_seconds(ServiceRole role) const;
  // Aggregate received-message histogram across all servers.
  [[nodiscard]] std::map<MsgType, std::uint64_t> rx_histogram() const;
  [[nodiscard]] bool is_honest_b(ServerRank rank) const;

  // --- epochal reconfiguration (core/reconfig) -------------------------------
  // Builds a service-B ReconfigSpec installing at `epoch`: the roster is the
  // given simulator nodes in rank order (each must be a B-family node —
  // epoch-0 roster member or standby), n = roster.size(), threshold f.
  [[nodiscard]] ReconfigSpec make_b_spec(ConfigEpoch epoch, std::uint32_t f,
                                         const std::vector<net::NodeId>& roster) const;
  // Arms the reconfiguration round on the epoch-0 B roster: ranks 1..f+1
  // each propose the spec, rank r at `at + (r-1)*stagger`, so a crashed
  // primary proposer is covered by a staggered backup — the same discipline
  // as transfer coordinators. Call before run_to_completion.
  void schedule_reconfig_b(const ReconfigSpec& spec, net::Time at,
                           net::Time stagger = 300'000);
  // Standby B servers, 0-indexed (rank 0 until a reconfiguration adopts them).
  [[nodiscard]] ProtocolServer& b_standby_server(std::size_t i) {
    return *b_standby_servers_.at(i);
  }
  [[nodiscard]] std::size_t b_standby_count() const { return b_standby_servers_.size(); }
  // Simulator node ids: epoch-0 roster ranks and standby indices.
  [[nodiscard]] net::NodeId b_node(ServerRank rank) const { return cfg_->b.node_of(rank); }
  [[nodiscard]] net::NodeId b_standby_node(std::size_t i) const {
    return static_cast<net::NodeId>(opts_.a.n + opts_.b.n + i);
  }

 private:
  // E_A(m) for a new transfer; throws std::invalid_argument unless m is a
  // non-identity group element.
  elgamal::Ciphertext encrypt_plaintext(const mpz::Bigint& m);

  SystemOptions opts_;
  // optional<> because SystemConfig carries key material that only exists
  // after service setup runs in the constructor body.
  std::optional<SystemConfig> cfg_;
  mpz::Bigint a_private_key_;  // dealer/test oracle only
  mpz::Bigint b_private_key_;
  std::unique_ptr<net::Simulator> sim_;
  std::vector<ProtocolServer*> a_servers_;  // owned by sim_
  std::vector<ProtocolServer*> b_servers_;
  std::vector<ProtocolServer*> b_standby_servers_;  // owned by sim_
  // Every B-capable server (epoch-0 roster + standby) with its transport
  // node and configured honesty — run_to_completion's roster-aware poll set.
  struct BFamilyEntry {
    ProtocolServer* server;
    net::NodeId node;
    bool honest;
  };
  std::vector<BFamilyEntry> b_family_;
  // Message-signing verify-key points by node, for building ReconfigSpecs.
  std::map<net::NodeId, group::Element> sign_point_;
  std::vector<TransferId> transfers_;
  std::map<TransferId, mpz::Bigint> plaintexts_;
  TransferId next_transfer_ = 1;
  mpz::Prng setup_rng_;
};

}  // namespace dblind::core
