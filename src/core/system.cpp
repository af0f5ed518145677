#include "core/system.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "threshold/shamir.hpp"

namespace dblind::core {

namespace {

struct ServiceSetup {
  ServicePublic pub;
  std::vector<ServerSecrets> secrets;
  mpz::Bigint oracle_private;  // reconstructed encryption key (tests only)
};

ServiceSetup make_service(const group::GroupParams& params, const threshold::ServiceConfig& cfg,
                          ServiceRole role, bool use_dkg, mpz::Prng& prng) {
  auto keygen = [&]() {
    if (use_dkg) return threshold::run_joint_feldman_dkg(params, cfg, prng).material;
    return threshold::ServiceKeyMaterial::dealer_keygen(params, cfg, prng);
  };
  threshold::ServiceKeyMaterial enc = keygen();
  threshold::ServiceKeyMaterial sig = keygen();

  ServiceSetup out{
      ServicePublic{
          cfg,
          enc.public_key(),
          enc.commitments(),
          zkp::SchnorrVerifyKey(params, sig.public_key().y()),
          sig.commitments(),
          {},
          0,
          {},
      },
      {},
      {},
  };

  for (ServerRank r = 1; r <= cfg.n; ++r) {
    zkp::SchnorrSigningKey server_key = zkp::SchnorrSigningKey::generate(params, prng);
    out.pub.server_sign_keys.push_back(server_key.verify_key());
    out.secrets.push_back(
        ServerSecrets{role, r, enc.share_of(r), sig.share_of(r), std::move(server_key)});
  }

  // Test oracle: reconstruct the encryption private key from a quorum.
  std::vector<threshold::Share> quorum;
  for (ServerRank r = 1; r <= cfg.quorum(); ++r) quorum.push_back(enc.share_of(r));
  out.oracle_private = threshold::shamir_reconstruct(quorum, params.q());
  return out;
}

}  // namespace

System::System(SystemOptions opts)
    : opts_(std::move(opts)), setup_rng_(opts_.seed ^ 0x5e70u) {
  ServiceSetup a = make_service(opts_.params, opts_.a, ServiceRole::kServiceA, opts_.use_dkg,
                                setup_rng_);
  ServiceSetup b = make_service(opts_.params, opts_.b, ServiceRole::kServiceB, opts_.use_dkg,
                                setup_rng_);
  a_private_key_ = a.oracle_private;
  b_private_key_ = b.oracle_private;

  std::unique_ptr<net::DelayPolicy> policy = std::move(opts_.delay_policy);
  if (!policy) policy = std::make_unique<net::UniformDelay>(opts_.delay_min, opts_.delay_max);
  sim_ = std::make_unique<net::Simulator>(opts_.seed, std::move(policy));
  if (opts_.protocol.trace != nullptr) {
    // One recorder covers both layers: protocol events (emitted by servers)
    // and network events (emitted by the simulator).
    sim_->set_trace(opts_.protocol.trace);
    opts_.protocol.trace->run_meta(obs::RunMeta{
        opts_.seed, static_cast<std::uint32_t>(opts_.a.n), static_cast<std::uint32_t>(opts_.a.f),
        static_cast<std::uint32_t>(opts_.b.n), static_cast<std::uint32_t>(opts_.b.f),
        static_cast<std::uint32_t>(kRetransmitMaxAttempts)});
  }

  a.pub.first_node = 0;
  b.pub.first_node = static_cast<net::NodeId>(opts_.a.n);
  cfg_.emplace(SystemConfig{opts_.params, std::move(a.pub), std::move(b.pub)});

  auto behavior_of = [](const std::vector<ProtocolServer::Behavior>& v, ServerRank r) {
    return r <= v.size() ? v[r - 1] : ProtocolServer::Behavior::kHonest;
  };
  for (ServerRank r = 1; r <= opts_.a.n; ++r) {
    auto node = std::make_unique<ProtocolServer>(*cfg_, a.secrets[r - 1], opts_.protocol,
                                                 behavior_of(opts_.a_behaviors, r));
    a_servers_.push_back(node.get());
    sim_->add_node(std::move(node));
  }
  for (ServerRank r = 1; r <= opts_.b.n; ++r) {
    auto node = std::make_unique<ProtocolServer>(*cfg_, b.secrets[r - 1], opts_.protocol,
                                                 behavior_of(opts_.b_behaviors, r));
    b_servers_.push_back(node.get());
    sim_->add_node(std::move(node));
    b_family_.push_back(BFamilyEntry{
        b_servers_.back(), cfg_->b.node_of(r),
        behavior_of(opts_.b_behaviors, r) == ProtocolServer::Behavior::kHonest});
  }
  // Standby B servers: rank 0 (no shares), real message-signing keys, node
  // ids after both rosters. They idle until a ReconfigSpec adopts them.
  for (std::size_t i = 0; i < opts_.b_standby; ++i) {
    zkp::SchnorrSigningKey standby_key = zkp::SchnorrSigningKey::generate(opts_.params,
                                                                          setup_rng_);
    sign_point_[b_standby_node(i)] = standby_key.verify_key().point();
    auto node = std::make_unique<ProtocolServer>(
        *cfg_, ServerSecrets{ServiceRole::kServiceB, 0, {}, {}, standby_key},
        opts_.protocol, ProtocolServer::Behavior::kHonest);
    b_standby_servers_.push_back(node.get());
    sim_->add_node(std::move(node));
    b_family_.push_back(BFamilyEntry{b_standby_servers_.back(), b_standby_node(i), true});
  }
  for (ServerRank r = 1; r <= opts_.a.n; ++r) {
    sign_point_[cfg_->a.node_of(r)] = cfg_->a.server_sign_keys[r - 1].point();
  }
  for (ServerRank r = 1; r <= opts_.b.n; ++r) {
    sign_point_[cfg_->b.node_of(r)] = cfg_->b.server_sign_keys[r - 1].point();
  }
}

ReconfigSpec System::make_b_spec(ConfigEpoch epoch, std::uint32_t f,
                                 const std::vector<net::NodeId>& roster) const {
  ReconfigSpec spec;
  spec.service = static_cast<std::uint8_t>(ServiceRole::kServiceB);
  spec.epoch = epoch;
  spec.n = static_cast<std::uint32_t>(roster.size());
  spec.f = f;
  spec.roster.reserve(roster.size());
  for (net::NodeId node : roster) {
    auto it = sign_point_.find(node);
    if (it == sign_point_.end())
      throw std::invalid_argument("make_b_spec: node has no registered sign key");
    spec.roster.push_back(RosterEntry{static_cast<std::uint32_t>(node), it->second});
  }
  return spec;
}

void System::schedule_reconfig_b(const ReconfigSpec& spec, net::Time at, net::Time stagger) {
  const std::uint32_t proposers = static_cast<std::uint32_t>(cfg_->b.cfg.f) + 1;
  for (ServerRank r = 1; r <= proposers && r <= cfg_->b.cfg.n; ++r) {
    b_servers_[r - 1]->schedule_reconfig(spec, at + (r - 1) * stagger);
  }
}

TransferId System::add_transfer(const mpz::Bigint& m) {
  return add_transfer_at(m, 0);
}

elgamal::Ciphertext System::encrypt_plaintext(const mpz::Bigint& m) {
  // Identity is rejected explicitly: ElGamal over it degenerates (the blind
  // m·rho collapses to rho). On mod-p the 0 encoding is simply not in the
  // group; on ristretto255 the all-zero string IS the identity's canonical
  // encoding, so in_group alone would admit it.
  std::optional<group::Element> pt = cfg_->params.decode(m);
  if (!pt || cfg_->params.is_identity(*pt))
    throw std::invalid_argument("add_transfer: plaintext must be a group element");
  return cfg_->a.encryption_key.encrypt(*pt, setup_rng_);
}

TransferId System::add_transfer_at(const mpz::Bigint& m, net::Time when) {
  elgamal::Ciphertext ea_m = encrypt_plaintext(m);
  TransferId t = next_transfer_++;
  for (ProtocolServer* s : a_servers_) {
    if (when == 0) {
      s->store_secret(t, ea_m);
    } else {
      s->store_secret_at(t, ea_m, when);
    }
  }
  // Standby servers register too: if a reconfiguration adopts one, its
  // install cascade arms result pulls for every known transfer, so joiners
  // converge on results that completed before they held a share.
  for (const BFamilyEntry& e : b_family_) e.server->register_transfer(t);
  transfers_.push_back(t);
  plaintexts_[t] = m;
  return t;
}

TransferId System::add_transfer_arriving(const mpz::Bigint& m, net::Time when) {
  if (when == 0) return add_transfer(m);
  elgamal::Ciphertext ea_m = encrypt_plaintext(m);
  TransferId t = next_transfer_++;
  for (ProtocolServer* s : a_servers_) s->store_secret_at(t, ea_m, when);
  // B servers learn of the transfer only when its arrival timer fires, so the
  // coordinators see a true open-loop arrival process rather than a
  // pre-registered batch.
  for (const BFamilyEntry& e : b_family_) e.server->register_transfer_arriving(t, when);
  transfers_.push_back(t);
  plaintexts_[t] = m;
  return t;
}

bool System::is_honest_b(ServerRank rank) const {
  if (rank <= opts_.b_behaviors.size() &&
      opts_.b_behaviors[rank - 1] != ProtocolServer::Behavior::kHonest)
    return false;
  return !sim_->crashed(cfg_->b.node_of(rank));
}

bool System::run_to_completion(std::uint64_t max_events) {
  // Roster-aware completeness: only CURRENT roster members are obligated to
  // hold results — retired or not-yet-adopted servers stop receiving done
  // broadcasts when an epochal reconfiguration changes the roster. Without
  // churn this degenerates to the classic "every honest B server" check.
  auto complete = [&] {
    bool any_active = false;
    for (const BFamilyEntry& e : b_family_) {
      if (!e.honest || sim_->crashed(e.node)) continue;
      if (e.server->rank() == 0 || e.server->share_pending()) continue;
      any_active = true;
      for (TransferId t : transfers_) {
        if (!e.server->result(t)) return false;
      }
    }
    return any_active;
  };
  return sim_->run_until(complete, max_events);
}

std::optional<elgamal::Ciphertext> System::result(TransferId t, ServerRank rank) {
  return b_servers_.at(rank - 1)->result(t);
}

mpz::Bigint System::oracle_decrypt_b(const elgamal::Ciphertext& c) const {
  return elgamal::KeyPair::from_private(cfg_->params, b_private_key_).decrypt(c);
}

mpz::Bigint System::oracle_decrypt_a(const elgamal::Ciphertext& c) const {
  return elgamal::KeyPair::from_private(cfg_->params, a_private_key_).decrypt(c);
}

std::map<MsgType, std::uint64_t> System::rx_histogram() const {
  std::map<MsgType, std::uint64_t> out;
  for (const auto& servers : {a_servers_, b_servers_}) {
    for (const ProtocolServer* s : servers) {
      for (const auto& [type, count] : s->rx_histogram()) out[type] += count;
    }
  }
  return out;
}

double System::service_cpu_seconds(ServiceRole role) const {
  double total = 0;
  const auto& servers = role == ServiceRole::kServiceA ? a_servers_ : b_servers_;
  for (const ProtocolServer* s : servers) total += s->cpu_seconds();
  return total;
}

}  // namespace dblind::core
