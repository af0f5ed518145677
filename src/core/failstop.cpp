#include "core/failstop.hpp"

namespace dblind::core {

class FailstopBlindingSystem::ServerNode final : public net::Node {
 public:
  ServerNode(FailstopBlindingSystem& sys, std::uint32_t rank) : sys_(sys), rank_(rank) {}

  void on_start(net::Context& ctx) override {
    const FailstopOptions& o = sys_.opts_;
    if (rank_ > o.f + 1) return;  // not a coordinator
    net::Time delay = (rank_ - 1) * o.backup_delay;
    if (delay == 0) {
      start_coordinator(ctx);
    } else {
      ctx.set_timer(delay, 0);
    }
  }

  void on_timer(net::Context& ctx, std::uint64_t) override {
    if (!outcome_) start_coordinator(ctx);
  }

  void on_message(net::Context& ctx, net::NodeId from, std::span<const std::uint8_t> bytes) override {
    try {
      Reader r(bytes, &sys_.opts_.params);
      auto type = static_cast<FailstopType>(r.u8());
      if (type == FailstopType::kInit) {
        const auto m = group::read<FailstopInit>(r);
        r.expect_done();
        handle_init(ctx, from, m.coordinator);
      } else if (type == FailstopType::kContribute) {
        const auto m = group::read<FailstopContribute>(r);
        r.expect_done();
        if (m.coordinator == rank_) handle_contribute(ctx, m.server, m.contribution);
      }
    } catch (const CodecError&) {
    }
  }

  [[nodiscard]] const std::optional<FailstopOutcome>& outcome() const { return outcome_; }

 private:
  void start_coordinator(net::Context& ctx) {
    started_ = true;
    auto msg = group::to_bytes(static_cast<std::uint8_t>(FailstopType::kInit), FailstopInit{rank_});
    for (std::uint32_t r = 1; r <= sys_.opts_.n; ++r) ctx.send(r - 1, msg);
  }

  void handle_init(net::Context& ctx, net::NodeId from, std::uint32_t coordinator) {
    // Fresh, independent contribution per coordinator (paper §4.2.1:
    // "when engaging with different coordinators, a correct server selects
    // random contributions that are independent").
    if (contributed_.contains(coordinator)) return;
    contributed_.insert(coordinator);
    const group::GroupParams& gp = sys_.opts_.params;
    group::Element rho = gp.random_element(ctx.rng());
    Contribution c;
    c.ea = sys_.ka_->public_key().encrypt(rho, ctx.rng());
    c.eb = sys_.kb_->public_key().encrypt(rho, ctx.rng());
    ctx.send(from, group::to_bytes(static_cast<std::uint8_t>(FailstopType::kContribute),
                                   FailstopContribute{coordinator, rank_, c}));
  }

  void handle_contribute(net::Context& ctx, std::uint32_t server, const Contribution& c) {
    if (outcome_ || !started_) return;
    if (!sys_.ka_->public_key().well_formed(c.ea) || !sys_.kb_->public_key().well_formed(c.eb))
      return;
    contributions_.emplace(server, c);
    const std::size_t quorum = sys_.opts_.f + 1;
    if (contributions_.size() < quorum) return;

    if (sys_.opts_.adaptive_attack && rank_ == 1) {
      attack(ctx);
      return;
    }

    std::vector<elgamal::Ciphertext> eas, ebs;
    for (const auto& [rank, contribution] : contributions_) {
      if (eas.size() == quorum) break;
      eas.push_back(contribution.ea);
      ebs.push_back(contribution.eb);
    }
    auto ea = sys_.ka_->public_key().product(eas);
    auto eb = sys_.kb_->public_key().product(ebs);
    if (!ea || !eb) return;  // degenerate; wait for more contributions
    outcome_ = FailstopOutcome{Contribution{*ea, *eb}, false};
  }

  // §4.2.1: having seen f+1 contributions, the compromised coordinator
  // computes a canceling "contribution" (expression (1) in the paper) so the
  // combined blinding factor is its own ρ̂. In the fail-stop protocol there
  // is nothing to stop it: no commitments, no VDE, no evidence.
  void attack(net::Context& ctx) {
    const group::GroupParams& gp = sys_.opts_.params;
    group::Element rho_hat = gp.random_element(ctx.rng());
    sys_.attacker_rho_ = rho_hat;
    elgamal::Ciphertext ea = sys_.ka_->public_key().encrypt(rho_hat, ctx.rng());
    elgamal::Ciphertext eb = sys_.kb_->public_key().encrypt(rho_hat, ctx.rng());
    std::size_t used = 0;
    for (const auto& [rank, contribution] : contributions_) {
      if (used == sys_.opts_.f) break;  // cancel f of them; own "contribution" is the f+1st
      auto ma = sys_.ka_->public_key().multiply(ea, sys_.ka_->public_key().inverse(contribution.ea));
      auto mb = sys_.kb_->public_key().multiply(eb, sys_.kb_->public_key().inverse(contribution.eb));
      if (!ma || !mb) return;
      ea = *ma;
      eb = *mb;
      ++used;
    }
    // cancel × (the f contributions it canceled) == E(ρ̂); combined with the
    // way Figure 3's coordinator multiplies f+1 contributions, the output is
    // exactly E(ρ̂): the adversary knows the "random" blinding factor.
    std::vector<elgamal::Ciphertext> eas{ea}, ebs{eb};
    std::size_t added = 0;
    for (const auto& [rank, contribution] : contributions_) {
      if (added == sys_.opts_.f) break;
      eas.push_back(contribution.ea);
      ebs.push_back(contribution.eb);
      ++added;
    }
    auto pea = sys_.ka_->public_key().product(eas);
    auto peb = sys_.kb_->public_key().product(ebs);
    if (!pea || !peb) return;
    outcome_ = FailstopOutcome{Contribution{*pea, *peb}, true};
  }

  FailstopBlindingSystem& sys_;
  std::uint32_t rank_;
  bool started_ = false;
  std::set<std::uint32_t> contributed_;
  std::map<std::uint32_t, Contribution> contributions_;
  std::optional<FailstopOutcome> outcome_;
};

FailstopBlindingSystem::FailstopBlindingSystem(FailstopOptions opts) : opts_(std::move(opts)) {
  mpz::Prng setup(opts_.seed ^ 0xf5);
  ka_ = std::make_unique<elgamal::KeyPair>(elgamal::KeyPair::generate(opts_.params, setup));
  kb_ = std::make_unique<elgamal::KeyPair>(elgamal::KeyPair::generate(opts_.params, setup));
  sim_ = std::make_unique<net::Simulator>(
      opts_.seed, std::make_unique<net::UniformDelay>(opts_.delay_min, opts_.delay_max));
  for (std::uint32_t r = 1; r <= opts_.n; ++r) {
    auto node = std::make_unique<ServerNode>(*this, r);
    nodes_.push_back(node.get());
    net::NodeId id = sim_->add_node(std::move(node));
    if (opts_.crashed.contains(r)) sim_->crash_at(id, 0);
  }
}

bool FailstopBlindingSystem::run(std::uint64_t max_events) {
  auto done = [&] {
    bool correct_done = false;
    for (std::uint32_t r = 1; r <= opts_.f + 1; ++r) {
      if (opts_.crashed.contains(r)) continue;
      if (opts_.adaptive_attack && r == 1) {
        if (!nodes_[r - 1]->outcome()) return false;  // wait for the attacker too
        continue;
      }
      if (nodes_[r - 1]->outcome()) correct_done = true;
    }
    return correct_done;
  };
  return sim_->run_until(done, max_events);
}

std::optional<FailstopOutcome> FailstopBlindingSystem::outcome(std::uint32_t rank) const {
  return nodes_.at(rank - 1)->outcome();
}

mpz::Bigint FailstopBlindingSystem::decrypt_a(const elgamal::Ciphertext& c) const {
  return ka_->decrypt(c);
}

mpz::Bigint FailstopBlindingSystem::decrypt_b(const elgamal::Ciphertext& c) const {
  return kb_->decrypt(c);
}

bool FailstopBlindingSystem::consistent(const FailstopOutcome& o) const {
  return decrypt_a(o.blinded.ea) == decrypt_b(o.blinded.eb);
}

}  // namespace dblind::core
