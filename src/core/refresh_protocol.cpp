#include "core/refresh_protocol.hpp"

#include <algorithm>

#include "mpz/modmath.hpp"
#include "zkp/transcript.hpp"

namespace dblind::core {

namespace {

enum class RfType : std::uint8_t {
  kInit = 1,
  kDeal = 2,
  kApply = 3,
  kEcho = 4,
  kFetch = 5,
  kFetchReply = 6,
};

void put_refresh_deal(Writer& w, const threshold::RefreshDeal& deal) {
  w.u32(deal.dealer);
  w.u32(static_cast<std::uint32_t>(deal.commitments.coefficients.size()));
  for (const group::Element& c : deal.commitments.coefficients) w.bigint(c);
  w.u32(static_cast<std::uint32_t>(deal.subshares.size()));
  for (const threshold::Share& s : deal.subshares) {
    w.u32(s.index);
    w.bigint(s.value);
  }
}

threshold::RefreshDeal get_refresh_deal(Reader& r) {
  threshold::RefreshDeal deal;
  deal.dealer = r.u32();
  std::uint32_t nc = r.count();
  for (std::uint32_t i = 0; i < nc; ++i)
    deal.commitments.coefficients.push_back(group::read_element(r));
  std::uint32_t ns = r.count();
  for (std::uint32_t i = 0; i < ns; ++i) {
    threshold::Share s;
    s.index = r.u32();
    s.value = r.bigint();
    deal.subshares.push_back(std::move(s));
  }
  return deal;
}

void put_deal_set(Writer& w, const std::vector<threshold::RefreshDeal>& deals) {
  w.u32(static_cast<std::uint32_t>(deals.size()));
  for (const threshold::RefreshDeal& d : deals) put_refresh_deal(w, d);
}

std::vector<threshold::RefreshDeal> get_deal_set(Reader& r) {
  std::uint32_t n = r.count();
  std::vector<threshold::RefreshDeal> deals;
  for (std::uint32_t i = 0; i < n; ++i) deals.push_back(get_refresh_deal(r));
  return deals;
}

hash::Digest deal_set_digest(std::uint32_t coordinator,
                             const std::vector<threshold::RefreshDeal>& deals) {
  Writer w;
  w.u32(coordinator);
  put_deal_set(w, deals);
  zkp::Transcript t("dblind/refresh/apply-set/v1");
  t.absorb_bytes(w.view());
  return t.digest();
}

// Signed envelope local to the refresh protocol.
struct RfEnvelope {
  std::uint32_t signer = 0;
  std::vector<std::uint8_t> body;
  zkp::SchnorrSignature sig;

  void encode(Writer& w) const {
    w.u32(signer);
    w.bytes(body);
    put_schnorr_sig(w, sig);
  }
  static RfEnvelope decode(Reader& r) {
    RfEnvelope e;
    e.signer = r.u32();
    e.body = r.bytes();
    e.sig = get_schnorr_sig(r);
    return e;
  }
};

}  // namespace

// Roles per node: dealer (on init), refresh coordinator (designated/backup),
// echo participant, and applier. The echo/fetch pair gives agreement +
// totality per coordinator instance:
//   * a correct server echoes at most one apply-set per coordinator, so at
//     most one set per coordinator can collect 2f+1 echoes (quorum
//     intersection contains a correct server);
//   * once ANY correct server holds 2f+1 echoes, every correct server
//     eventually does (echoes are broadcast), and servers that never saw the
//     set's content fetch it from an echoer (≥ f+1 of the echoers are
//     correct and hold it).
// Sets from different coordinators commute (each is a sharing of zero), so
// applying the union preserves the key at every server.
class RefreshSystem::ServerNode final : public net::Node {
 public:
  ServerNode(RefreshSystem& sys, std::uint32_t rank)
      : sys_(sys),
        rank_(rank),
        share_(sys.material_->share_of(rank)),
        commitments_(sys.material_->commitments()) {}

  void on_start(net::Context& ctx) override {
    if (rank_ > sys_.opts_.cfg.f + 1) return;  // not a (backup) coordinator
    net::Time delay = (rank_ - 1) * sys_.opts_.backup_delay;
    if (delay == 0) {
      start_instance(ctx);
    } else {
      ctx.set_timer(delay, 0);
    }
  }

  void on_timer(net::Context& ctx, std::uint64_t) override {
    // Backup coordinators only act if nothing has been applied yet.
    if (applied_.empty()) start_instance(ctx);
  }

  void on_message(net::Context& ctx, net::NodeId from,
                  std::span<const std::uint8_t> bytes) override {
    (void)from;
    try {
      Reader r(bytes, &sys_.opts_.params);
      RfEnvelope env = RfEnvelope::decode(r);
      r.expect_done();
      if (env.signer == 0 || env.signer > sys_.opts_.cfg.n) return;
      if (!sys_.server_vkeys_[env.signer - 1].verify(env.body, env.sig)) return;
      Reader br(env.body, &sys_.opts_.params);
      auto type = static_cast<RfType>(br.u8());
      switch (type) {
        case RfType::kInit: {
          std::uint32_t coordinator = br.u32();
          br.expect_done();
          if (coordinator != env.signer) return;
          handle_init(ctx, coordinator);
          break;
        }
        case RfType::kDeal: {
          threshold::RefreshDeal deal = get_refresh_deal(br);
          br.expect_done();
          if (deal.dealer != env.signer) return;
          handle_deal(ctx, std::move(deal));
          break;
        }
        case RfType::kApply: {
          std::uint32_t coordinator = br.u32();
          std::vector<threshold::RefreshDeal> deals = get_deal_set(br);
          br.expect_done();
          if (coordinator != env.signer) return;
          handle_apply(ctx, coordinator, std::move(deals));
          break;
        }
        case RfType::kEcho: {
          std::uint32_t coordinator = br.u32();
          hash::Digest digest = br.digest();
          br.expect_done();
          handle_echo(ctx, env.signer, coordinator, digest);
          break;
        }
        case RfType::kFetch: {
          std::uint32_t coordinator = br.u32();
          hash::Digest digest = br.digest();
          br.expect_done();
          handle_fetch(ctx, env.signer, coordinator, digest);
          break;
        }
        case RfType::kFetchReply: {
          std::uint32_t coordinator = br.u32();
          std::vector<threshold::RefreshDeal> deals = get_deal_set(br);
          br.expect_done();
          handle_apply(ctx, coordinator, std::move(deals));  // same validation path
          break;
        }
        default:
          break;
      }
    } catch (const CodecError&) {
      // garbage == loss
    }
  }

  [[nodiscard]] bool applied_any() const { return !applied_.empty(); }
  [[nodiscard]] const std::map<std::uint32_t, hash::Digest>& applied() const { return applied_; }
  [[nodiscard]] const threshold::Share& share() const { return share_; }
  [[nodiscard]] const threshold::FeldmanCommitments& commitments() const { return commitments_; }

 private:
  void send_env(net::Context& ctx, net::NodeId to, const std::vector<std::uint8_t>& body) {
    RfEnvelope env;
    env.signer = rank_;
    env.body = body;
    env.sig = sys_.server_keys_[rank_ - 1].sign(body, ctx.rng());
    Writer w;
    env.encode(w);
    ctx.send(to, w.take());
  }

  void broadcast_env(net::Context& ctx, const std::vector<std::uint8_t>& body) {
    for (std::uint32_t j = 1; j <= sys_.opts_.cfg.n; ++j) send_env(ctx, j - 1, body);
  }

  void start_instance(net::Context& ctx) {
    coordinating_ = true;
    Writer w;
    w.u8(static_cast<std::uint8_t>(RfType::kInit));
    w.u32(rank_);
    broadcast_env(ctx, w.view());
  }

  void handle_init(net::Context& ctx, std::uint32_t coordinator) {
    if (!dealt_to_.insert(coordinator).second) return;  // deal once per instance
    const auto& o = sys_.opts_;
    threshold::RefreshDeal deal =
        threshold::refresh_deal(o.params, rank_, o.cfg.n, o.cfg.f, ctx.rng());
    if (o.bad_dealers.contains(rank_)) {
      deal.subshares[0].value =
          mpz::addmod(deal.subshares[0].value, mpz::Bigint(1), o.params.q());
    }
    Writer w;
    w.u8(static_cast<std::uint8_t>(RfType::kDeal));
    put_refresh_deal(w, deal);
    send_env(ctx, coordinator - 1, w.view());
  }

  void handle_deal(net::Context& ctx, threshold::RefreshDeal deal) {
    if (!coordinating_ || sent_apply_) return;
    const auto& o = sys_.opts_;
    for (std::uint32_t j = 1; j <= o.cfg.n; ++j) {
      if (!threshold::refresh_verify(o.params, deal, j)) return;  // invalid deal: drop
    }
    deals_.emplace(deal.dealer, std::move(deal));
    if (deals_.size() < o.cfg.quorum()) return;
    sent_apply_ = true;

    std::vector<threshold::RefreshDeal> chosen;
    for (const auto& [dealer, d] : deals_) {
      if (chosen.size() == o.cfg.quorum()) break;
      chosen.push_back(d);
    }

    if (o.equivocating_coordinator && rank_ == 1 && deals_.size() > o.cfg.quorum()) {
      // Byzantine split: different (individually valid) sets to different
      // servers. The echo quorum prevents divergence.
      std::vector<threshold::RefreshDeal> other;
      for (auto it = deals_.rbegin(); it != deals_.rend(); ++it) {
        if (other.size() == o.cfg.quorum()) break;
        other.push_back(it->second);
      }
      for (std::uint32_t j = 1; j <= o.cfg.n; ++j) {
        const auto& set = (j % 2 == 0) ? chosen : other;
        Writer w;
        w.u8(static_cast<std::uint8_t>(RfType::kApply));
        w.u32(rank_);
        put_deal_set(w, set);
        send_env(ctx, j - 1, w.view());
      }
      return;
    }

    Writer w;
    w.u8(static_cast<std::uint8_t>(RfType::kApply));
    w.u32(rank_);
    put_deal_set(w, chosen);
    broadcast_env(ctx, w.view());
  }

  // Validates a full apply-set; returns its digest if acceptable.
  std::optional<hash::Digest> validate_set(std::uint32_t coordinator,
                                           const std::vector<threshold::RefreshDeal>& deals) {
    const auto& o = sys_.opts_;
    if (coordinator == 0 || coordinator > o.cfg.n) return std::nullopt;
    if (deals.size() != o.cfg.quorum()) return std::nullopt;
    std::set<std::uint32_t> dealers;
    for (const threshold::RefreshDeal& d : deals) {
      if (!dealers.insert(d.dealer).second) return std::nullopt;
      for (std::uint32_t j = 1; j <= o.cfg.n; ++j) {
        if (!threshold::refresh_verify(o.params, d, j)) return std::nullopt;
      }
    }
    return deal_set_digest(coordinator, deals);
  }

  void handle_apply(net::Context& ctx, std::uint32_t coordinator,
                    std::vector<threshold::RefreshDeal> deals) {
    auto digest = validate_set(coordinator, deals);
    if (!digest) return;
    sets_[*digest] = std::move(deals);
    // Echo at most one set per coordinator instance.
    if (echoed_for_.insert(coordinator).second) {
      Writer w;
      w.u8(static_cast<std::uint8_t>(RfType::kEcho));
      w.u32(coordinator);
      w.digest(*digest);
      broadcast_env(ctx, w.view());
      // Count own echo locally too.
      echoes_[{coordinator, *digest}].insert(rank_);
    }
    maybe_apply(ctx);
  }

  void handle_echo(net::Context& ctx, std::uint32_t from_rank, std::uint32_t coordinator,
                   const hash::Digest& digest) {
    echoes_[{coordinator, digest}].insert(from_rank);
    maybe_apply(ctx);
  }

  void handle_fetch(net::Context& ctx, std::uint32_t from_rank, std::uint32_t coordinator,
                    const hash::Digest& digest) {
    auto it = sets_.find(digest);
    if (it == sets_.end()) return;
    Writer w;
    w.u8(static_cast<std::uint8_t>(RfType::kFetchReply));
    w.u32(coordinator);
    put_deal_set(w, it->second);
    send_env(ctx, from_rank - 1, w.view());
  }

  void maybe_apply(net::Context& ctx) {
    const std::size_t need = 2 * sys_.opts_.cfg.f + 1;
    for (const auto& [key, echoers] : echoes_) {
      const auto& [coordinator, digest] = key;
      if (echoers.size() < need) continue;
      if (applied_.contains(coordinator)) continue;
      auto sit = sets_.find(digest);
      if (sit == sets_.end()) {
        // Quorum formed but content unseen (equivocating coordinator sent us
        // a different set): fetch from echoers; at least f+1 are correct.
        if (fetched_.insert(digest).second) {
          Writer w;
          w.u8(static_cast<std::uint8_t>(RfType::kFetch));
          w.u32(coordinator);
          w.digest(digest);
          for (std::uint32_t e : echoers) {
            if (e != rank_) send_env(ctx, e - 1, w.view());
          }
        }
        continue;
      }
      applied_.emplace(coordinator, digest);
      share_ = threshold::refresh_apply(sys_.opts_.params, share_, sit->second);
      commitments_ =
          threshold::refresh_commitments(sys_.opts_.params, commitments_, sit->second);
    }
  }

  RefreshSystem& sys_;
  std::uint32_t rank_;
  threshold::Share share_;
  threshold::FeldmanCommitments commitments_;
  bool coordinating_ = false;
  bool sent_apply_ = false;
  std::set<std::uint32_t> dealt_to_;
  std::set<std::uint32_t> echoed_for_;
  std::map<std::uint32_t, threshold::RefreshDeal> deals_;
  std::map<hash::Digest, std::vector<threshold::RefreshDeal>> sets_;
  std::map<std::pair<std::uint32_t, hash::Digest>, std::set<std::uint32_t>> echoes_;
  std::set<hash::Digest> fetched_;
  std::map<std::uint32_t, hash::Digest> applied_;  // coordinator -> set digest
};

RefreshSystem::RefreshSystem(RefreshSystemOptions opts) : opts_(std::move(opts)) {
  mpz::Prng setup(opts_.seed ^ 0xcafe);
  material_ = std::make_unique<threshold::ServiceKeyMaterial>(
      threshold::ServiceKeyMaterial::dealer_keygen(opts_.params, opts_.cfg, setup));
  for (std::uint32_t r = 1; r <= opts_.cfg.n; ++r) {
    server_keys_.push_back(zkp::SchnorrSigningKey::generate(opts_.params, setup));
    server_vkeys_.push_back(server_keys_.back().verify_key());
  }
  sim_ = std::make_unique<net::Simulator>(
      opts_.seed, std::make_unique<net::UniformDelay>(opts_.delay_min, opts_.delay_max));
  for (std::uint32_t r = 1; r <= opts_.cfg.n; ++r) {
    auto node = std::make_unique<ServerNode>(*this, r);
    nodes_.push_back(node.get());
    net::NodeId id = sim_->add_node(std::move(node));
    if (opts_.crashed.contains(r)) sim_->crash_at(id, 0);
  }
}

RefreshSystem::~RefreshSystem() = default;

bool RefreshSystem::run(std::uint64_t max_events) {
  // Done when every live server has applied the SAME non-empty collection of
  // apply-sets (per-coordinator agreement + totality).
  auto done = [&] {
    const std::map<std::uint32_t, hash::Digest>* reference = nullptr;
    for (std::uint32_t r = 1; r <= opts_.cfg.n; ++r) {
      if (opts_.crashed.contains(r)) continue;
      const ServerNode* node = nodes_[r - 1];
      if (!node->applied_any()) return false;
      if (reference == nullptr) {
        reference = &node->applied();
      } else if (node->applied() != *reference) {
        return false;
      }
    }
    return reference != nullptr;
  };
  return sim_->run_until(done, max_events);
}

std::optional<threshold::Share> RefreshSystem::new_share(std::uint32_t rank) const {
  const ServerNode* node = nodes_.at(rank - 1);
  if (!node->applied_any()) return std::nullopt;
  return node->share();
}

std::optional<threshold::FeldmanCommitments> RefreshSystem::new_commitments(
    std::uint32_t rank) const {
  const ServerNode* node = nodes_.at(rank - 1);
  if (!node->applied_any()) return std::nullopt;
  return node->commitments();
}

}  // namespace dblind::core
