// CMP-JAK + CMP-PSS: comparison against the two alternatives discussed in §5.
//
//  - Jakobsson's quorum-controlled proxy re-encryption: one round at A, but
//    all computation on A and nothing can start before E_A(m) exists.
//  - PSS-based transfer: share resharing A→B, cheap per transfer but requires
//    pairwise server-to-server secure links and — the paper's key point — a
//    recurring proactive-refresh cost proportional to the NUMBER OF SECRETS
//    STORED, whereas re-encryption refreshes only one key sharing.
#include <chrono>

#include "baselines/jakobsson.hpp"
#include "baselines/pss_transfer.hpp"
#include "core/system.hpp"
#include "table.hpp"
#include "threshold/keygen.hpp"
#include "threshold/reshare.hpp"

namespace {

using namespace dblind;  // NOLINT
using mpz::Bigint;
using mpz::Prng;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

// Minimal simulator nodes for Jakobsson's one-round protocol: requester
// broadcasts E_A(m), every A server replies with a partial, requester
// combines and ships E_B(m) to all of B.
struct JakState {
  group::GroupParams gp = group::GroupParams::named(group::ParamId::kToy64);
  std::unique_ptr<threshold::ServiceKeyMaterial> a_km;
  std::unique_ptr<elgamal::KeyPair> kb;
  elgamal::Ciphertext c;
  Bigint m;
  std::size_t n_a = 4, f_a = 1, n_b = 4;
  std::vector<baselines::JakobssonPartial> partials;
  std::optional<elgamal::Ciphertext> out;
  int b_received = 0;
};

class JakServer final : public net::Node {
 public:
  JakServer(JakState& st, std::uint32_t rank) : st_(st), rank_(rank) {}
  void on_message(net::Context& ctx, net::NodeId from, std::span<const std::uint8_t>) override {
    auto partial = baselines::jakobsson_partial(st_.gp, st_.c, st_.a_km->share_of(rank_),
                                                st_.kb->public_key().y(), "jak", ctx.rng());
    // Reply "with" the partial: the sim carries opaque bytes; sizes are what
    // matter for accounting, so serialize roughly (4 group elements + 2
    // proofs ≈ 10 elements).
    std::vector<std::uint8_t> bytes(10 * st_.gp.element_size(), 0);
    pending_ = std::move(partial);
    st_.partials.push_back(*pending_);
    ctx.send(from, std::move(bytes));
  }

 private:
  JakState& st_;
  std::uint32_t rank_;
  std::optional<baselines::JakobssonPartial> pending_;
};

class JakRequester final : public net::Node {
 public:
  explicit JakRequester(JakState& st) : st_(st) {}
  void on_start(net::Context& ctx) override {
    std::vector<std::uint8_t> req(2 * st_.gp.element_size(), 0);
    for (std::uint32_t i = 0; i < st_.n_a; ++i) ctx.send(1 + i, req);
  }
  void on_message(net::Context& ctx, net::NodeId, std::span<const std::uint8_t>) override {
    ++replies_;
    if (replies_ != st_.f_a + 1) return;
    // Verify + combine the first f+1 partials, ship result to B.
    std::vector<baselines::JakobssonPartial> quorum(st_.partials.begin(),
                                                    st_.partials.begin() +
                                                        static_cast<std::ptrdiff_t>(st_.f_a + 1));
    for (const auto& p : quorum) {
      if (!baselines::jakobsson_verify_partial(st_.gp, st_.a_km->commitments(), st_.c,
                                               st_.kb->public_key().y(), p, "jak"))
        return;
    }
    st_.out = baselines::jakobsson_combine(st_.gp, st_.c, quorum);
    std::vector<std::uint8_t> result(2 * st_.gp.element_size(), 0);
    for (std::uint32_t i = 0; i < st_.n_b; ++i)
      ctx.send(1 + st_.n_a + i, result);
  }

 private:
  JakState& st_;
  std::size_t replies_ = 0;
};

class JakReceiver final : public net::Node {
 public:
  explicit JakReceiver(JakState& st) : st_(st) {}
  void on_message(net::Context&, net::NodeId, std::span<const std::uint8_t>) override {
    ++st_.b_received;
  }

 private:
  JakState& st_;
};

}  // namespace

int main() {
  std::puts("CMP-JAK / CMP-PSS — one transfer, n=4, f=1 per service, U[0.5ms,20ms] delays");
  std::puts("");
  bench::Table table({"scheme", "latency_ms", "messages", "kbytes", "correct",
                      "pre-computable", "needs pairwise server keys"});

  // Ours.
  {
    core::SystemOptions o;
    o.seed = 1;
    core::System sys(std::move(o));
    core::TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(5000)));
    bool done = sys.run_to_completion();
    auto res = sys.result(t);
    bool ok = done && res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
    table.row({"ours (Fig. 4)", bench::fmt(sys.sim().stats().end_time / 1000.0),
               bench::fmt_u(sys.sim().stats().messages_sent),
               bench::fmt(sys.sim().stats().bytes_sent / 1024.0), ok ? "yes" : "NO",
               "yes (all but 1 threshold decryption)", "no"});
  }

  // Jakobsson.
  {
    JakState st;
    Prng setup(2);
    st.a_km = std::make_unique<threshold::ServiceKeyMaterial>(
        threshold::ServiceKeyMaterial::dealer_keygen(st.gp, {st.n_a, st.f_a}, setup));
    st.kb = std::make_unique<elgamal::KeyPair>(elgamal::KeyPair::generate(st.gp, setup));
    st.m = st.gp.random_element(setup);
    st.c = st.a_km->public_key().encrypt(st.m, setup);

    net::Simulator sim(3, std::make_unique<net::UniformDelay>(500, 20'000));
    sim.add_node(std::make_unique<JakRequester>(st));          // node 0
    for (std::uint32_t i = 1; i <= st.n_a; ++i) sim.add_node(std::make_unique<JakServer>(st, i));
    for (std::uint32_t i = 0; i < st.n_b; ++i) sim.add_node(std::make_unique<JakReceiver>(st));
    sim.run_until([&] { return st.b_received == static_cast<int>(st.n_b); }, 1'000'000);
    bool ok = st.out && st.kb->decrypt(*st.out) == st.m;
    table.row({"jakobsson (quorum proxy)", bench::fmt(sim.stats().end_time / 1000.0),
               bench::fmt_u(sim.stats().messages_sent),
               bench::fmt(sim.stats().bytes_sent / 1024.0), ok ? "yes" : "NO",
               "no (needs E_A(m) and k_A)", "no"});
  }

  // PSS transfer (one round of pairwise sub-share messages).
  {
    group::GroupParams gp = group::GroupParams::named(group::ParamId::kToy64);
    Prng prng(4);
    Bigint secret = prng.uniform_below(gp.q());
    auto poly = threshold::sharing_polynomial(secret, 1, gp.q(), prng);
    auto commitments = threshold::feldman_commit(gp, poly);
    std::vector<threshold::Share> quorum;
    for (std::uint32_t i = 1; i <= 2; ++i)
      quorum.push_back({i, threshold::eval_polynomial(poly, i, gp.q())});

    auto r = baselines::pss_transfer(gp, quorum, commitments, 4, 1, prng);
    // One message round: latency = max of |Q|*n_B independent delays.
    Prng delays(5);
    std::uint64_t latency = 0;
    for (std::uint64_t i = 0; i < r.messages; ++i)
      latency = std::max(latency, 500 + delays.uniform_u64(19'500));
    std::vector<threshold::Share> bq = {r.b_shares[0], r.b_shares[1]};
    bool ok = threshold::shamir_reconstruct(bq, gp.q()) == secret;
    table.row({"pss resharing", bench::fmt(latency / 1000.0), bench::fmt_u(r.messages),
               bench::fmt(r.bytes / 1024.0), ok ? "yes" : "NO", "no (per-secret resharing)",
               "YES (pairwise secure links)"});
  }
  table.print();

  std::puts("");
  std::puts("CMP-PSS — recurring proactive-refresh cost vs number of stored secrets");
  std::puts("(mobile-adversary defense, 256-bit group; ours refreshes ONLY the key shares)");
  std::puts("");
  {
    bench::Table refresh({"stored secrets", "pss refresh (ms/epoch)", "ours refresh (ms/epoch)",
                          "ratio"});
    group::GroupParams gp = group::GroupParams::named(group::ParamId::kTest256);
    Prng prng(6);
    auto one_resharing_ms = [&]() {
      Bigint secret = prng.uniform_below(gp.q());
      auto poly = threshold::sharing_polynomial(secret, 1, gp.q(), prng);
      auto commitments = threshold::feldman_commit(gp, poly);
      std::vector<threshold::Share> quorum;
      for (std::uint32_t i = 1; i <= 2; ++i)
        quorum.push_back({i, threshold::eval_polynomial(poly, i, gp.q())});
      auto t0 = std::chrono::steady_clock::now();
      (void)baselines::pss_transfer(gp, quorum, commitments, 4, 1, prng);
      return ms_since(t0);
    };
    // Ours: one same-roster resharing of the service key shares per epoch,
    // regardless of how many ciphertexts the service stores (the ciphertexts
    // themselves need no refresh). Same algorithm as one PSS secret's.
    auto km = threshold::ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
    auto t0 = std::chrono::steady_clock::now();
    (void)threshold::reshare_service(km, km.config(), prng);
    double key_only = ms_since(t0);
    for (int secrets : {1, 10, 100}) {
      double pss = 0;
      for (int s = 0; s < secrets; ++s) pss += one_resharing_ms();
      refresh.row({std::to_string(secrets), bench::fmt(pss), bench::fmt(key_only),
                   bench::fmt(pss / key_only, 1) + "x"});
    }
    refresh.print();
  }
  std::puts("");
  std::puts("Expected shape: PSS wins on per-transfer latency/messages but pays a refresh");
  std::puts("cost linear in stored secrets and exposes server keys across services;");
  std::puts("Jakobsson is compact but serializes all work on A after E_A(m) exists;");
  std::puts("ours costs more messages per transfer but pre-computes everything except");
  std::puts("one threshold decryption and keeps refresh O(1) in stored secrets (§5).");
  return 0;
}
