// Shared test fixture: builds a SystemConfig plus all server secrets outside
// the simulator, so validity checks and message construction can be unit
// tested without running a network.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "net/sim.hpp"
#include "threshold/keygen.hpp"
#include "threshold/shamir.hpp"

namespace dblind::core::testing {

// Minimal Context for driving node handlers outside any transport: sends and
// timer tokens are recorded (a test fires timers by hand through on_timer),
// randomness is deterministic.
class NullContext final : public net::Context {
 public:
  explicit NullContext(std::uint64_t seed) : prng_(seed) {}
  void send(net::NodeId to, std::vector<std::uint8_t> bytes) override {
    ++sent;
    frames.emplace_back(to, std::move(bytes));
  }
  void set_timer(net::Time, std::uint64_t token) override { timers.push_back(token); }
  [[nodiscard]] net::Time now() const override { return 0; }
  [[nodiscard]] net::NodeId self() const override { return 99; }
  [[nodiscard]] mpz::Prng& rng() override { return prng_; }
  int sent = 0;
  std::vector<std::pair<net::NodeId, std::vector<std::uint8_t>>> frames;
  std::vector<std::uint64_t> timers;

 private:
  mpz::Prng prng_;
};

struct TestService {
  ServicePublic pub;
  std::vector<ServerSecrets> secrets;
  mpz::Bigint private_key;  // reconstructed, for oracle decryption
};

inline TestService make_test_service(const group::GroupParams& params,
                                     const threshold::ServiceConfig& cfg, ServiceRole role,
                                     mpz::Prng& prng) {
  threshold::ServiceKeyMaterial enc = threshold::ServiceKeyMaterial::dealer_keygen(params, cfg, prng);
  threshold::ServiceKeyMaterial sig = threshold::ServiceKeyMaterial::dealer_keygen(params, cfg, prng);
  TestService out{
      ServicePublic{cfg, enc.public_key(), enc.commitments(),
                    zkp::SchnorrVerifyKey(params, sig.public_key().y()), sig.commitments(),
                    {}, 0, {}},
      {},
      {}};
  for (ServerRank r = 1; r <= cfg.n; ++r) {
    zkp::SchnorrSigningKey key = zkp::SchnorrSigningKey::generate(params, prng);
    out.pub.server_sign_keys.push_back(key.verify_key());
    out.secrets.push_back(ServerSecrets{role, r, enc.share_of(r), sig.share_of(r), key});
  }
  std::vector<threshold::Share> quorum;
  for (ServerRank r = 1; r <= cfg.quorum(); ++r) quorum.push_back(enc.share_of(r));
  out.private_key = threshold::shamir_reconstruct(quorum, params.q());
  return out;
}

struct TestSystem {
  group::GroupParams params;
  SystemConfig cfg;
  std::vector<ServerSecrets> a_secrets;
  std::vector<ServerSecrets> b_secrets;
  mpz::Bigint a_key, b_key;

  static TestSystem make(std::uint64_t seed, threshold::ServiceConfig a_cfg = {4, 1},
                         threshold::ServiceConfig b_cfg = {4, 1},
                         group::ParamId id = group::ParamId::kToy64) {
    group::GroupParams params = group::GroupParams::named(id);
    mpz::Prng prng(seed);
    TestService a = make_test_service(params, a_cfg, ServiceRole::kServiceA, prng);
    TestService b = make_test_service(params, b_cfg, ServiceRole::kServiceB, prng);
    b.pub.first_node = static_cast<net::NodeId>(a_cfg.n);
    return TestSystem{params,
                      SystemConfig{params, a.pub, b.pub},
                      std::move(a.secrets),
                      std::move(b.secrets),
                      std::move(a.private_key),
                      std::move(b.private_key)};
  }
};

}  // namespace dblind::core::testing
