// FIG5: cost of validating self-verifying messages, per message type.
//
// Validity checks run on every message receipt (§4.2.3: "if messages that
// are not valid are ignored then attacks involving bogus messages become
// indistinguishable from lost messages"), so their cost — which grows with f
// because reveal/contribute messages embed 2f+1 commit messages as evidence
// — is the protocol's main CPU overhead beyond raw crypto.
#include <benchmark/benchmark.h>

#include "core/validity.hpp"
#include "tests/core/test_util.hpp"
#include "zkp/vde.hpp"

namespace {

using namespace dblind;  // NOLINT
using core::testing::TestSystem;
using mpz::Bigint;
using mpz::Prng;

// Builds a full set of valid protocol messages for an (n, f) service pair.
struct Fixture {
  TestSystem ts;
  Prng prng{7};
  core::InstanceId id{1, 1, 0};
  std::vector<core::SignedMessage> commits;
  core::SignedMessage init_env;
  core::SignedMessage reveal_env;
  core::SignedMessage contribute_env;
  std::vector<std::uint8_t> blind_payload;
  std::vector<std::uint8_t> blind_evidence;

  explicit Fixture(std::size_t f)
      : ts(TestSystem::make(13, {3 * f + 1, f}, {3 * f + 1, f})) {
    const core::SystemConfig& cfg = ts.cfg;
    init_env = core::make_envelope(ts.b_secrets[0],
                                   core::encode_body(core::MsgType::kInit, core::InitMsg{id}),
                                   0, prng);

    struct Contrib {
      Bigint rho, r1, r2;
      core::Contribution c;
    };
    std::vector<Contrib> contribs;
    for (std::uint32_t r = 1; r <= 2 * f + 1; ++r) {
      Contrib c;
      c.rho = ts.params.random_element(prng);
      c.r1 = ts.params.random_exponent(prng);
      c.r2 = ts.params.random_exponent(prng);
      c.c.ea = cfg.a.encryption_key.encrypt_with_nonce(c.rho, c.r1);
      c.c.eb = cfg.b.encryption_key.encrypt_with_nonce(c.rho, c.r2);
      contribs.push_back(std::move(c));

      core::CommitMsg commit;
      commit.id = id;
      commit.server = r;
      commit.commitment = contribs.back().c.commitment_digest();
      commits.push_back(core::make_envelope(
          ts.b_secrets[r - 1], core::encode_body(core::MsgType::kCommit, commit), 0, prng));
    }

    core::RevealMsg reveal;
    reveal.id = id;
    reveal.commits = commits;
    reveal_env = core::make_envelope(ts.b_secrets[0],
                                     core::encode_body(core::MsgType::kReveal, reveal), 0, prng);

    core::BlindEvidence evidence;
    std::vector<elgamal::Ciphertext> eas, ebs;
    for (std::uint32_t r = 1; r <= f + 1; ++r) {
      core::ContributeMsg m;
      m.id = id;
      m.server = r;
      m.reveal = reveal_env;
      m.contribution = contribs[r - 1].c;
      m.vde = zkp::vde_prove(cfg.a.encryption_key, m.contribution.ea, contribs[r - 1].r1,
                             cfg.b.encryption_key, m.contribution.eb, contribs[r - 1].r2,
                             core::vde_context(id, r), prng);
      auto env = core::make_envelope(ts.b_secrets[r - 1],
                                     core::encode_body(core::MsgType::kContribute, m), 0, prng);
      if (r == 1) contribute_env = env;
      evidence.contributes.push_back(env);
      eas.push_back(m.contribution.ea);
      ebs.push_back(m.contribution.eb);
    }

    core::BlindPayload payload;
    payload.id = id;
    payload.blinded.ea = *cfg.a.encryption_key.product(eas);
    payload.blinded.eb = *cfg.b.encryption_key.product(ebs);
    blind_payload = core::encode_body(core::MsgType::kBlind, payload);
    blind_evidence = dblind::group::to_bytes(evidence);
  }
};

Fixture& fixture(std::size_t f) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(f);
  if (it == cache.end()) it = cache.emplace(f, std::make_unique<Fixture>(f)).first;
  return *it->second;
}

void BM_CheckInit(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(core::check_init(fx.ts.cfg, fx.init_env));
}
BENCHMARK(BM_CheckInit)->Arg(1)->Arg(2)->Arg(3);

void BM_CheckCommit(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(core::check_commit(fx.ts.cfg, fx.commits[0]));
}
BENCHMARK(BM_CheckCommit)->Arg(1)->Arg(2)->Arg(3);

void BM_CheckReveal(benchmark::State& state) {
  // Validates 2f+1 embedded commit signatures.
  Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(core::check_reveal(fx.ts.cfg, fx.reveal_env));
}
BENCHMARK(BM_CheckReveal)->Arg(1)->Arg(2)->Arg(3);

void BM_CheckContribute(benchmark::State& state) {
  // Signature + embedded reveal (2f+1 commits) + VDE verification.
  Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::check_contribute(fx.ts.cfg, fx.contribute_env));
}
BENCHMARK(BM_CheckContribute)->Arg(1)->Arg(2)->Arg(3);

void BM_CheckBlindSignRequest(benchmark::State& state) {
  // The heaviest check: f+1 full contribute validations + product check.
  Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::check_blind_sign_request(fx.ts.cfg, fx.blind_payload, fx.blind_evidence));
}
BENCHMARK(BM_CheckBlindSignRequest)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
