// FIG5: cost of validating self-verifying messages, per message type.
//
// Validity checks run on every message receipt (§4.2.3: "if messages that
// are not valid are ignored then attacks involving bogus messages become
// indistinguishable from lost messages"), so their cost — which grows with f
// because reveal/contribute messages embed 2f+1 commit messages as evidence
// — is the protocol's main CPU overhead beyond raw crypto.
//
// Each row times the check a server runs on that message (core/validity.hpp),
// on a valid message: before timing, the binary exits 1 if any fixture
// message fails its check, so no row can time a rejection path.
#include <benchmark/benchmark.h>

#include <cstdio>

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

  // The checks, as the servers run them.
  bool init_ok() {
    // A contributor decodes the init, then checks its signature.
    auto msg = core::try_decode<core::InitMsg>(ts.cfg, core::MsgType::kInit, init_env.body);
    return msg && core::check_init(ts.cfg, init_env, *msg);
  }
  bool commit_ok() { return core::check_commit(ts.cfg, commits[0]).has_value(); }
  bool reveal_ok() {
    // A contributor decodes the reveal, then checks its 2f+2 signatures.
    auto msg = core::try_decode<core::RevealMsg>(ts.cfg, core::MsgType::kReveal, reveal_env.body);
    return msg && core::check_reveal(ts.cfg, reveal_env, *msg);
  }
  bool contribute_ok() {
    // A coordinator decodes the contribute, then checks its signature, the
    // embedded reveal (2f+1 commits) and the VDE proof.
    auto msg = core::try_decode<core::ContributeMsg>(ts.cfg, core::MsgType::kContribute,
                                                     contribute_env.body);
    return msg && core::check_contribute(ts.cfg, contribute_env, *msg, prng);
  }
  bool blind_request_ok() {
    // The heaviest check: f+1 contributes sharing one reveal + product check.
    return core::check_blind_sign_request(ts.cfg, blind_payload, blind_evidence, prng)
        .has_value();
  }
};

Fixture& fixture(std::size_t f) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(f);
  if (it == cache.end()) it = cache.emplace(f, std::make_unique<Fixture>(f)).first;
  return *it->second;
}

struct Row {
  const char* name;
  bool (Fixture::*check)();
};
constexpr Row kRows[] = {
    {"BM_CheckInit", &Fixture::init_ok},
    {"BM_CheckCommit", &Fixture::commit_ok},
    {"BM_CheckReveal", &Fixture::reveal_ok},
    {"BM_CheckContribute", &Fixture::contribute_ok},
    {"BM_CheckBlindSignRequest", &Fixture::blind_request_ok},
};
constexpr std::size_t kFaults[] = {1, 2, 3};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const Row& row : kRows) {
    for (std::size_t f : kFaults) {
      if (!(fixture(f).*row.check)()) {
        std::fprintf(stderr, "%s: the f=%zu fixture message fails its check\n", row.name, f);
        return 1;
      }
    }
    auto* b =
        benchmark::RegisterBenchmark(row.name, [check = row.check](benchmark::State& state) {
          Fixture& fx = fixture(static_cast<std::size_t>(state.range(0)));
          for (auto _ : state) benchmark::DoNotOptimize((fx.*check)());
        });
    for (std::size_t f : kFaults) b->Arg(static_cast<std::int64_t>(f));
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
