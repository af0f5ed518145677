// Per-layer probes: each times one lower layer's public function on the
// workload's group and (n, f). Inputs are valid and every probe checks its
// result, so a verify probe times the real accepting path.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "bench.hpp"
#include "common/codec.hpp"
#include "core/messages.hpp"
#include "elgamal/elgamal.hpp"
#include "hash/sha256.hpp"
#include "mpz/fe25519.hpp"
#include "mpz/modmath.hpp"
#include "mpz/montgomery.hpp"
#include "threshold/feldman.hpp"
#include "threshold/keygen.hpp"
#include "threshold/reshare.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "threshold/thresh_sign.hpp"
#include "zkp/batch.hpp"
#include "zkp/chaum_pedersen.hpp"
#include "zkp/schnorr.hpp"
#include "zkp/vde.hpp"

namespace perfbench {

namespace {

using dblind::group::GroupParams;
using dblind::group::ParamId;
using dblind::mpz::Bigint;
namespace core = dblind::core;
namespace th = dblind::threshold;
namespace zkp = dblind::zkp;

constexpr std::int64_t kBatchNs = 4'000'000;  // a timed batch runs at least 4 ms
constexpr int kBatches = 5;
constexpr int kFeChain = 256;  // fe_mul calls per probe call
constexpr int kCpItems = 8;    // Chaum-Pedersen proofs per batch verification

// Median thread-CPU ns per call of `op` over kBatches equal batches. The
// first, untimed call also builds any lazily created table.
double time_op(const std::function<void()>& op) {
  op();
  int iters = 1;
  for (;;) {
    const std::int64_t c0 = thread_cpu_ns();
    for (int i = 0; i < iters; ++i) op();
    if (thread_cpu_ns() - c0 >= kBatchNs || iters >= (1 << 22)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t c0 = thread_cpu_ns();
    for (int i = 0; i < iters; ++i) op();
    per_call.push_back(static_cast<double>(thread_cpu_ns() - c0) / iters);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

class Probes {
 public:
  explicit Probes(std::vector<Metric>& out) : out_(out) {}

  // Times `op` and reports ns / `scale` per call.
  void time(const std::string& name, const char* unit, double scale,
            const std::function<void()>& op) {
    out_.push_back({name, time_op(op) / scale, unit});
  }
  void check(bool cond, const std::string& what) {
    if (!cond && ok_) failure_ = what;
    ok_ = ok_ && cond;
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& failure() const { return failure_; }

 private:
  std::vector<Metric>& out_;
  bool ok_ = true;
  std::string failure_;
};

void probe_group(Probes& p, const GroupParams& gp, dblind::mpz::Prng& prng,
                 const Bigint& pinned) {
  const Bigint x = gp.random_element(prng);
  const Bigint y = gp.random_element(prng);
  const Bigint e = gp.random_exponent(prng);
  Bigint r;
  p.time("group.pow_us", "us", 1e3, [&] { r = gp.pow(x, e); });
  p.check(gp.mul(r, gp.pow(x, gp.q() - e)) == gp.identity(), "pow");
  p.time("group.pow_fixed_us", "us", 1e3, [&] { r = gp.pow_fixed(pinned, e); });
  p.check(r == gp.pow(pinned, e), "pow_fixed");

  std::vector<Bigint> bases;
  std::vector<Bigint> exps;
  Bigint expect = gp.identity();
  for (int i = 0; i < 8; ++i) {
    bases.push_back(gp.random_element(prng));
    exps.push_back(gp.random_exponent(prng));
    expect = gp.mul(expect, gp.pow(bases.back(), exps.back()));
  }
  p.time("group.multi_pow8_us", "us", 1e3, [&] { r = gp.multi_pow(bases, exps); });
  p.check(r == expect, "multi_pow");
  p.time("group.mul_us", "us", 1e3, [&] { r = gp.mul(x, y); });
  p.check(gp.mul(r, gp.inv(y)) == x, "mul");
  bool member = true;
  p.time("group.decode_us", "us", 1e3, [&] { member = member && gp.in_group(x); });
  p.check(member, "in_group");
  std::size_t size = 0;
  p.time("group.encode_us", "us", 1e3, [&] { size = gp.element_bytes(x).size(); });
  p.check(size == gp.element_size(), "element_bytes");
}

// Kernel probes: fixed sizes, independent of the workload's group.
void probe_mpz_hash(Probes& p, dblind::mpz::Prng& prng) {
  const GroupParams p1024 = GroupParams::named(ParamId::kSec1024);
  const dblind::mpz::MontgomeryCtx ctx(p1024.p());
  const Bigint base = prng.uniform_below(p1024.p());
  const Bigint exp = prng.uniform_below(p1024.p());
  Bigint r;
  const std::uint64_t m0 = ctx.mul_count();
  r = ctx.pow(base, exp);
  const double muls_per_pow = static_cast<double>(ctx.mul_count() - m0);
  p.check(r == dblind::mpz::powmod(base, exp, p1024.p()), "montgomery pow");
  p.time("mpz.mont_mul_ns", "ns", muls_per_pow, [&] { r = ctx.pow(base, exp); });

  std::array<std::uint8_t, 32> seed_bytes{};
  for (std::uint8_t& byte : seed_bytes) byte = static_cast<std::uint8_t>(prng.uniform_u64(256));
  seed_bytes[31] &= 0x7f;  // below 2^255: a canonical field element
  dblind::mpz::Fe25519 a = dblind::mpz::fe_from_bytes(seed_bytes);
  const dblind::mpz::Fe25519 b = dblind::mpz::fe_add(a, dblind::mpz::Fe25519::one());
  const std::uint64_t f0 = dblind::mpz::fe_mul_count();
  p.time("mpz.fe_mul_ns", "ns", kFeChain, [&] {
    for (int i = 0; i < kFeChain; ++i) a = dblind::mpz::fe_mul(a, b);
  });
  p.check((dblind::mpz::fe_mul_count() - f0) % kFeChain == 0, "fe_mul count");
  p.check(!dblind::mpz::fe_is_zero(a), "fe_mul chain");

  const Bigint ell = GroupParams::named(ParamId::kEc255).q();
  const Bigint wide = prng.uniform_below(ell) * prng.uniform_below(ell);
  p.time("mpz.reduce_mod_q_ns", "ns", 1, [&] { r = dblind::mpz::mod(wide, ell); });
  p.check(!r.is_negative() && r < ell && dblind::mpz::mod(wide + ell, ell) == r, "mod l");

  std::vector<std::uint8_t> kib(1024);
  for (std::size_t i = 0; i < kib.size(); ++i) kib[i] = static_cast<std::uint8_t>(i * 131 + 7);
  dblind::hash::Digest d{};
  p.time("hash.sha256_ns_per_byte", "ns", 1024, [&] { d = dblind::hash::Sha256::digest(kib); });
  const std::span<const std::uint8_t> all(kib);
  p.check(d == dblind::hash::Sha256().update(all.first(300)).update(all.subspan(300)).finish(),
          "sha256");
}

void probe_zkp_threshold_core(Probes& p, const Workload& w, const GroupParams& gp,
                              dblind::mpz::Prng& prng, const th::ServiceKeyMaterial& ka,
                              const th::ServiceKeyMaterial& kb) {
  const dblind::elgamal::PublicKey& pa = ka.public_key();
  const dblind::elgamal::PublicKey& pb = kb.public_key();

  // zkp: VDE prove/verify over a real contribution pair.
  const Bigint rho = gp.random_element(prng);
  const Bigint r1 = gp.random_exponent(prng);
  const Bigint r2 = gp.random_exponent(prng);
  const dblind::elgamal::Ciphertext ca = pa.encrypt_with_nonce(rho, r1);
  const dblind::elgamal::Ciphertext cb = pb.encrypt_with_nonce(rho, r2);
  const std::string vde_ctx = "perfbench/vde";
  zkp::VdeProof proof;
  p.time("zkp.vde_prove_us", "us", 1e3,
         [&] { proof = zkp::vde_prove(pa, ca, r1, pb, cb, r2, vde_ctx, prng); });
  bool valid = true;
  p.time("zkp.vde_verify_us", "us", 1e3,
         [&] { valid = valid && zkp::vde_verify(pa, ca, pb, cb, proof, vde_ctx); });
  p.check(valid, "vde_verify");

  std::vector<zkp::CpBatchItem> items;
  for (int i = 0; i < kCpItems; ++i) {
    const Bigint a = gp.random_exponent(prng);
    const Bigint base2 = gp.random_element(prng);
    zkp::DlogStatement stmt{gp.g(), gp.pow_g(a), base2, gp.pow(base2, a)};
    const std::string ctx = "perfbench/cp/" + std::to_string(i);
    zkp::DlogEqProof pr = zkp::dlog_prove(gp, stmt, a, ctx, prng);
    items.push_back({std::move(stmt), std::move(pr), ctx});
  }
  p.time("zkp.cp_batch_verify_us_per_proof", "us", 1e3 * kCpItems,
         [&] { valid = valid && zkp::cp_batch_verify(gp, items, prng); });
  p.check(valid, "cp_batch_verify");

  const zkp::SchnorrSigningKey sk = zkp::SchnorrSigningKey::generate(gp, prng);
  const std::vector<std::uint8_t> msg(96, 0x5a);
  zkp::SchnorrSignature sig;
  p.time("zkp.schnorr_sign_us", "us", 1e3, [&] { sig = sk.sign(msg, prng); });
  p.time("zkp.schnorr_verify_us", "us", 1e3,
         [&] { valid = valid && sk.verify_key().verify(msg, sig); });
  p.check(valid, "schnorr verify");

  // threshold: Feldman evaluation, decryption shares, partial signatures,
  // re-sharing and the DKG itself, all at the workload's (n, f).
  Bigint vk;
  p.time("threshold.feldman_eval_us", "us", 1e3,
         [&] { vk = th::feldman_eval(gp, ka.commitments(), 2); });
  p.check(vk == gp.pow_g(ka.share_of(2).value), "feldman_eval");

  const dblind::elgamal::Ciphertext c = pa.encrypt(gp.random_element(prng), prng);
  const std::string dec_ctx = "perfbench/decrypt";
  th::DecryptionShare ds;
  p.time("threshold.decrypt_share_us", "us", 1e3,
         [&] { ds = th::make_decryption_share(gp, c, ka.share_of(1), dec_ctx, prng); });
  p.time("threshold.decrypt_share_verify_us", "us", 1e3, [&] {
    valid = valid && th::verify_decryption_share(gp, ka.commitments(), c, ds, dec_ctx);
  });
  p.check(valid, "decryption share verify");

  std::vector<th::SigningMember> members;
  std::vector<th::NonceCommitment> commits;
  std::vector<th::NonceReveal> reveals;
  for (std::uint32_t i = 1; i <= w.f + 1; ++i) {
    members.emplace_back(gp, ka.share_of(i), prng);
    commits.push_back(members.back().commitment());
    reveals.push_back(members.back().reveal());
  }
  const std::optional<th::PartialSignature> partial =
      members.front().respond(commits, reveals, pa.y(), msg);
  p.check(partial.has_value(), "threshold respond");
  if (partial) {
    const Bigint e = zkp::schnorr_challenge(gp, th::combine_nonce(gp, reveals), pa.y(), msg);
    p.time("threshold.partial_sig_verify_us", "us", 1e3, [&] {
      valid = valid &&
              th::verify_partial_signature(gp, ka.commitments(), reveals.front(), *partial, e);
    });
    p.check(valid, "partial signature verify");
  }

  th::ReshareDeal deal;
  p.time("threshold.reshare_deal_us", "us", 1e3,
         [&] { deal = th::reshare_deal(gp, ka.share_of(1), w.n, w.f, prng); });
  p.check(th::reshare_verify_commitments(gp, ka.commitments(), deal, w.f), "reshare deal");

  bool clean = true;
  p.time("threshold.dkg_ms", "ms", 1e6, [&] {
    clean = clean && th::run_joint_feldman_dkg(gp, {w.n, w.f}, prng).disqualified.empty();
  });
  p.check(clean, "dkg");

  // core codec: a contribute envelope of the workload's size (2f+1 signed
  // commits inside the reveal, a full VDE proof), encoded and decoded.
  const auto service_b = static_cast<std::uint8_t>(core::ServiceRole::kServiceB);
  const core::InstanceId id{7, 1, 0};
  core::RevealMsg reveal_msg{id, {}};
  for (std::uint32_t rank = 1; rank <= 2 * w.f + 1; ++rank) {
    core::CommitMsg cm{id, rank, dblind::hash::Sha256::digest(std::string_view("commit"))};
    std::vector<std::uint8_t> body = core::encode_body(core::MsgType::kCommit, cm);
    zkp::SchnorrSignature s = sk.sign(body, prng);
    reveal_msg.commits.push_back({service_b, rank, 0, std::move(body), std::move(s)});
  }
  std::vector<std::uint8_t> reveal_body = core::encode_body(core::MsgType::kReveal, reveal_msg);
  zkp::SchnorrSignature reveal_sig = sk.sign(reveal_body, prng);
  core::ContributeMsg contribute{id, 2, {service_b, 1, 0, std::move(reveal_body), reveal_sig},
                                 {ca, cb}, proof};
  std::vector<std::uint8_t> body = core::encode_body(core::MsgType::kContribute, contribute);
  zkp::SchnorrSignature env_sig = sk.sign(body, prng);
  const core::SignedMessage env{service_b, 2, 0, std::move(body), std::move(env_sig)};
  core::SignedMessage back;
  core::ContributeMsg decoded;
  p.time("core.codec_roundtrip_us", "us", 1e3, [&] {
    dblind::common::Writer wr;
    env.encode(wr);
    const std::vector<std::uint8_t> bytes = wr.take();
    dblind::common::Reader rd(bytes);
    back = core::SignedMessage::decode(rd);
    rd.expect_done();
    decoded = core::decode_as<core::ContributeMsg>(core::MsgType::kContribute, back.body);
  });
  p.check(back == env && decoded.vde == proof && decoded.contribution.eb == cb &&
              decoded.reveal.body == contribute.reveal.body,
          "codec round trip");
}

}  // namespace

bool run_probes(const Workload& w, std::uint64_t seed, std::vector<Metric>& out) {
  Probes p(out);
  dblind::mpz::Prng prng(seed ^ 0x70726f6265ull);
  const GroupParams gp = GroupParams::named(w.group);
  const th::ServiceConfig cfg{w.n, w.f};
  const th::ServiceKeyMaterial ka = th::ServiceKeyMaterial::dealer_keygen(gp, cfg, prng);
  const th::ServiceKeyMaterial kb = th::ServiceKeyMaterial::dealer_keygen(gp, cfg, prng);
  // The protocol bases every ProtocolServer pins at construction.
  const Bigint& ya = ka.public_key().y();
  const Bigint& yb = kb.public_key().y();
  gp.pin_base(ya);
  gp.pin_base(yb);
  gp.pin_base(gp.mul(ya, yb));

  try {
    probe_group(p, gp, prng, ya);
    probe_mpz_hash(p, prng);
    probe_zkp_threshold_core(p, w, gp, prng, ka, kb);
  } catch (const std::exception& e) {
    p.check(false, e.what());
  }
  if (!p.ok()) std::fprintf(stderr, "perfbench: probe check failed: %s\n", p.failure().c_str());
  return p.ok();
}

}  // namespace perfbench
