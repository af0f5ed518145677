#include "core/validity.hpp"

#include <deque>
#include <set>

namespace dblind::core {

std::vector<std::uint8_t> epoch_signed_bytes(ConfigEpoch epoch,
                                             std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + body.size());
  out.push_back(static_cast<std::uint8_t>(epoch & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((epoch >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool envelope_signature_ok(const SystemConfig& cfg, const SignedMessage& env) {
  if (env.service > 1) return false;
  const ServicePublic& svc = cfg.service(static_cast<ServiceRole>(env.service));
  if (env.signer == 0 || env.signer > svc.cfg.n) return false;
  return svc.server_key(env.signer).verify(epoch_signed_bytes(env.cfg_epoch, env.body), env.sig);
}

SignedMessage make_envelope(const ServerSecrets& me, std::vector<std::uint8_t> body,
                            ConfigEpoch cfg_epoch, mpz::Prng& prng) {
  SignedMessage env;
  env.service = static_cast<std::uint8_t>(me.role);
  env.signer = me.rank;
  env.cfg_epoch = cfg_epoch;
  env.sig = me.server_sign_key.sign(epoch_signed_bytes(cfg_epoch, body), prng);
  env.body = std::move(body);
  return env;
}

bool check_init(const SystemConfig& cfg, const SignedMessage& env, const InitMsg& msg) {
  // The init message is the coordinator announcing its own instance.
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return false;
  if (env.signer != msg.id.coordinator) return false;
  return envelope_signature_ok(cfg, env);
}

namespace {

// Envelope signatures queued for one Schnorr batch, with the epoch-prefixed
// byte strings the entries' spans point into (a deque keeps their addresses
// stable as it grows).
struct SigBatch {
  std::vector<zkp::BatchEntry> entries;
  std::deque<std::vector<std::uint8_t>> signed_bytes;

  // Queues env's signature under its service-B signer's key.
  void add(const SystemConfig& cfg, const SignedMessage& env) {
    signed_bytes.push_back(epoch_signed_bytes(env.cfg_epoch, env.body));
    entries.push_back({&cfg.b.server_key(env.signer), signed_bytes.back(), &env.sig});
  }

  // One batch equation; a lone signature is verified on its own, which costs
  // less than a batch of one.
  [[nodiscard]] bool verify(const group::GroupParams& params) const {
    if (entries.size() == 1) return entries[0].key->verify(entries[0].msg, *entries[0].sig);
    return zkp::schnorr_batch_verify(params, entries);
  }
};

// The envelope clauses of every service-B row: an existing B signer, stamped
// with `expect_epoch` (I6: evidence never splices configuration epochs).
bool b_envelope_ok(const SystemConfig& cfg, const SignedMessage& env, ConfigEpoch expect_epoch) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return false;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return false;
  return env.cfg_epoch == expect_epoch;
}

// The commit rule, except the signature, which goes into `sigs`.
std::optional<CommitMsg> collect_commit(const SystemConfig& cfg, const SignedMessage& env,
                                        ConfigEpoch expect_epoch, SigBatch& sigs) {
  if (!b_envelope_ok(cfg, env, expect_epoch)) return std::nullopt;
  auto msg = try_decode<CommitMsg>(cfg, MsgType::kCommit, env.body);
  if (!msg || env.signer != msg->server) return std::nullopt;
  sigs.add(cfg, env);
  return msg;
}

// The reveal rule over `msg` (env's decoded body), except the 2f+2
// signatures (the reveal's and its commits'), which go into `sigs`.
bool collect_reveal(const SystemConfig& cfg, const SignedMessage& env, const RevealMsg& msg,
                    ConfigEpoch expect_epoch, SigBatch& sigs) {
  if (!b_envelope_ok(cfg, env, expect_epoch)) return false;
  if (env.signer != msg.id.coordinator) return false;
  sigs.add(cfg, env);
  // (ii) a set M of 2f+1 different valid commit messages with matching id,
  // all from the reveal's own configuration epoch.
  if (msg.commits.size() != 2 * cfg.b.cfg.f + 1) return false;
  std::set<ServerRank> seen;
  for (const SignedMessage& commit_env : msg.commits) {
    auto commit = collect_commit(cfg, commit_env, expect_epoch, sigs);
    if (!commit || commit->id != msg.id) return false;
    if (!seen.insert(commit->server).second) return false;  // must be different servers
  }
  return true;
}

// collect_reveal of the reveal a contribute for instance `id` embeds.
std::optional<RevealMsg> collect_embedded_reveal(const SystemConfig& cfg,
                                                 const SignedMessage& env, const InstanceId& id,
                                                 ConfigEpoch expect_epoch, SigBatch& sigs) {
  auto msg = try_decode<RevealMsg>(cfg, MsgType::kReveal, env.body);
  if (!msg || msg->id != id || !collect_reveal(cfg, env, *msg, expect_epoch, sigs))
    return std::nullopt;
  return msg;
}

// The commitment-match clause of the contribute rule: `server` committed, in
// the (already structurally valid) reveal, to this contribution.
bool commitment_matches(const SystemConfig& cfg, const RevealMsg& reveal, ServerRank server,
                        const ContributeMsg& msg) {
  for (const SignedMessage& commit_env : reveal.commits) {
    auto commit = try_decode<CommitMsg>(cfg, MsgType::kCommit, commit_env.body);
    if (commit && commit->server == server)
      return commit->commitment == msg.contribution.commitment_digest();
  }
  return false;
}

}  // namespace

std::optional<CommitMsg> check_commit(const SystemConfig& cfg, const SignedMessage& env) {
  SigBatch sigs;
  auto msg = collect_commit(cfg, env, env.cfg_epoch, sigs);
  if (!msg || !sigs.verify(cfg.params)) return std::nullopt;
  return msg;
}

bool check_reveal(const SystemConfig& cfg, const SignedMessage& env, const RevealMsg& msg) {
  SigBatch sigs;
  return collect_reveal(cfg, env, msg, env.cfg_epoch, sigs) && sigs.verify(cfg.params);
}

bool check_contribute(const SystemConfig& cfg, const SignedMessage& env, const ContributeMsg& msg,
                      mpz::Prng& prng) {
  if (!b_envelope_ok(cfg, env, env.cfg_epoch) || env.signer != msg.server) return false;

  SigBatch sigs;
  sigs.add(cfg, env);
  // I6: the embedded reveal is from the contribute's own config epoch.
  auto reveal = collect_embedded_reveal(cfg, msg.reveal, msg.id, env.cfg_epoch, sigs);
  if (!reveal || !commitment_matches(cfg, *reveal, msg.server, msg)) return false;
  if (!sigs.verify(cfg.params)) return false;
  const zkp::VdeBatchItem vde{&cfg.a.encryption_key, &msg.contribution.ea,
                              &cfg.b.encryption_key, &msg.contribution.eb,
                              &msg.vde,              vde_context(msg.id, msg.server)};
  return zkp::vde_batch_verify(std::span<const zkp::VdeBatchItem>(&vde, 1), prng);
}

std::optional<BlindPayload> check_blind(const SystemConfig& cfg, const ServiceSignedMsg& msg) {
  if (msg.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (!cfg.b.signing_key.verify(msg.body, msg.sig)) return std::nullopt;
  return try_decode<BlindPayload>(cfg, MsgType::kBlind, msg.body);
}

std::optional<DonePayload> check_done(const SystemConfig& cfg, const ServiceSignedMsg& msg) {
  if (msg.service != static_cast<std::uint8_t>(ServiceRole::kServiceA)) return std::nullopt;
  if (!cfg.a.signing_key.verify(msg.body, msg.sig)) return std::nullopt;
  return try_decode<DonePayload>(cfg, MsgType::kDone, msg.body);
}

std::optional<InstanceId> check_blind_sign_request(const SystemConfig& cfg,
                                                   std::span<const std::uint8_t> payload,
                                                   std::span<const std::uint8_t> evidence,
                                                   mpz::Prng& prng) {
  auto blind = try_decode<BlindPayload>(cfg, MsgType::kBlind, payload);
  if (!blind) return std::nullopt;
  auto ev = try_read<BlindEvidence>(cfg, evidence);
  if (!ev) return std::nullopt;

  // f+1 contribute messages, distinct servers, same id, one config epoch (I6).
  if (ev->contributes.size() != cfg.b.cfg.quorum()) return std::nullopt;
  SigBatch sigs;
  std::vector<ContributeMsg> msgs;
  msgs.reserve(ev->contributes.size());
  std::set<ServerRank> servers;
  const ConfigEpoch epoch = ev->contributes.front().cfg_epoch;
  for (const SignedMessage& env : ev->contributes) {
    if (!b_envelope_ok(cfg, env, epoch)) return std::nullopt;
    auto c = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
    if (!c || env.signer != c->server || c->id != blind->id) return std::nullopt;
    if (!servers.insert(c->server).second) return std::nullopt;
    sigs.add(cfg, env);
    msgs.push_back(std::move(*c));
  }

  // Same-reveal rule (see header comment) first: with every embedded reveal
  // byte-identical, the shared reveal and its 2f+1 commits are checked once.
  const ContributeMsg& first = msgs.front();
  for (const ContributeMsg& c : msgs) {
    if (!(c.reveal == first.reveal)) return std::nullopt;
  }
  auto reveal = collect_embedded_reveal(cfg, first.reveal, blind->id, epoch, sigs);
  if (!reveal) return std::nullopt;
  for (const ContributeMsg& c : msgs) {
    if (!commitment_matches(cfg, *reveal, c.server, c)) return std::nullopt;
  }
  if (!sigs.verify(cfg.params)) return std::nullopt;

  std::vector<zkp::VdeBatchItem> vdes;
  vdes.reserve(msgs.size());
  for (const ContributeMsg& c : msgs) {
    vdes.push_back({&cfg.a.encryption_key, &c.contribution.ea, &cfg.b.encryption_key,
                    &c.contribution.eb, &c.vde, vde_context(c.id, c.server)});
  }
  if (!zkp::vde_batch_verify(vdes, prng)) return std::nullopt;

  // The payload must be exactly the homomorphic product of the evidence
  // contributions (and non-degenerate, per the ElGamal Multiplication side
  // condition).
  std::vector<elgamal::Ciphertext> eas, ebs;
  for (const ContributeMsg& c : msgs) {
    eas.push_back(c.contribution.ea);
    ebs.push_back(c.contribution.eb);
  }
  auto ea = cfg.a.encryption_key.product(eas);
  auto eb = cfg.b.encryption_key.product(ebs);
  if (!ea || !eb || !(*ea == blind->blinded.ea && *eb == blind->blinded.eb)) return std::nullopt;
  return blind->id;
}

bool check_done_sign_request(const SystemConfig& cfg, const DonePayload& done,
                             std::span<const std::uint8_t> evidence,
                             const elgamal::Ciphertext& stored_ea_m, mpz::Prng& prng) {
  auto ev = try_read<DoneEvidence>(cfg, evidence);
  if (!ev) return false;

  auto blind = check_blind(cfg, ev->blind);
  if (!blind || blind->id != done.id) return false;

  // Recompute E_A(mρ) from the locally stored E_A(m) (step 6(a)).
  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  // V^id_mρ: f+1 verified decryption shares combining to mρ (step 6(b)).
  if (ev->shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  for (const threshold::DecryptionShare& s : ev->shares) {
    if (!seen.insert(s.index).second) return false;
  }
  if (!threshold::batch_verify_decryption_shares(cfg.params, cfg.a.enc_commitments, *ea_m_rho,
                                                 ev->shares, decrypt_context(done.id), prng))
    return false;
  group::Element m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev->shares);
  if (m_rho != ev->m_rho) return false;
  if (!cfg.params.in_group(m_rho)) return false;

  // Payload consistency (steps 6(c)/6(d)): E_A(m) is the stored ciphertext
  // and E_B(m) = (mρ)·E_B(ρ)^{-1}.
  if (!(done.ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done.eb_m == expect_eb_m;
}

}  // namespace dblind::core
