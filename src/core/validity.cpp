#include "core/validity.hpp"

#include <deque>
#include <set>

namespace dblind::core {

namespace {

// Decodes an envelope body as T (with tag `type`, elements decoded in the
// configured group); nullopt on any codec error.
template <typename T>
std::optional<T> try_decode(const SystemConfig& cfg, MsgType type,
                            std::span<const std::uint8_t> body) {
  try {
    return decode_as<T>(type, body, cfg.params);
  } catch (const CodecError&) {
    return std::nullopt;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace

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

std::optional<InitMsg> check_init(const SystemConfig& cfg, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<InitMsg>(cfg, MsgType::kInit, env.body);
  if (!msg) return std::nullopt;
  // The init message is the coordinator announcing its own instance.
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  return msg;
}

std::optional<CommitMsg> check_commit(const SystemConfig& cfg, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<CommitMsg>(cfg, MsgType::kCommit, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;
  return msg;
}

std::optional<RevealMsg> check_reveal(const SystemConfig& cfg, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<RevealMsg>(cfg, MsgType::kReveal, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  // (ii) a set M of 2f+1 different valid commit messages with matching id.
  const std::size_t need = 2 * cfg.b.cfg.f + 1;
  if (msg->commits.size() != need) return std::nullopt;
  std::set<ServerRank> seen;
  for (const SignedMessage& commit_env : msg->commits) {
    // I6: the commit set justifying a reveal must come from the reveal's own
    // configuration epoch — no splicing evidence across reconfigurations.
    if (commit_env.cfg_epoch != env.cfg_epoch) return std::nullopt;
    auto commit = check_commit(cfg, commit_env);
    if (!commit) return std::nullopt;
    if (commit->id != msg->id) return std::nullopt;
    if (!seen.insert(commit->server).second) return std::nullopt;  // must be different servers
  }
  return msg;
}

std::optional<ContributeMsg> check_contribute(const SystemConfig& cfg, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;

  // I6: the embedded reveal must be from the contribute's own config epoch.
  if (msg->reveal.cfg_epoch != env.cfg_epoch) return std::nullopt;

  // (iii) the encrypted contribution corresponds to the commitment in the
  // included reveal message (which must itself be valid, with matching id).
  auto reveal = check_reveal(cfg, msg->reveal);
  if (!reveal || reveal->id != msg->id) return std::nullopt;
  bool committed = false;
  for (const SignedMessage& commit_env : reveal->commits) {
    auto commit = try_decode<CommitMsg>(cfg, MsgType::kCommit, commit_env.body);
    if (commit && commit->server == msg->server) {
      committed = commit->commitment == msg->contribution.commitment_digest();
      break;
    }
  }
  if (!committed) return std::nullopt;

  // (ii) valid verifiable dual encryption proof, bound to (instance, server).
  if (!zkp::vde_verify(cfg.a.encryption_key, msg->contribution.ea, cfg.b.encryption_key,
                       msg->contribution.eb, msg->vde, vde_context(msg->id, msg->server)))
    return std::nullopt;
  return msg;
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

bool check_blind_sign_request(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                              std::span<const std::uint8_t> evidence) {
  auto blind = [&]() -> std::optional<BlindPayload> {
    return try_decode<BlindPayload>(cfg, MsgType::kBlind, payload);
  }();
  if (!blind) return false;
  BlindEvidence ev;
  try {
    Reader r(evidence, &cfg.params);
    ev = BlindEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  // f+1 valid contribute messages, distinct servers, same id, same reveal.
  if (ev.contributes.size() != cfg.b.cfg.quorum()) return false;
  std::set<ServerRank> servers;
  std::vector<elgamal::Ciphertext> eas, ebs;
  const SignedMessage* reveal = nullptr;
  for (const SignedMessage& env : ev.contributes) {
    // I6: the f+1 contributions must all be stamped with one config epoch.
    if (env.cfg_epoch != ev.contributes.front().cfg_epoch) return false;
    auto c = check_contribute(cfg, env);
    if (!c) return false;
    if (c->id != blind->id) return false;
    if (!servers.insert(c->server).second) return false;
    if (reveal == nullptr) {
      reveal = &env;  // remember the first; compare the rest below
    }
    eas.push_back(c->contribution.ea);
    ebs.push_back(c->contribution.eb);
  }
  // Same-reveal rule (see header comment): compare the embedded reveal of
  // every contribute message for byte-for-byte equality.
  std::optional<ContributeMsg> first =
      try_decode<ContributeMsg>(cfg, MsgType::kContribute, ev.contributes.front().body);
  if (!first) return false;
  for (const SignedMessage& env : ev.contributes) {
    auto c = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
    if (!c || !(c->reveal == first->reveal)) return false;
  }

  // The payload must be exactly the homomorphic product of the evidence
  // contributions (and non-degenerate, per the ElGamal Multiplication side
  // condition).
  auto ea = cfg.a.encryption_key.product(eas);
  auto eb = cfg.b.encryption_key.product(ebs);
  if (!ea || !eb) return false;
  return *ea == blind->blinded.ea && *eb == blind->blinded.eb;
}

namespace {

using SigBatch = std::vector<zkp::BatchEntry>;

// Owns the epoch-prefixed byte strings referenced (as spans) by SigBatch
// entries. A deque keeps element addresses stable across growth, which the
// spans inside zkp::BatchEntry rely on.
using SignedBytesArena = std::deque<std::vector<std::uint8_t>>;

std::span<const std::uint8_t> arena_signed_bytes(SignedBytesArena& arena, const SignedMessage& env) {
  arena.push_back(epoch_signed_bytes(env.cfg_epoch, env.body));
  return arena.back();
}

// Structural part of check_commit: everything except the envelope signature,
// which is appended to `sigs` for one combined Schnorr batch check.
std::optional<CommitMsg> collect_commit(const SystemConfig& cfg, const SignedMessage& env,
                                        ConfigEpoch expect_epoch, SigBatch& sigs,
                                        SignedBytesArena& arena) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  if (env.cfg_epoch != expect_epoch) return std::nullopt;  // I6
  auto msg = try_decode<CommitMsg>(cfg, MsgType::kCommit, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;
  sigs.push_back({&cfg.b.server_key(env.signer), arena_signed_bytes(arena, env), &env.sig});
  return msg;
}

// Structural part of check_reveal; all 2f+2 signatures (the reveal envelope
// plus its commits) go into `sigs`.
std::optional<RevealMsg> collect_reveal(const SystemConfig& cfg, const SignedMessage& env,
                                        ConfigEpoch expect_epoch, SigBatch& sigs,
                                        SignedBytesArena& arena) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  if (env.cfg_epoch != expect_epoch) return std::nullopt;  // I6
  auto msg = try_decode<RevealMsg>(cfg, MsgType::kReveal, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->id.coordinator) return std::nullopt;
  sigs.push_back({&cfg.b.server_key(env.signer), arena_signed_bytes(arena, env), &env.sig});
  const std::size_t need = 2 * cfg.b.cfg.f + 1;
  if (msg->commits.size() != need) return std::nullopt;
  std::set<ServerRank> seen;
  for (const SignedMessage& commit_env : msg->commits) {
    auto commit = collect_commit(cfg, commit_env, expect_epoch, sigs, arena);
    if (!commit) return std::nullopt;
    if (commit->id != msg->id) return std::nullopt;
    if (!seen.insert(commit->server).second) return std::nullopt;
  }
  return msg;
}

// The commitment-match clause of check_contribute: `server` committed, in the
// (already structurally valid) reveal, to this contribution.
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

std::optional<ContributeMsg> check_contribute_batch(const SystemConfig& cfg,
                                                    const SignedMessage& env, mpz::Prng& prng) {
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer == 0 || env.signer > cfg.b.cfg.n) return std::nullopt;
  auto msg = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
  if (!msg) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;

  SigBatch sigs;
  SignedBytesArena arena;
  sigs.push_back({&cfg.b.server_key(env.signer), arena_signed_bytes(arena, env), &env.sig});
  auto reveal = collect_reveal(cfg, msg->reveal, env.cfg_epoch, sigs, arena);
  if (!reveal || reveal->id != msg->id) return std::nullopt;
  if (!commitment_matches(cfg, *reveal, msg->server, *msg)) return std::nullopt;
  if (!zkp::schnorr_batch_verify(cfg.params, sigs)) return std::nullopt;
  const zkp::VdeBatchItem vde{&cfg.a.encryption_key, &msg->contribution.ea,
                              &cfg.b.encryption_key, &msg->contribution.eb,
                              &msg->vde,             vde_context(msg->id, msg->server)};
  if (!zkp::vde_batch_verify(std::span<const zkp::VdeBatchItem>(&vde, 1), prng))
    return std::nullopt;
  return msg;
}

bool check_blind_sign_request_batch(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                                    std::span<const std::uint8_t> evidence, mpz::Prng& prng) {
  auto blind = try_decode<BlindPayload>(cfg, MsgType::kBlind, payload);
  if (!blind) return false;
  BlindEvidence ev;
  try {
    Reader r(evidence, &cfg.params);
    ev = BlindEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  if (ev.contributes.size() != cfg.b.cfg.quorum()) return false;
  SigBatch sigs;
  SignedBytesArena arena;
  std::vector<ContributeMsg> msgs;
  msgs.reserve(ev.contributes.size());
  std::set<ServerRank> servers;
  const ConfigEpoch epoch = ev.contributes.front().cfg_epoch;
  for (const SignedMessage& env : ev.contributes) {
    if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return false;
    if (env.signer == 0 || env.signer > cfg.b.cfg.n) return false;
    if (env.cfg_epoch != epoch) return false;  // I6: one config epoch per quorum
    auto c = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
    if (!c) return false;
    if (env.signer != c->server) return false;
    if (c->id != blind->id) return false;
    if (!servers.insert(c->server).second) return false;
    sigs.push_back({&cfg.b.server_key(env.signer), arena_signed_bytes(arena, env), &env.sig});
    msgs.push_back(std::move(*c));
  }

  // Same-reveal rule first: with all embedded reveals byte-identical, the
  // shared reveal (and its 2f+1 commits) needs validating only once — the
  // serial path re-checks it per contribute.
  const ContributeMsg& first = msgs.front();
  for (const ContributeMsg& c : msgs) {
    if (!(c.reveal == first.reveal)) return false;
  }
  auto reveal = collect_reveal(cfg, first.reveal, epoch, sigs, arena);
  if (!reveal || reveal->id != blind->id) return false;
  for (const ContributeMsg& c : msgs) {
    if (!commitment_matches(cfg, *reveal, c.server, c)) return false;
  }
  if (!zkp::schnorr_batch_verify(cfg.params, sigs)) return false;

  std::vector<zkp::VdeBatchItem> vdes;
  vdes.reserve(msgs.size());
  for (const ContributeMsg& c : msgs) {
    vdes.push_back({&cfg.a.encryption_key, &c.contribution.ea, &cfg.b.encryption_key,
                    &c.contribution.eb, &c.vde, vde_context(c.id, c.server)});
  }
  if (!zkp::vde_batch_verify(vdes, prng)) return false;

  std::vector<elgamal::Ciphertext> eas, ebs;
  for (const ContributeMsg& c : msgs) {
    eas.push_back(c.contribution.ea);
    ebs.push_back(c.contribution.eb);
  }
  auto ea = cfg.a.encryption_key.product(eas);
  auto eb = cfg.b.encryption_key.product(ebs);
  if (!ea || !eb) return false;
  return *ea == blind->blinded.ea && *eb == blind->blinded.eb;
}

bool check_done_sign_request_batch(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                                   std::span<const std::uint8_t> evidence,
                                   const elgamal::Ciphertext& stored_ea_m, mpz::Prng& prng) {
  auto done = try_decode<DonePayload>(cfg, MsgType::kDone, payload);
  if (!done) return false;
  DoneEvidence ev;
  try {
    Reader r(evidence, &cfg.params);
    ev = DoneEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  auto blind = check_blind(cfg, ev.blind);
  if (!blind || blind->id != done->id) return false;

  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  if (ev.shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  for (const threshold::DecryptionShare& s : ev.shares) {
    if (!seen.insert(s.index).second) return false;
  }
  if (!threshold::batch_verify_decryption_shares(cfg.params, cfg.a.enc_commitments, *ea_m_rho,
                                                 ev.shares, decrypt_context(done->id), prng))
    return false;
  group::Element m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev.shares);
  if (m_rho != ev.m_rho) return false;
  if (!cfg.params.in_zp_star(m_rho)) return false;

  if (!(done->ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done->eb_m == expect_eb_m;
}

bool check_done_sign_request(const SystemConfig& cfg, std::span<const std::uint8_t> payload,
                             std::span<const std::uint8_t> evidence,
                             const elgamal::Ciphertext& stored_ea_m) {
  auto done = try_decode<DonePayload>(cfg, MsgType::kDone, payload);
  if (!done) return false;
  DoneEvidence ev;
  try {
    Reader r(evidence, &cfg.params);
    ev = DoneEvidence::decode(r);
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }

  auto blind = check_blind(cfg, ev.blind);
  if (!blind || blind->id != done->id) return false;

  // Recompute E_A(mρ) from the locally stored E_A(m) (step 6(a)).
  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  // V^id_mρ: f+1 verified decryption shares combining to mρ (step 6(b)).
  if (ev.shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  for (const threshold::DecryptionShare& s : ev.shares) {
    if (!seen.insert(s.index).second) return false;
    if (!threshold::verify_decryption_share(cfg.params, cfg.a.enc_commitments, *ea_m_rho, s,
                                            decrypt_context(done->id)))
      return false;
  }
  group::Element m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev.shares);
  if (m_rho != ev.m_rho) return false;
  if (!cfg.params.in_zp_star(m_rho)) return false;

  // Payload consistency (steps 6(c)/6(d)): E_A(m) is the stored ciphertext
  // and E_B(m) = (mρ)·E_B(ρ)^{-1}.
  if (!(done->ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done->eb_m == expect_eb_m;
}

}  // namespace dblind::core
