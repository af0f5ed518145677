// The serial Fig. 5 reference (paper Figure 5, §4.2.3): each row checked
// the way the figure reads, one signature and one proof at a time.
//
// src/core/validity.* holds the one implementation servers run, which
// verifies a message's signatures in one Schnorr batch and its proofs in one
// random linear combination. These serial checks are the oracle the tests
// compare it against on every case (validity_test, done_evidence_test,
// ValidityFuzz). They share only the envelope-signature, decode and service
// signature helpers with src/, never a row rule, so a broken rule in one
// cannot hide behind the same break in the other.
#pragma once

#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/validity.hpp"
#include "threshold/thresh_decrypt.hpp"
#include "zkp/vde.hpp"

namespace dblind::core::oracle {

inline std::optional<CommitMsg> check_commit(const SystemConfig& cfg, const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<CommitMsg>(cfg, MsgType::kCommit, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;
  return msg;
}

inline std::optional<RevealMsg> check_reveal(const SystemConfig& cfg, const SignedMessage& env) {
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
    auto commit = oracle::check_commit(cfg, commit_env);
    if (!commit) return std::nullopt;
    if (commit->id != msg->id) return std::nullopt;
    if (!seen.insert(commit->server).second) return std::nullopt;  // must be different servers
  }
  return msg;
}

inline std::optional<ContributeMsg> check_contribute(const SystemConfig& cfg,
                                                     const SignedMessage& env) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<ContributeMsg>(cfg, MsgType::kContribute, env.body);
  if (!msg) return std::nullopt;
  if (env.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) return std::nullopt;
  if (env.signer != msg->server) return std::nullopt;

  // I6: the embedded reveal must be from the contribute's own config epoch.
  if (msg->reveal.cfg_epoch != env.cfg_epoch) return std::nullopt;

  // (iii) the encrypted contribution corresponds to the commitment in the
  // included reveal message (which must itself be valid, with matching id).
  auto reveal = oracle::check_reveal(cfg, msg->reveal);
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

inline bool check_blind_sign_request(const SystemConfig& cfg,
                                     std::span<const std::uint8_t> payload,
                                     std::span<const std::uint8_t> evidence) {
  auto blind = [&]() -> std::optional<BlindPayload> {
    return try_decode<BlindPayload>(cfg, MsgType::kBlind, payload);
  }();
  if (!blind) return false;
  auto ev = try_read<BlindEvidence>(cfg, evidence);
  if (!ev) return false;

  // f+1 valid contribute messages, distinct servers, same id, same reveal.
  if (ev->contributes.size() != cfg.b.cfg.quorum()) return false;
  std::set<ServerRank> servers;
  std::vector<elgamal::Ciphertext> eas, ebs;
  const SignedMessage* reveal = nullptr;
  for (const SignedMessage& env : ev->contributes) {
    // I6: the f+1 contributions must all be stamped with one config epoch.
    if (env.cfg_epoch != ev->contributes.front().cfg_epoch) return false;
    auto c = oracle::check_contribute(cfg, env);
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
      try_decode<ContributeMsg>(cfg, MsgType::kContribute, ev->contributes.front().body);
  if (!first) return false;
  for (const SignedMessage& env : ev->contributes) {
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

inline bool check_done_sign_request(const SystemConfig& cfg,
                                    std::span<const std::uint8_t> payload,
                                    std::span<const std::uint8_t> evidence,
                                    const elgamal::Ciphertext& stored_ea_m) {
  auto done = try_decode<DonePayload>(cfg, MsgType::kDone, payload);
  if (!done) return false;
  auto ev = try_read<DoneEvidence>(cfg, evidence);
  if (!ev) return false;

  auto blind = check_blind(cfg, ev->blind);
  if (!blind || blind->id != done->id) return false;

  // Recompute E_A(mρ) from the locally stored E_A(m) (step 6(a)).
  auto ea_m_rho = cfg.a.encryption_key.multiply(stored_ea_m, blind->blinded.ea);
  if (!ea_m_rho) return false;

  // V^id_mρ: f+1 verified decryption shares combining to mρ (step 6(b)).
  if (ev->shares.size() != cfg.a.cfg.quorum()) return false;
  std::set<std::uint32_t> seen;
  for (const threshold::DecryptionShare& s : ev->shares) {
    if (!seen.insert(s.index).second) return false;
    if (!threshold::verify_decryption_share(cfg.params, cfg.a.enc_commitments, *ea_m_rho, s,
                                            decrypt_context(done->id)))
      return false;
  }
  group::Element m_rho = threshold::combine_decryption(cfg.params, *ea_m_rho, ev->shares);
  if (m_rho != ev->m_rho) return false;
  if (!cfg.params.in_group(m_rho)) return false;

  // Payload consistency (steps 6(c)/6(d)): E_A(m) is the stored ciphertext
  // and E_B(m) = (mρ)·E_B(ρ)^{-1}.
  if (!(done->ea_m == stored_ea_m)) return false;
  elgamal::Ciphertext expect_eb_m =
      cfg.b.encryption_key.juxtapose(m_rho, cfg.b.encryption_key.inverse(blind->blinded.eb));
  return done->eb_m == expect_eb_m;
}

}  // namespace dblind::core::oracle
