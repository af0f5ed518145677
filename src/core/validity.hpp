// Validity of self-verifying messages (paper Figure 5, §4.2.3).
//
// "A valid message is, by definition, one that is consistent with the sender
// following the protocol. Thus, if messages that are not valid are ignored
// then attacks involving bogus messages become indistinguishable from lost
// messages."
//
// Each check below validates a message purely from its contents plus public
// configuration — including, recursively, all embedded evidence:
//   init        — correctly signed (by the coordinator named in id).
//   commit      — correctly signed (by the server it names).
//   reveal      — correctly signed and contains 2f+1 *different* valid
//                 commit messages with matching id.
//   contribute  — correctly signed, includes a valid verifiable dual
//                 encryption proof, and the encrypted contribution matches
//                 the commitment in the included reveal message.
//   blind/done  — correctly (threshold-)signed by the service.
//
// One rule beyond the paper's figure (implied by its §4.2.1 argument): the
// f+1 contribute messages justifying a blind payload must all embed the SAME
// reveal message. Otherwise a Byzantine coordinator can run two reveal
// rounds, let a compromised server commit *after* seeing contributions from
// the first round, and splice rounds together to choose the blinding factor.
// Together with the honest-server rule "contribute to at most one reveal per
// instance", same-reveal evidence restores the commit-before-reveal order.
//
// Each row has one implementation, the one servers run. A check first applies
// every structural rule, then verifies all the envelope and commit signatures
// it collected in one Schnorr batch equation (a lone commit signature is
// verified on its own), then all VDE and decryption-share proofs in one
// random-linear-combination multi-exponentiation (randomizers from `prng`).
// check_blind_sign_request applies the same-reveal rule first, so the reveal
// its f+1 contributes share is validated once. The verdicts agree with the
// serial Fig. 5 reference in tests/core/fig5_oracle.hpp, which checks each
// signature and proof on its own, up to the 2^-128 batch soundness error
// (docs/PROTOCOL.md).
#pragma once

#include <optional>
#include <span>
#include <stdexcept>

#include "core/config.hpp"
#include "core/messages.hpp"

namespace dblind::core {

// The bytes a ⟨m⟩_i signature actually covers: 4-byte little-endian config
// epoch, then the body. Binding the stamp into the signed bytes means an
// envelope can never be re-stamped into another configuration.
[[nodiscard]] std::vector<std::uint8_t> epoch_signed_bytes(ConfigEpoch epoch,
                                                           std::span<const std::uint8_t> body);

// Verifies the envelope signature against the named server's public key,
// over the epoch-prefixed bytes. False on unknown service/rank.
[[nodiscard]] bool envelope_signature_ok(const SystemConfig& cfg, const SignedMessage& env);

// Signs `body` with this server's key, producing the ⟨m⟩_i envelope stamped
// with (and signature-bound to) `cfg_epoch`.
[[nodiscard]] SignedMessage make_envelope(const ServerSecrets& me, std::vector<std::uint8_t> body,
                                          ConfigEpoch cfg_epoch, mpz::Prng& prng);

// --- the parse helpers ---------------------------------------------------------
//
// Every handler parses through these: a message that does not decode (or, for
// parse_signed, is not correctly signed by the service it must come from) is
// nullopt, and the handler ignores it, indistinguishably from loss.

// `parse()`'s value, or nullopt on any codec error.
template <typename Parse>
[[nodiscard]] auto parsed_or_nullopt(Parse&& parse) -> std::optional<decltype(parse())> {
  try {
    return parse();
  } catch (const CodecError&) {
    return std::nullopt;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// Decodes `body` as T (tag `type`, element fields decoded in the configured
// group once).
template <typename T>
[[nodiscard]] std::optional<T> try_decode(const SystemConfig& cfg, MsgType type,
                                          std::span<const std::uint8_t> body) {
  return parsed_or_nullopt([&] { return decode_as<T>(type, body, cfg.params); });
}

// The untagged twin, for evidence blobs.
template <typename T>
[[nodiscard]] std::optional<T> try_read(const SystemConfig& cfg,
                                        std::span<const std::uint8_t> bytes) {
  return parsed_or_nullopt([&] { return group::from_bytes<T>(bytes, &cfg.params); });
}

// try_decode of an envelope's body, after its signature verifies and, when
// `from` is given, its signer belongs to that service.
template <typename T>
[[nodiscard]] std::optional<T> parse_signed(const SystemConfig& cfg, const SignedMessage& env,
                                            MsgType type,
                                            std::optional<ServiceRole> from = std::nullopt) {
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  if (from && env.service != static_cast<std::uint8_t>(*from)) return std::nullopt;
  return try_decode<T>(cfg, type, env.body);
}

// Fig. 5 row "init". `msg` is env.body decoded (try_decode<InitMsg>): a
// contributor decodes an init to look its instance up before it pays for the
// signature.
[[nodiscard]] bool check_init(const SystemConfig& cfg, const SignedMessage& env,
                              const InitMsg& msg);

// Fig. 5 row "commit".
[[nodiscard]] std::optional<CommitMsg> check_commit(const SystemConfig& cfg,
                                                    const SignedMessage& env);

// Fig. 5 row "reveal": signature + 2f+1 different valid commits, matching id.
// `msg` is env.body decoded (try_decode<RevealMsg>): a contributor decodes a
// reveal to look its instance up before it pays for any signature.
[[nodiscard]] bool check_reveal(const SystemConfig& cfg, const SignedMessage& env,
                                const RevealMsg& msg);

// Fig. 5 row "contribute": signature + valid VDE + contribution matches the
// commitment inside the embedded (valid) reveal message. `msg` is env.body
// decoded (try_decode<ContributeMsg>): a coordinator decodes a contribute to
// look its instance up before it pays for any check.
[[nodiscard]] bool check_contribute(const SystemConfig& cfg, const SignedMessage& env,
                                    const ContributeMsg& msg, mpz::Prng& prng);

// Fig. 5 row "blind": threshold signature of service B over a BlindPayload.
[[nodiscard]] std::optional<BlindPayload> check_blind(const SystemConfig& cfg,
                                                      const ServiceSignedMsg& msg);

// "done": threshold signature of service A over a DonePayload.
[[nodiscard]] std::optional<DonePayload> check_done(const SystemConfig& cfg,
                                                    const ServiceSignedMsg& msg);

// Evidence for a kBlind signing request (step 5(c)): f+1 valid contribute
// messages from distinct servers, same id, all embedding the same reveal,
// whose combined contribution equals the payload. Returns the payload's
// instance iff valid.
[[nodiscard]] std::optional<InstanceId> check_blind_sign_request(
    const SystemConfig& cfg, std::span<const std::uint8_t> payload,
    std::span<const std::uint8_t> evidence, mpz::Prng& prng);

// Evidence for a kDone signing request (step 6(d)): valid blind message,
// f+1 verified decryption shares for E_A(mρ) = E_A(m) × E_A(ρ) (computed
// against the locally stored E_A(m)) combining to mρ, and a payload equal to
// (id, E_A(m), (mρ)·E_B(ρ)^{-1}). `done` is the request's payload decoded
// (try_decode<DonePayload>): a member decodes it once, to find its E_A(m).
[[nodiscard]] bool check_done_sign_request(const SystemConfig& cfg, const DonePayload& done,
                                           std::span<const std::uint8_t> evidence,
                                           const elgamal::Ciphertext& stored_ea_m,
                                           mpz::Prng& prng);

}  // namespace dblind::core
