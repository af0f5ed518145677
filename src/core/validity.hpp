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
  return parsed_or_nullopt([&] {
    Reader r(bytes, &cfg.params);
    T value = T::decode(r);
    r.expect_done();
    return value;
  });
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

// Fig. 5 row "init": returns the decoded message iff valid.
[[nodiscard]] std::optional<InitMsg> check_init(const SystemConfig& cfg, const SignedMessage& env);

// Fig. 5 row "commit".
[[nodiscard]] std::optional<CommitMsg> check_commit(const SystemConfig& cfg,
                                                    const SignedMessage& env);

// Fig. 5 row "reveal": signature + 2f+1 different valid commits, matching id.
[[nodiscard]] std::optional<RevealMsg> check_reveal(const SystemConfig& cfg,
                                                    const SignedMessage& env);

// Fig. 5 row "contribute": signature + valid VDE + contribution matches the
// commitment inside the embedded (valid) reveal message.
[[nodiscard]] std::optional<ContributeMsg> check_contribute(const SystemConfig& cfg,
                                                            const SignedMessage& env);

// Fig. 5 row "blind": threshold signature of service B over a BlindPayload.
[[nodiscard]] std::optional<BlindPayload> check_blind(const SystemConfig& cfg,
                                                      const ServiceSignedMsg& msg);

// "done": threshold signature of service A over a DonePayload.
[[nodiscard]] std::optional<DonePayload> check_done(const SystemConfig& cfg,
                                                    const ServiceSignedMsg& msg);

// Evidence for a kBlind signing request (step 5(c)): f+1 valid contribute
// messages from distinct servers, same id, all embedding the same reveal,
// whose combined contribution equals the payload.
[[nodiscard]] bool check_blind_sign_request(const SystemConfig& cfg,
                                            std::span<const std::uint8_t> payload,
                                            std::span<const std::uint8_t> evidence);

// Evidence for a kDone signing request (step 6(d)): valid blind message,
// f+1 verified decryption shares for E_A(mρ) = E_A(m) × E_A(ρ) (computed
// against the locally stored E_A(m)) combining to mρ, and a payload equal to
// (id, E_A(m), (mρ)·E_B(ρ)^{-1}).
[[nodiscard]] bool check_done_sign_request(const SystemConfig& cfg,
                                           std::span<const std::uint8_t> payload,
                                           std::span<const std::uint8_t> evidence,
                                           const elgamal::Ciphertext& stored_ea_m);

// --- batch verification (the only production path) --------------------------
//
// ProtocolServer checks contribute messages and signing requests only through
// the *_batch functions below; the serial check_contribute,
// check_blind_sign_request and check_done_sign_request above stay as the
// Fig. 5 reference that tests and bench_fig5_validation compare against.
// Each *_batch function checks exactly the predicates of its serial
// counterpart, but verifies all envelope/commit signatures in one Schnorr
// batch equation and all Chaum-Pedersen/VDE/decryption-share proofs in one
// random-linear-combination multi-exponentiation (randomizers from `prng`).
// check_blind_sign_request_batch additionally exploits the same-reveal rule:
// the byte-identical reveal embedded in all f+1 contributes is validated
// once instead of f+1 times. Accept/reject agrees with the serial functions
// up to the 2^-128 batch soundness error (docs/PROTOCOL.md).

[[nodiscard]] std::optional<ContributeMsg> check_contribute_batch(const SystemConfig& cfg,
                                                                  const SignedMessage& env,
                                                                  mpz::Prng& prng);

[[nodiscard]] bool check_blind_sign_request_batch(const SystemConfig& cfg,
                                                  std::span<const std::uint8_t> payload,
                                                  std::span<const std::uint8_t> evidence,
                                                  mpz::Prng& prng);

[[nodiscard]] bool check_done_sign_request_batch(const SystemConfig& cfg,
                                                 std::span<const std::uint8_t> payload,
                                                 std::span<const std::uint8_t> evidence,
                                                 const elgamal::Ciphertext& stored_ea_m,
                                                 mpz::Prng& prng);

}  // namespace dblind::core
