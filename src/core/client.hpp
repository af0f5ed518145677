// ClientNode: an end-user of the two-service system (library extension).
//
// The paper's architecture keeps clients outside the services' key universe:
// a client knows only the SERVICE public keys. This node exercises the whole
// pipeline without any test oracle:
//
//   1. publish:  encrypt m under K_A, send a transfer request to every A
//      server (which stores E_A(m)) and every B server (which registers the
//      transfer and starts the re-encryption protocol);
//   2. poll:     periodically ask B servers for the transfer's result and
//      verify the service-signed `done` message with K_B alone;
//   3. retrieve: ask B's servers for threshold-decryption shares of the
//      chosen E_B(m), verify each share proof against B's public Feldman
//      commitments, and combine f+1 of them into the plaintext. While
//      shares are missing, the client also hands every B server the chosen
//      `done`: a B server decrypts only what a done it holds names, and one
//      that recorded another transfer result never pulls this one.
//
// Everything the client receives is self-verifying; nothing it learns lets
// it impersonate servers. B servers only produce decryption shares for
// ciphertexts that appear in a valid `done` message for the requested
// transfer, so the client-facing API is not a general decryption oracle.
#pragma once

#include <atomic>
#include <map>
#include <optional>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/sim.hpp"

namespace dblind::core {

class ClientNode final : public net::Node {
 public:
  // The client will publish `m` (a group element) as transfer `transfer`.
  // Pick transfer ids that do not collide with other publishers.
  ClientNode(SystemConfig cfg, TransferId transfer, mpz::Bigint m,
             net::Time poll_interval = 50'000);

  // The recovered plaintext, once retrieval finished.
  [[nodiscard]] std::optional<mpz::Bigint> plaintext() const { return plaintext_; }
  // True once a valid service-signed done message was received.
  [[nodiscard]] bool have_result() const { return chosen_.has_value(); }
  // Race-free completion flag for cross-thread polling (net::ThreadedBus):
  // once true, stop the transport and read plaintext() safely.
  [[nodiscard]] bool finished() const { return finished_.load(std::memory_order_acquire); }

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, net::NodeId from, std::span<const std::uint8_t> bytes) override;
  void on_timer(net::Context& ctx, std::uint64_t token) override;

 private:
  // Sends `body` as a client frame to every server of `svc`.
  static void send_all(net::Context& ctx, const ServicePublic& svc,
                       const std::vector<std::uint8_t>& body);

  SystemConfig cfg_;
  TransferId transfer_;
  mpz::Bigint m_;
  net::Time poll_interval_;
  std::optional<elgamal::Ciphertext> chosen_;  // the E_B(m) we are decrypting
  std::map<std::uint32_t, threshold::DecryptionShare> shares_;
  std::optional<mpz::Bigint> plaintext_;
  std::atomic<bool> finished_{false};
  // Cached request bodies, re-sent verbatim on every poll tick until the
  // protocol answers. Re-encrypting m on a publish retry would hand A servers
  // divergent E_A(m) ciphertexts (first writer wins, so some servers would
  // hold a ciphertext the others refuse to corroborate).
  std::vector<std::uint8_t> publish_body_;
  std::vector<std::uint8_t> decrypt_request_body_;
  std::vector<std::uint8_t> chosen_done_body_;  // the result reply we chose
};

// Context string for client-driven threshold decryption at B.
[[nodiscard]] std::string client_decrypt_context(TransferId transfer);

}  // namespace dblind::core
