// Threshold-signing sessions (steps 5(c), 6(d)); the paper leaves this
// substrate open, and its round structure lives here and nowhere else. Roles
// call start() and get the ServiceSignature back from on_partial().
//
// Requester: the first 2f+1 nonce commitments fix a quorum of f+1, whose
// reveals go back out as one set; f+1 valid partials combine. A stalled
// session retries without its stallers; a bad partial excludes its signer.
// Member: checks the evidence (Fig. 5), commits to a fresh nonce once per
// session, reveals only inside a quorum, signs at most once, and answers
// every duplicate with the bytes it sent first (a fresh nonce for the same
// session would be nonce reuse across equivocating requesters).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/local.hpp"
#include "threshold/thresh_sign.hpp"

namespace dblind::core {

// A finished service signature over a role's payload.
struct ServiceSignature {
  SignPurpose purpose{};
  TransferId transfer = 0;
  ServiceSignedMsg msg;
};

class Signing {
 public:
  Signing(Behavior behavior, net::Time retry_delay, bool retransmit)
      : behavior_(behavior), retry_delay_(retry_delay), retransmit_(retransmit) {}

  // Requester: asks this server's service to sign `payload`, justified by
  // `evidence`.
  void start(const Local& l, SignPurpose purpose, std::vector<std::uint8_t> payload,
             std::vector<std::uint8_t> evidence, TransferId transfer);
  void on_commit_reply(const Local& l, const SignedMessage& env);
  void on_reveal_reply(const Local& l, const SignedMessage& env);
  [[nodiscard]] std::optional<ServiceSignature> on_partial(const Local& l,
                                                           const SignedMessage& env);
  // timer::kSignRetry: the session stalled.
  void on_retry_timer(const Local& l, std::uint64_t session, const ResultMap& results);

  // Member.
  void on_request(const Local& l, const SignedMessage& env, const Ledger& ledger);
  void on_quorum(const Local& l, const SignedMessage& env);
  void on_reveal_set(const Local& l, const SignedMessage& env);
  // Sessions still holding a nonce k_i (and a copy of the key share): those
  // that have neither produced their partial nor been left out of a quorum.
  [[nodiscard]] std::size_t nonces_held() const;

  void reset() {
    sessions_.clear();
    members_.clear();
  }

 private:
  struct Session {
    SignPurpose purpose{};
    TransferId transfer = 0;
    bool cancel_on_result = false;  // B: a result for `transfer` moots it
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> evidence;
    std::set<ServerRank> excluded;
    int attempt = 0;
    std::map<ServerRank, threshold::NonceCommitment> commits;
    std::vector<threshold::NonceCommitment> quorum;
    std::map<ServerRank, threshold::NonceReveal> reveals;
    std::map<ServerRank, threshold::PartialSignature> partials;
    bool done = false;
    std::uint64_t round_resend = 0;  // retransmits the current round's broadcast
  };
  struct MemberSession {
    std::vector<std::uint8_t> payload;
    std::vector<threshold::NonceCommitment> quorum;
    // Null once the partial is sent or the quorum left this member out.
    std::unique_ptr<threshold::SigningMember> member;
    bool responded = false;
    // Cached signed frames, re-sent verbatim on duplicates.
    Frame commit_frame;
    Frame reveal_frame;
    Frame partial_frame;
    hash::Digest reveals_digest{};  // body digest of the reveal set we answered
  };

  // Opens a session under a fresh id (abandoned after f+2 attempts).
  void open(const Local& l, Session s);
  // Opens the next attempt of `s` with `excluded` left out.
  void retry(const Local& l, Session s, std::set<ServerRank> excluded);
  // Broadcasts one round message of `s` to the service and arms its resend.
  void broadcast_round(const Local& l, Session& s, std::vector<std::uint8_t> body);

  Behavior behavior_;
  net::Time retry_delay_;
  bool retransmit_;
  std::map<std::uint64_t, Session> sessions_;  // ours, by session id
  std::uint64_t next_session_ = 1;
  std::map<std::pair<net::NodeId, std::uint64_t>, MemberSession> members_;  // by requester
};

}  // namespace dblind::core
