// Threshold-signing sessions (steps 5(c), 6(d)); the paper leaves this
// substrate open, and its round structure lives here and nowhere else. Roles
// call start() and get the ServiceSignature back from on_partial().
//
// Requester: the first 2f+1 nonce commitments fix a quorum of f+1, whose
// reveals go back out as one set; f+1 valid partials combine. A stalled
// session retries without its stallers; a bad partial excludes its signer.
// Member: commits to a fresh nonce once per session and keeps the request's
// evidence; when a quorum names it, it checks the evidence (Fig. 5) and
// reveals only if the check passes, and a quorum that leaves it out, or a
// failed check, releases nonce and evidence. It signs at most once, and
// answers every duplicate with the bytes it sent first (a fresh nonce for
// the same session would be nonce reuse across equivocating requesters).
// The requester's own member session checks nothing: it built the payload
// from messages it had already checked, and every f+1 quorum around a
// Byzantine requester holds an honest member that checks (DESIGN.md,
// "Sign-request evidence, checked in the quorum").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/local.hpp"
#include "threshold/thresh_sign.hpp"

namespace dblind::core {

// A finished service signature over a role's payload for instance `id`.
struct ServiceSignature {
  SignPurpose purpose{};
  InstanceId id;
  ServiceSignedMsg msg;
};

class Signing {
 public:
  // A session that stalls is retried after `retry_delay`, doubled per retry
  // up to 16×.
  Signing(Behavior behavior, net::Time retry_delay)
      : behavior_(behavior), retry_delay_(retry_delay) {}

  // Requester: asks this server's service to sign `payload`, the payload of
  // instance `id`, justified by `evidence`.
  void start(const Local& l, SignPurpose purpose, std::vector<std::uint8_t> payload,
             std::vector<std::uint8_t> evidence, const InstanceId& id);
  void on_commit_reply(const Local& l, const SignedMessage& env);
  void on_reveal_reply(const Local& l, const SignedMessage& env);
  // The last partial of a session returns its signature and erases it.
  [[nodiscard]] std::optional<ServiceSignature> on_partial(const Local& l,
                                                           const SignedMessage& env);
  // timer::kSignRetry: the session stalled.
  void on_retry_timer(const Local& l, std::uint64_t session, const ResultMap& results);

  // Member.
  void on_request(const Local& l, const SignedMessage& env, const Ledger& ledger);
  void on_quorum(const Local& l, const SignedMessage& env, const Ledger& ledger);
  void on_reveal_set(const Local& l, const SignedMessage& env);
  // Sessions still holding a nonce k_i (and a copy of the key share): those
  // that have neither produced their partial nor been left out of a quorum,
  // nor failed their evidence check.
  [[nodiscard]] std::size_t nonces_held() const;
  // Sessions still holding a request's evidence: those no quorum has named
  // or left out yet.
  [[nodiscard]] std::size_t evidence_held() const;
  // Requester sessions still running (see ProtocolServer::signing_sessions_held).
  [[nodiscard]] std::size_t sessions_held() const { return sessions_.size(); }

  void reset() {
    sessions_.clear();
    members_.clear();
  }

 private:
  struct Session {
    SignPurpose purpose{};
    InstanceId id;
    bool cancel_on_result = false;  // B: a result for `id.transfer` moots it
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> evidence;
    std::set<ServerRank> excluded;
    int attempt = 0;
    std::map<ServerRank, threshold::NonceCommitment> commits;
    std::vector<threshold::NonceCommitment> quorum;
    std::map<ServerRank, threshold::NonceReveal> reveals;
    std::map<ServerRank, threshold::PartialSignature> partials;
    std::uint64_t round_resend = 0;  // retransmits the current round's broadcast
  };
  // What a member checks once a quorum names it (Fig. 5).
  struct Evidence {
    std::vector<std::uint8_t> bytes;
    std::optional<DonePayload> done;  // a kDone request's payload, decoded once
  };
  struct MemberSession {
    std::vector<std::uint8_t> payload;
    // None for the requester's own session; released when a quorum names
    // this member (after the check) or leaves it out.
    std::optional<Evidence> evidence;
    std::vector<threshold::NonceCommitment> quorum;
    // Null once the partial is sent, the quorum left this member out or the
    // evidence failed its check.
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
  // Self-verification of a signing request (§4.2.3), counted and traced as
  // one verdict on the requester `env.signer`.
  static bool evidence_ok(const Local& l, const SignedMessage& env,
                          std::span<const std::uint8_t> payload, const Evidence& ev,
                          const Ledger& ledger);

  Behavior behavior_;
  net::Time retry_delay_;
  std::map<std::uint64_t, Session> sessions_;  // ours, by session id
  std::uint64_t next_session_ = 1;
  std::map<std::pair<net::NodeId, std::uint64_t>, MemberSession> members_;  // by requester
};

}  // namespace dblind::core
