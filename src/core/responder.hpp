// Service A's side of Fig. 4 (step 6): a responder turns B's blind message
// into E_A(mρ), has A decrypt it, un-blinds to E_B(m) and has A sign done.
// Rank 1 responds at once, ranks 2..f+1 after a backup delay (§4.1's idea);
// every A member shares a decryption of any justified request.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/local.hpp"
#include "core/signing.hpp"

namespace dblind::core {

class Responder {
 public:
  explicit Responder(net::Time backup_delay) : backup_delay_(backup_delay) {}

  void on_blind(const Local& l, const ServiceSignedMsg& msg, const Ledger& ledger);
  // timer::kResponder: a backup responder's delay ran out.
  void on_timer(const Local& l, std::uint64_t key, const Ledger& ledger);
  void on_decrypt_request(const Local& l, const SignedMessage& env, const Ledger& ledger);
  void on_share_reply(const Local& l, const SignedMessage& env, const Ledger& ledger,
                      Signing& signing);
  // Step 6(e): A signed a done payload; l → B.
  void on_signed(const Local& l, const ServiceSignature& sig);
  // Blind messages that arrived before their E_A(m), replayed once stored.
  [[nodiscard]] std::vector<ServiceSignedMsg> take_parked() { return std::exchange(parked_, {}); }
  // Responders that have not sent done (an install aborts them).
  void unfinished(std::vector<InstanceId>& out) const;

  void reset() {
    responders_.clear();
    seen_.clear();
    parked_.clear();
    reply_frames_.clear();
    timer_ids_.clear();
  }

 private:
  struct ResponderState {
    ServiceSignedMsg blind_env;
    BlindPayload blind;
    elgamal::Ciphertext ea_m_rho;
    std::map<std::uint32_t, threshold::DecryptionShare> shares;
    bool signing = false;
    bool sent_done = false;
    std::uint64_t decrypt_resend = 0;  // retransmits the decrypt-request round
    // Phase timestamps (observability only).
    net::Time t_begin = 0;      // decrypt round opened
    net::Time t_done_sign = 0;  // f+1 valid replies, done signing began
  };
  void start(const Local& l, const InstanceId& id, const Ledger& ledger);

  net::Time backup_delay_;
  std::map<InstanceId, ResponderState> responders_;
  std::set<InstanceId> seen_;  // instances already being responded to
  std::vector<ServiceSignedMsg> parked_;
  // Share replies by (instance, requester rank): duplicates get these bytes.
  std::map<std::pair<InstanceId, ServerRank>, Frame> reply_frames_;
  std::map<std::uint64_t, InstanceId> timer_ids_;
  std::uint64_t next_timer_ = 0;
};

}  // namespace dblind::core
