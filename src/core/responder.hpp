// Service A's side of Fig. 4 (step 6): a responder turns B's blind message
// into E_A(mρ), has A decrypt it, un-blinds to E_B(m) and has A sign done.
// It acts on B's blind messages alone and arms no timer: rank 1 answers an
// instance's first blind at once, a backup of rank j in 2..f+1 answers a
// blind that arrives (j-1)·backup_delay after the first blind of its transfer
// (§4.1's idea), and every A member shares a decryption of any justified
// request.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/local.hpp"
#include "core/signing.hpp"

namespace dblind::core {

class Responder {
 public:
  explicit Responder(net::Time backup_delay) : backup_delay_(backup_delay) {}

  // A blind message from `from`. A byte-identical repeat of a blind this
  // server answered gets its done frame back; one it is still answering is
  // dropped. Both are looked up before the signature check.
  void on_blind(const Local& l, net::NodeId from, const ServiceSignedMsg& msg,
                const Ledger& ledger);
  void on_decrypt_request(const Local& l, const SignedMessage& env, const Ledger& ledger);
  void on_share_reply(const Local& l, const SignedMessage& env, const Ledger& ledger,
                      Signing& signing);
  // Step 6(e): A signed a done payload; l → B, once.
  void on_signed(const Local& l, const ServiceSignature& sig);
  // Replays the blind messages that arrived before their E_A(m).
  void replay_parked(const Local& l, const Ledger& ledger);
  // Responders that have not sent done (an install aborts them).
  void unfinished(std::vector<InstanceId>& out) const;

  void reset() {
    responders_.clear();
    first_blind_.clear();
    parked_.clear();
    reply_frames_.clear();
  }

 private:
  // Step 6 in progress, released once the done is out.
  struct Decryption {
    BlindPayload blind;
    elgamal::Ciphertext ea_m_rho;
    std::map<std::uint32_t, threshold::DecryptionShare> shares;
    bool signing = false;
    std::uint64_t resend = 0;  // retransmits the decrypt-request round
    // Phase timestamps (observability only).
    net::Time t_begin = 0;      // decrypt round opened
    net::Time t_done_sign = 0;  // f+1 valid replies, done signing began
  };
  // One per instance this server started to answer.
  struct ResponderState {
    ServiceSignedMsg blind_env;  // the blind it answers
    // Set while step 6 runs: never if E_A(mρ) was degenerate, and no more
    // once the done is out.
    std::optional<Decryption> decrypt;
    Frame done_frame;  // sent to B once; empty until then
  };
  void start(const Local& l, const ServiceSignedMsg& msg, const BlindPayload& blind,
             const Ledger& ledger);

  net::Time backup_delay_;
  std::map<InstanceId, ResponderState> responders_;
  // When this server received each transfer's first blind: a backup's clock.
  std::map<TransferId, net::Time> first_blind_;
  std::vector<std::pair<net::NodeId, ServiceSignedMsg>> parked_;
  // Share replies by (instance, requester rank): duplicates get these bytes.
  std::map<std::pair<InstanceId, ServerRank>, Frame> reply_frames_;
};

}  // namespace dblind::core
