// Fig. 4 distributed blinding on service B (steps 1–5(d)):
//   - contributors commit to a fresh blinding contribution, then answer at
//     most one reveal with it and a VDE proof (steps 2 and 4);
//   - coordinator C_j announces an instance, reveals the first 2f+1
//     commitments, has B sign the combination of f+1 valid contributions and
//     sends the signed blind message to A (steps 1, 3, 5); ranks 2..f+1 are
//     backups started after a delay (§4.1);
//   - the two Byzantine coordinator attacks the validity rules defeat.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/contribution_bundle.hpp"
#include "core/local.hpp"
#include "core/signing.hpp"

namespace dblind::core {

class Blinding {
 public:
  explicit Blinding(Behavior behavior) : behavior_(behavior) {}

  // Draws this incarnation's root key for per-instance contribution streams:
  // a restarted server never replays the ρ of an instance it may already
  // have committed to.
  void new_incarnation(net::Context& ctx);

  // Contributor.
  void on_init(const Local& l, const SignedMessage& env);
  void on_reveal(const Local& l, const SignedMessage& env);
  // Step flexibility: builds the contribution bundle of `id` ahead of its init.
  void precompute(const Local& l, const InstanceId& id) { (void)contributor(l, id); }
  [[nodiscard]] std::size_t contributor_instances() const { return contributors_.size(); }

  // Coordinator: opens this server's instance `epoch` of `transfer`.
  void start(const Local& l, TransferId transfer, std::uint32_t epoch, Signing& signing);
  void on_commit(const Local& l, const SignedMessage& env);
  // Verifies a contribute on arrival; one answering this coordinator's
  // reveal counts toward the f+1 quorum.
  void on_contribute(const Local& l, const SignedMessage& env, Signing& signing);
  // Step 5(d): B signed a blind payload; C_j → A.
  void on_signed(const Local& l, const ServiceSignature& sig);
  // The next coordinator epoch per transfer. Durable: a restarted
  // coordinator must not reuse an epoch it may already have announced with
  // a different (lost) contribution set.
  [[nodiscard]] std::uint32_t next_epoch(TransferId transfer) const;
  [[nodiscard]] std::map<TransferId, std::uint32_t>& next_epochs() { return next_epoch_; }
  [[nodiscard]] const std::map<TransferId, std::uint32_t>& next_epochs() const {
    return next_epoch_;
  }
  // Coordinator instances whose transfer has no result (an install aborts
  // them).
  void unfinished(const ResultMap& results, std::vector<InstanceId>& out) const;
  // Service signatures this (Byzantine) coordinator obtained on fabricated
  // or spliced payloads.
  [[nodiscard]] int attack_successes() const { return attack_successes_; }

  void reset() {
    contributors_.clear();
    coordinators_.clear();
  }

 private:
  // Move-only: it owns the instance's single-use bundle secrets.
  struct ContributorState {
    Contribution contribution;  // the advertised (ea, eb)
    // ρ, the nonces, the announcements (finished in on_reveal) and the
    // consistent pair (ea, eb) the VDE proof is computed over. bundle.eb
    // equals contribution.eb for honest servers; kInconsistentContribution
    // advertises a different eb but must still attach a proof for the
    // consistent shadow pair.
    ContributionBundle bundle;
    bool committed = false;
    bool contributed = false;  // responded to (at most) one reveal
    // Cached signed frames, re-sent verbatim on duplicate init/reveal.
    Frame commit_frame;
    Frame contribute_frame;
    SignedMessage answered_reveal;  // the one reveal we responded to
  };
  struct CoordinatorState {
    InstanceId id;
    std::map<ServerRank, SignedMessage> commits;
    SignedMessage reveal_env;
    bool revealed = false;
    std::map<ServerRank, SignedMessage> contributes;
    bool signing = false;
    std::uint64_t init_resend = 0;  // retransmission keys (0 = none)
    std::uint64_t reveal_resend = 0;
    // Phase timestamps (observability only; never read by protocol logic).
    net::Time t_start = 0;   // instance opened
    net::Time t_reveal = 0;  // 2f+1 commits reached, reveal broadcast
    net::Time t_sign = 0;    // f+1 valid contributions, blind signing began
  };

  // Finds or creates the state for `id`, deriving its contribution bundle
  // from the instance's keyed stream.
  ContributorState& contributor(const Local& l, const InstanceId& id);
  void try_finish(const Local& l, CoordinatorState& st, Signing& signing);
  // Step 5(c): asks B to sign `blinded` for instance `id`.
  void sign_blind(const Local& l, const InstanceId& id, Contribution blinded,
                  const BlindEvidence& evidence, Signing& signing);
  // §4.2.1's adaptive cancellation, mounted against the hardened protocol.
  void attack(const Local& l, CoordinatorState& st, Signing& signing);

  Behavior behavior_;
  hash::Digest instance_rng_root_{};
  std::map<InstanceId, ContributorState> contributors_;
  std::map<InstanceId, CoordinatorState> coordinators_;
  std::map<TransferId, std::uint32_t> next_epoch_;
  int attack_successes_ = 0;
};

}  // namespace dblind::core
