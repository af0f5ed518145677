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
#include <optional>
#include <set>
#include <vector>

#include "core/contribution_bundle.hpp"
#include "core/local.hpp"
#include "core/signing.hpp"

namespace dblind::core {

class Blinding {
 public:
  // A backup coordinator of rank j starts (j-1)·`backup_delay` after rank 1.
  Blinding(Behavior behavior, net::Time backup_delay)
      : behavior_(behavior), backup_delay_(backup_delay) {}

  // Draws this incarnation's root key for per-instance contribution streams:
  // a restarted server never replays the ρ of an instance it may already
  // have committed to.
  void new_incarnation(net::Context& ctx);

  // Contributor. An init for a transfer with a result is dropped unchecked.
  void on_init(const Local& l, const SignedMessage& env, const ResultMap& results);
  void on_reveal(const Local& l, const SignedMessage& env);
  // Step flexibility (§1): once an active B server learns of an unfinished
  // `transfer`, it builds the bundle of instance {transfer, 1, 0} (offline).
  void precompute(const Local& l, TransferId transfer, const ResultMap& results);
  [[nodiscard]] std::size_t contributor_instances() const { return contributors_.size(); }
  // `transfer` is done: its contributor and coordinator instances go, and
  // none of its messages is answered any more.
  void on_done(TransferId transfer);

  // Coordinator: ranks 1..f+1 of the installed B roster coordinate every
  // transfer (§4.1: f+1 suffice for progress), each once per configuration
  // and none that has a result. Rank 1 opens its instance at once; a backup
  // arms its delay timer, which an install drops.
  void coordinate(const Local& l, TransferId transfer, const ResultMap& results,
                  Signing& signing);
  // timer::kCoordinator: a backup's delay ran out.
  void on_timer(const Local& l, std::uint64_t key, const ResultMap& results, Signing& signing);
  void on_commit(const Local& l, const SignedMessage& env);
  // Verifies a contribute on arrival, once it is known to answer this
  // coordinator's reveal for an instance still short of its f+1 quorum.
  void on_contribute(const Local& l, const SignedMessage& env, Signing& signing);
  // Step 5(d): B signed a blind payload; C_j → A, unless the transfer has a
  // result.
  void on_signed(const Local& l, const ServiceSignature& sig, const ResultMap& results);
  // The next coordinator epoch per transfer. Durable: a restarted
  // coordinator must not reuse an epoch it may already have announced with
  // a different (lost) contribution set.
  [[nodiscard]] std::map<TransferId, std::uint32_t>& next_epochs() { return next_epoch_; }
  [[nodiscard]] const std::map<TransferId, std::uint32_t>& next_epochs() const {
    return next_epoch_;
  }
  // Coordinator instances, all of unfinished transfers (an install aborts
  // them).
  void unfinished(std::vector<InstanceId>& out) const;
  // Service signatures this (Byzantine) coordinator obtained on fabricated
  // or spliced payloads.
  [[nodiscard]] int attack_successes() const { return attack_successes_; }

  // Drops everything bound to the running configuration, the coordinated
  // set included: an install or a restart coordinates each unfinished
  // transfer afresh.
  void reset() {
    contributors_.clear();
    coordinators_.clear();
    coordinated_.clear();
    timer_ids_.clear();
  }

 private:
  // Move-only: it owns the instance's single-use bundle secrets.
  struct ContributorState {
    Contribution contribution;  // the advertised (ea, eb)
    // ρ, the nonces, the announcements (finished in on_reveal) and the
    // consistent pair (ea, eb) the VDE proof is computed over. bundle->eb
    // equals contribution.eb for honest servers; kInconsistentContribution
    // advertises a different eb but must still attach a proof for the
    // consistent shadow pair. Released once the answer is cached.
    std::optional<ContributionBundle> bundle;
    bool committed = false;
    bool contributed = false;  // responded to (at most) one reveal
    // Cached signed frames, re-sent verbatim on duplicate init/reveal.
    Frame commit_frame;
    Frame contribute_frame;
    SignedMessage committed_init;   // the init we committed on
    SignedMessage answered_reveal;  // the one reveal we responded to
  };
  // A checked contribute: the envelope cited as evidence, and its body.
  struct Contributed {
    SignedMessage env;
    ContributeMsg msg;
  };
  struct CoordinatorState {
    InstanceId id;
    std::map<ServerRank, SignedMessage> commits;
    SignedMessage reveal_env;
    bool revealed = false;
    std::map<ServerRank, Contributed> contributes;
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
  [[nodiscard]] std::uint32_t next_epoch(TransferId transfer) const;
  // Opens this server's instance `epoch` of `transfer`.
  void start(const Local& l, TransferId transfer, std::uint32_t epoch, Signing& signing);
  void try_finish(const Local& l, CoordinatorState& st, Signing& signing);
  // Step 5(c): asks B to sign `blinded` for instance `id`.
  void sign_blind(const Local& l, const InstanceId& id, Contribution blinded,
                  const BlindEvidence& evidence, Signing& signing);
  // §4.2.1's adaptive cancellation, mounted against the hardened protocol.
  void attack(const Local& l, CoordinatorState& st, Signing& signing);

  Behavior behavior_;
  net::Time backup_delay_;
  hash::Digest instance_rng_root_{};
  std::map<InstanceId, ContributorState> contributors_;
  std::map<InstanceId, CoordinatorState> coordinators_;
  std::map<TransferId, std::uint32_t> next_epoch_;
  // Transfers this server coordinates under the running configuration: an
  // instance opened or a backup timer armed.
  std::set<TransferId> coordinated_;
  // Armed backup timers: a timer carries its key, never a transfer id (a
  // client names the id, and its high bits would spill into the timer's kind).
  std::map<std::uint64_t, TransferId> timer_ids_;
  std::uint64_t next_timer_ = 0;
  int attack_successes_ = 0;
};

}  // namespace dblind::core
