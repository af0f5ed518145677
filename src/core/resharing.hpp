// Epochal reconfiguration and resharing (docs/PROTOCOL.md, "Reconfiguration";
// §5's proactive refresh is the same-roster case). Each old-roster member
// deals ONE re-sharing, the proposer certifies f+1 valid deals into an apply,
// and old-roster members echo the first valid apply's digest exactly once: an
// apply plus 2f+1 echoes is a (unique) Certificate, which ProtocolServer
// installs. Laggards pull the install chain one epoch at a time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/local.hpp"
#include "core/reconfig.hpp"

namespace dblind::core {

// An install this node may perform: a valid apply and 2f+1 echoes of it.
struct Certificate {
  SignedMessage apply_env;
  ReconfigApplyMsg apply;
  std::vector<SignedMessage> echoes;
};

// A new member's completed shares, and the transfers its install's apply
// carried.
struct CompletedShare {
  threshold::Share enc;
  threshold::Share sign;
  std::vector<TransferId> transfers;
};

// The service an install certifies (derived under the OLD configuration) and
// the old-roster nodes that dealt for it.
struct NextService {
  ServicePublic svc;
  std::vector<net::NodeId> dealers;
};
[[nodiscard]] NextService next_service(const SystemConfig& cfg, const ReconfigApplyMsg& apply);

class Resharing {
 public:
  // The round. Each returns the certificate it completed, if any.
  // propose: a scheduled round's proposer broadcasts `spec` and deals.
  [[nodiscard]] std::optional<Certificate> propose(const Local& l, const ReconfigSpec& spec,
                                                   const Ledger& ledger);
  [[nodiscard]] std::optional<Certificate> on_start(const Local& l, const SignedMessage& env,
                                                    const Ledger& ledger);
  [[nodiscard]] std::optional<Certificate> on_deal(const Local& l, const SignedMessage& env,
                                                   const Ledger& ledger);
  [[nodiscard]] std::optional<Certificate> on_apply(const Local& l, const SignedMessage& env);
  [[nodiscard]] std::optional<Certificate> on_echo(const Local& l, const SignedMessage& env);
  // A pulled install record; the caller installs it and pulls the next.
  [[nodiscard]] std::optional<Certificate> on_state(const Local& l,
                                                    std::span<const std::uint8_t> body);

  // The epoch gate and catching up. A stale-epoch message gets a typed
  // rejection (liveness only, answered every time); a restarted server may
  // have slept through installs, so it pulls the chain from every peer.
  void reject_stale(const Local& l, net::NodeId to, const SignedMessage& env) const;
  void send_pull(const Local& l, net::NodeId to) const;
  void pull_installs(const Local& l) const;
  void on_wrong_epoch(const Local& l, net::NodeId from, std::span<const std::uint8_t> body) const;
  void on_pull(const Local& l, net::NodeId from, std::span<const std::uint8_t> body) const;

  // A new member's share: its sub-shares are verified against the installed
  // deal commitments, and interpolated once all are in.
  [[nodiscard]] std::optional<CompletedShare> on_subshare(const Local& l,
                                                          std::span<const std::uint8_t> body);
  void on_subshare_pull(const Local& l, net::NodeId from, std::span<const std::uint8_t> body);
  [[nodiscard]] std::optional<CompletedShare> complete_share(const Local& l);
  void pull_subshares(const Local& l, std::uint8_t service, std::span<const net::NodeId> dealers);

  // Keeps the certificate of `epoch` for laggards; drops older sub-shares.
  void record(ConfigEpoch epoch, InstallRecord record);
  [[nodiscard]] bool share_pending() const { return share_pending_; }
  void set_share_pending(bool pending) { share_pending_ = pending; }

  // Round state, bound to the installed configuration.
  void reset() {
    round_.reset();
    applies_.clear();
    echoes_.clear();
    subshare_pull_ = 0;
    install_pull_armed_ = false;
  }
  // What a crash loses besides (the chain is re-learned from peers).
  void forget() {
    subshares_.clear();
    dealt_.clear();
    install_log_.clear();
    share_pending_ = false;
  }

 private:
  // The (at most one) round this node is engaged in.
  struct Round {
    ReconfigSpec spec;          // the spec this node dealt for
    bool coordinating = false;  // we broadcast the start and collect deals
    bool dealt = false;         // re-shared exactly once for spec.epoch
    bool applied = false;       // (coordinator) apply already broadcast
    bool echoed = false;        // echoed exactly one digest for spec.epoch
    std::map<std::uint32_t, SignedMessage> deals;  // coordinator: by old dealer rank
    std::uint64_t start_resend = 0;
  };
  // Dealer side, per install epoch: the deal and every sub-share frame,
  // served to kSubsharePull — frames[j] only to targets[j-1], the node the
  // certified roster assigns new rank j (sub-shares are secret). A crashed
  // dealer cannot re-deal: a fresh polynomial would not match the certified
  // commitments (the documented liveness residual of recovery-after-install).
  struct Dealt {
    SignedMessage deal;
    std::vector<net::NodeId> targets;  // new rank j -> targets[j-1]
    std::vector<Frame> frames;         // [0] the deal, [j] rank j's sub-share
    std::optional<ReshareSubshareMsg> own;  // ours, absorbed without a round trip
  };

  Round& join(const ReconfigSpec& spec);
  // Re-shares this server's share for `spec`, once per epoch.
  [[nodiscard]] std::optional<Certificate> deal(const Local& l, const ReconfigSpec& spec,
                                                const Ledger& ledger);
  [[nodiscard]] Dealt make_deal(const Local& l, const ReconfigSpec& spec) const;
  // Keeps a sub-share for the install in progress (epoch+1) or the one just
  // installed; false (dropped) for any other epoch.
  bool store(const Local& l, const ReshareSubshareMsg& msg);
  [[nodiscard]] std::optional<Certificate> try_install(const Local& l) const;

  std::optional<Round> round_;
  // Valid applies / echo votes for the NEXT epoch, by apply digest.
  std::map<hash::Digest, SignedMessage> applies_;
  std::map<hash::Digest, std::map<ServerRank, SignedMessage>> echoes_;
  // Sub-shares by (install epoch, old dealer rank); latest receipt wins, so
  // a garbage sub-share cannot shadow the dealer's real one.
  std::map<std::pair<ConfigEpoch, std::uint32_t>, ReshareSubshareMsg> subshares_;
  std::map<ConfigEpoch, Dealt> dealt_;
  // Certified installs, replayed to lagging peers one epoch at a time.
  std::map<ConfigEpoch, InstallRecord> install_log_;
  bool share_pending_ = false;  // a new-roster member still collecting sub-shares
  std::uint64_t subshare_pull_ = 0;
  // 2f+1 echoes named an apply this node lacks: it pulls from the echoers.
  bool install_pull_armed_ = false;
};

}  // namespace dblind::core
