// Epochal reconfiguration: validity rules and config derivation.
//
// The reconfiguration round (docs/PROTOCOL.md "Reconfiguration") installs a
// new roster and/or threshold for one service by re-sharing its key shares
// (threshold/reshare.hpp) onto the target roster, then certifying ONE apply
// proposal with a Bracha-style quorum of 2f+1 old-roster echoes. This header
// holds the pure, stateless validity checks — the moral equivalent of
// core/validity.hpp for the reconfiguration messages — plus the derivation
// of the post-install ServicePublic. ProtocolServer (core/server.cpp) owns
// the round state and the install cascade.
//
// Validity is always judged against the configuration installed at epoch
// `current`: a deal/apply/echo for epoch e+1 is signed with epoch-e roster
// keys and stamped cfg_epoch = e. A lagging node therefore catches up
// inductively, replaying one InstallRecord per epoch and validating each
// against the roster the previous record installed.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/validity.hpp"

namespace dblind::core {

// What echoes certify: SHA-256 over the apply envelope's BODY bytes (the
// type-tagged ReconfigApplyMsg encoding). Signer-independent, so two
// coordinators proposing byte-identical configurations echo-merge.
[[nodiscard]] hash::Digest reconfig_apply_digest(const SignedMessage& apply_env);

// Structural validity of a spec against the installed config: epoch is
// exactly current+1, the service role is known, (n', f') is Byzantine-safe
// (3f'+1 <= n', f' >= 1), the roster has n' entries with distinct transport
// nodes, and every roster sign key is a group element (so building
// SchnorrVerifyKeys later cannot throw on hostile input).
[[nodiscard]] bool reconfig_spec_ok(const SystemConfig& cfg, ConfigEpoch current,
                                    const ReconfigSpec& spec);

// Checks a kReshareDeal envelope against the installed config and the spec
// being voted on: old-roster signature over cfg_epoch = current, matching
// service/epoch, dealer == signer, and both commitment vectors pass
// reshare_verify_commitments against the service's current commitments
// (constant term = the dealer's old verification key — a dealer cannot
// re-share a value other than its real share).
[[nodiscard]] std::optional<ReshareDealMsg> check_reshare_deal(const SystemConfig& cfg,
                                                               ConfigEpoch current,
                                                               const ReconfigSpec& spec,
                                                               const SignedMessage& env);

// Validates a kReconfigApply envelope against the config installed at
// `current`: old-roster coordinator signature, well-formed spec for
// current+1, exactly old-f+1 deal envelopes from strictly increasing old
// dealer ranks, each individually valid per check_reshare_deal. Returns the
// decoded message iff everything holds.
[[nodiscard]] std::optional<ReconfigApplyMsg> check_reconfig_apply(const SystemConfig& cfg,
                                                                   ConfigEpoch current,
                                                                   const SignedMessage& env);

// Validates one epoch's install certificate (a ReconfigStateMsg step or an
// InstallRecord): the apply per check_reconfig_apply plus at least 2f+1 echo
// envelopes from distinct old-roster ranks of the changing service, each
// signed over cfg_epoch = current and echoing exactly this apply's digest
// and epoch. Returns the decoded apply iff certified.
[[nodiscard]] std::optional<ReconfigApplyMsg> check_install_record(
    const SystemConfig& cfg, ConfigEpoch current, const SignedMessage& apply_env,
    std::span<const SignedMessage> echoes);

// Derives the post-install public view of the changing service from a valid
// apply: new (n', f'), joint re-shared commitments (public key unchanged —
// reshare_commitments keeps C'_0 = g^s), the roster's per-server sign keys,
// and the explicit rank→node map. Everything here is public information;
// every node, member or not, computes the identical result.
[[nodiscard]] ServicePublic reconfigured_service(const SystemConfig& cfg,
                                                 const ReconfigSpec& spec,
                                                 const std::vector<ReshareDealMsg>& deals);

// One installed epoch's self-certifying record, kept by every node so
// laggards can pull the full install chain (kReconfigPull/kReconfigState).
struct InstallRecord {
  SignedMessage apply;                // the certified kReconfigApply envelope
  std::vector<SignedMessage> echoes;  // 2f+1 kReconfigEcho envelopes
};

}  // namespace dblind::core
