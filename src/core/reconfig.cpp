#include "core/reconfig.hpp"

#include <algorithm>
#include <set>

#include "threshold/reshare.hpp"

namespace dblind::core {

hash::Digest reconfig_apply_digest(const SignedMessage& apply_env) {
  return hash::Sha256::digest(apply_env.body);
}

bool reconfig_spec_ok(const SystemConfig& cfg, ConfigEpoch current, const ReconfigSpec& spec) {
  if (spec.epoch != current + 1) return false;
  if (spec.service != static_cast<std::uint8_t>(ServiceRole::kServiceA) &&
      spec.service != static_cast<std::uint8_t>(ServiceRole::kServiceB)) {
    return false;
  }
  if (spec.f < 1 || spec.n < 3 * spec.f + 1) return false;
  if (spec.roster.size() != spec.n) return false;
  std::set<std::uint32_t> nodes;
  for (const RosterEntry& e : spec.roster) {
    if (!nodes.insert(e.node).second) return false;
    if (!cfg.params.in_group(e.sign_key)) return false;
  }
  return true;
}

std::optional<ReshareDealMsg> check_reshare_deal(const SystemConfig& cfg, ConfigEpoch current,
                                                 const ReconfigSpec& spec,
                                                 const SignedMessage& env) {
  if (env.service != spec.service) return std::nullopt;
  if (env.cfg_epoch != current) return std::nullopt;
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<ReshareDealMsg>(cfg, MsgType::kReshareDeal, env.body);
  if (!msg || msg->service != spec.service || msg->epoch != spec.epoch) return std::nullopt;
  if (msg->dealer != env.signer) return std::nullopt;
  const ServicePublic& svc = cfg.service(static_cast<ServiceRole>(spec.service));
  threshold::ReshareDeal enc_deal{msg->dealer, msg->enc, {}};
  threshold::ReshareDeal sign_deal{msg->dealer, msg->sign, {}};
  if (!threshold::reshare_verify_commitments(cfg.params, svc.enc_commitments, enc_deal, spec.f)) {
    return std::nullopt;
  }
  if (!threshold::reshare_verify_commitments(cfg.params, svc.sign_commitments, sign_deal,
                                             spec.f)) {
    return std::nullopt;
  }
  return msg;
}

std::optional<ReconfigApplyMsg> check_reconfig_apply(const SystemConfig& cfg, ConfigEpoch current,
                                                     const SignedMessage& env) {
  if (env.cfg_epoch != current) return std::nullopt;
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  auto msg = try_decode<ReconfigApplyMsg>(cfg, MsgType::kReconfigApply, env.body);
  if (!msg || env.service != msg->spec.service) return std::nullopt;
  if (!reconfig_spec_ok(cfg, current, msg->spec)) return std::nullopt;
  const ServicePublic& svc = cfg.service(static_cast<ServiceRole>(msg->spec.service));
  if (msg->deals.size() != svc.cfg.quorum()) return std::nullopt;
  std::uint32_t prev_dealer = 0;
  for (const SignedMessage& deal_env : msg->deals) {
    auto deal = check_reshare_deal(cfg, current, msg->spec, deal_env);
    if (!deal) return std::nullopt;
    if (deal->dealer <= prev_dealer) return std::nullopt;  // strict order => distinct
    prev_dealer = deal->dealer;
  }
  return msg;
}

std::optional<ReconfigEchoMsg> check_reconfig_echo(const SystemConfig& cfg, ConfigEpoch current,
                                                   const SignedMessage& env) {
  if (env.cfg_epoch != current) return std::nullopt;
  auto echo = try_decode<ReconfigEchoMsg>(cfg, MsgType::kReconfigEcho, env.body);
  if (!echo || echo->service != env.service || echo->epoch != current + 1) return std::nullopt;
  if (!envelope_signature_ok(cfg, env)) return std::nullopt;
  return echo;
}

std::optional<ReconfigApplyMsg> check_install_record(const SystemConfig& cfg, ConfigEpoch current,
                                                     const SignedMessage& apply_env,
                                                     std::span<const SignedMessage> echoes) {
  auto apply = check_reconfig_apply(cfg, current, apply_env);
  if (!apply) return std::nullopt;
  const ServicePublic& svc = cfg.service(static_cast<ServiceRole>(apply->spec.service));
  const hash::Digest want = reconfig_apply_digest(apply_env);
  std::set<ServerRank> echoed;
  for (const SignedMessage& env : echoes) {
    if (env.service != apply->spec.service) continue;
    auto echo = check_reconfig_echo(cfg, current, env);
    if (echo && echo->digest == want) echoed.insert(env.signer);
  }
  if (echoed.size() < 2 * svc.cfg.f + 1) return std::nullopt;
  return apply;
}

ServicePublic reconfigured_service(const SystemConfig& cfg, const ReconfigSpec& spec,
                                   const std::vector<ReshareDealMsg>& deals) {
  const ServicePublic& old_svc = cfg.service(static_cast<ServiceRole>(spec.service));
  ServicePublic out = old_svc;  // encryption_key / signing_key NEVER change
  out.cfg.n = spec.n;
  out.cfg.f = spec.f;
  std::vector<std::uint32_t> dealers;
  std::vector<threshold::FeldmanCommitments> enc_deals, sign_deals;
  for (const ReshareDealMsg& d : deals) {
    dealers.push_back(d.dealer);
    enc_deals.push_back(d.enc);
    sign_deals.push_back(d.sign);
  }
  out.enc_commitments = threshold::reshare_commitments(cfg.params, dealers, enc_deals);
  out.sign_commitments = threshold::reshare_commitments(cfg.params, dealers, sign_deals);
  out.server_sign_keys.clear();
  out.roster.clear();
  for (const RosterEntry& e : spec.roster) {
    out.server_sign_keys.emplace_back(cfg.params, e.sign_key);
    out.roster.push_back(e.node);
  }
  return out;
}

}  // namespace dblind::core
