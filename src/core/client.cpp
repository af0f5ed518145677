#include "core/client.hpp"

#include "core/validity.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {

std::string client_decrypt_context(TransferId transfer) {
  return "dblind/client-decrypt/t" + std::to_string(transfer);
}

ClientNode::ClientNode(SystemConfig cfg, TransferId transfer, mpz::Bigint m,
                       net::Time poll_interval)
    : cfg_(std::move(cfg)), transfer_(transfer), m_(std::move(m)),
      poll_interval_(poll_interval) {}

void ClientNode::send_all(net::Context& ctx, const ServicePublic& svc,
                          const std::vector<std::uint8_t>& body) {
  for (net::NodeId to : svc.nodes()) ctx.send(to, frame_client(body));
}

void ClientNode::on_start(net::Context& ctx) {
  // Publish: one request to everyone; A stores, B registers and runs. The
  // encryption happens exactly once — retries re-send these same bytes.
  TransferRequestMsg req;
  req.transfer = transfer_;
  req.ea_m = cfg_.a.encryption_key.encrypt(m_, ctx.rng());
  publish_body_ = encode_body(MsgType::kTransferRequest, req);
  send_all(ctx, cfg_.a, publish_body_);
  send_all(ctx, cfg_.b, publish_body_);
  ctx.set_timer(poll_interval_, 1);
}

void ClientNode::on_timer(net::Context& ctx, std::uint64_t) {
  if (plaintext_) return;
  if (!chosen_) {
    // Re-publish (lossy networks may have starved some servers of the
    // transfer request entirely — servers dedupe) and poll for the result.
    send_all(ctx, cfg_.a, publish_body_);
    send_all(ctx, cfg_.b, publish_body_);
    send_all(ctx, cfg_.b, encode_body(MsgType::kResultRequest, ResultRequestMsg{transfer_}));
  } else {
    // Result chosen but shares still missing: re-request decryption shares
    // (same ciphertext — B servers answer duplicates from their reply cache).
    send_all(ctx, cfg_.b, decrypt_request_body_);
  }
  ctx.set_timer(poll_interval_, 1);
}

void ClientNode::on_message(net::Context& ctx, net::NodeId from,
                            std::span<const std::uint8_t> bytes) {
  (void)from;  // every reply is verified by content, not by sender
  try {
    Reader r(bytes, &cfg_.params);
    if (static_cast<WireKind>(r.u8()) != WireKind::kClient) return;
    std::vector<std::uint8_t> body = r.bytes();
    r.expect_done();
    switch (peek_type(body)) {
      case MsgType::kResultReply: {
        if (chosen_) return;
        auto msg = decode_as<ResultReplyMsg>(MsgType::kResultReply, body, cfg_.params);
        auto done = check_done(cfg_, msg.done);  // K_B-verifiable
        if (!done || done->id.transfer != transfer_) return;
        chosen_ = done->eb_m;
        ClientDecryptRequestMsg req;
        req.transfer = transfer_;
        req.ciphertext = *chosen_;
        decrypt_request_body_ = encode_body(MsgType::kClientDecryptRequest, req);
        send_all(ctx, cfg_.b, decrypt_request_body_);
        break;
      }
      case MsgType::kClientDecryptReply: {
        if (!chosen_ || plaintext_) return;
        auto msg = decode_as<ClientDecryptReplyMsg>(MsgType::kClientDecryptReply, body,
                                                           cfg_.params);
        if (msg.transfer != transfer_) return;
        if (!threshold::verify_decryption_share(cfg_.params, cfg_.b.enc_commitments, *chosen_,
                                                msg.share, client_decrypt_context(transfer_)))
          return;
        shares_.emplace(msg.share.index, msg.share);
        if (shares_.size() < cfg_.b.cfg.quorum()) return;
        std::vector<threshold::DecryptionShare> quorum;
        for (const auto& [rank, share] : shares_) {
          if (quorum.size() == cfg_.b.cfg.quorum()) break;
          quorum.push_back(share);
        }
        plaintext_ = threshold::combine_decryption(cfg_.params, *chosen_, quorum);
        finished_.store(true, std::memory_order_release);
        break;
      }
      default:
        break;
    }
  } catch (const CodecError&) {
  }
}

}  // namespace dblind::core
