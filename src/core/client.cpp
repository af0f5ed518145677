#include "core/client.hpp"

#include "core/validity.hpp"
#include "threshold/thresh_decrypt.hpp"

namespace dblind::core {

namespace {

std::vector<std::uint8_t> frame_client(const std::vector<std::uint8_t>& body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kClient));
  w.bytes(body);
  return w.take();
}

}  // namespace

std::string client_decrypt_context(TransferId transfer) {
  return "dblind/client-decrypt/t" + std::to_string(transfer);
}

ClientNode::ClientNode(SystemConfig cfg, TransferId transfer, mpz::Bigint m,
                       net::Time poll_interval)
    : cfg_(std::move(cfg)), transfer_(transfer), m_(std::move(m)),
      poll_interval_(poll_interval) {}

void ClientNode::send_client(net::Context& ctx, net::NodeId to,
                             const std::vector<std::uint8_t>& body) {
  ctx.send(to, frame_client(body));
}

void ClientNode::broadcast_b(net::Context& ctx, const std::vector<std::uint8_t>& body) {
  for (ServerRank r = 1; r <= cfg_.b.cfg.n; ++r) send_client(ctx, cfg_.b.node_of(r), body);
}

void ClientNode::on_start(net::Context& ctx) {
  // Publish: one request to everyone; A stores, B registers and runs. The
  // encryption happens exactly once — retries re-send these same bytes.
  TransferRequestMsg req;
  req.transfer = transfer_;
  req.ea_m = cfg_.a.encryption_key.encrypt(m_, ctx.rng());
  publish_body_ = encode_body(MsgType::kTransferRequest, req);
  for (ServerRank r = 1; r <= cfg_.a.cfg.n; ++r)
    send_client(ctx, cfg_.a.node_of(r), publish_body_);
  broadcast_b(ctx, publish_body_);
  ctx.set_timer(poll_interval_, 1);
}

void ClientNode::on_timer(net::Context& ctx, std::uint64_t) {
  if (plaintext_) return;
  if (!chosen_) {
    // Re-publish (lossy networks may have starved some servers of the
    // transfer request entirely — servers dedupe) and poll for the result.
    for (ServerRank r = 1; r <= cfg_.a.cfg.n; ++r)
      send_client(ctx, cfg_.a.node_of(r), publish_body_);
    broadcast_b(ctx, publish_body_);
    ResultRequestMsg req;
    req.transfer = transfer_;
    broadcast_b(ctx, encode_body(MsgType::kResultRequest, req));
  } else {
    // Result chosen but shares still missing: re-request decryption shares
    // (same ciphertext — B servers answer duplicates from their reply cache).
    broadcast_b(ctx, decrypt_request_body_);
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
        broadcast_b(ctx, decrypt_request_body_);
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
