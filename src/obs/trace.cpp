#include "obs/trace.hpp"

#include <ostream>

namespace dblind::obs {

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgRecv: return "msg_recv";
    case EventKind::kMsgDrop: return "msg_drop";
    case EventKind::kMsgDup: return "msg_dup";
    case EventKind::kMsgCorrupt: return "msg_corrupt";
    case EventKind::kCrash: return "crash";
    case EventKind::kRestart: return "restart";
    case EventKind::kEpochStart: return "epoch_start";
    case EventKind::kCommitSent: return "commit_sent";
    case EventKind::kCommitAccepted: return "commit_accepted";
    case EventKind::kRevealSent: return "reveal_sent";
    case EventKind::kContributeSent: return "contribute_sent";
    case EventKind::kVerifyPass: return "verify_pass";
    case EventKind::kVerifyFail: return "verify_fail";
    case EventKind::kBlindSignBegin: return "blind_sign_begin";
    case EventKind::kSignDone: return "sign_done";
    case EventKind::kDecryptBegin: return "decrypt_begin";
    case EventKind::kDecryptDone: return "decrypt_done";
    case EventKind::kDoneSignBegin: return "done_sign_begin";
    case EventKind::kDoneRecorded: return "done_recorded";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kEpochInstall: return "epoch_install";
    case EventKind::kEpochAbort: return "epoch_abort";
    case EventKind::kContributeCited: return "contribute_cited";
    case EventKind::kStall: return "stall";
    case EventKind::kStallResolved: return "stall_resolved";
  }
  return "unknown";
}

namespace {

void field(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

}  // namespace

std::string to_jsonl(const TraceEvent& e) {
  std::string out = "{\"ts\":";
  out += std::to_string(e.ts);
  out += ",\"node\":";
  out += std::to_string(e.node);
  out += ",\"kind\":\"";
  out += kind_name(e.kind);
  out += "\"";
  // Span linkage: serialized only when present so span-less events (tracing
  // off, unit-test fixtures) render byte-identically to the v1 schema.
  if (e.span != 0) field(out, "span", e.span);
  if (e.parent != 0) field(out, "parent", e.parent);
  if (e.has_instance) {
    field(out, "transfer", e.transfer);
    field(out, "coord", e.coordinator);
    field(out, "epoch", e.epoch);
  } else if (e.transfer != 0) {
    field(out, "transfer", e.transfer);
  }
  // Config epoch: emitted only when nonzero so seed-epoch traces stay
  // byte-identical to pre-reconfiguration runs (pinned in obs_test).
  if (e.cfg_epoch != 0 && e.kind != EventKind::kEpochInstall &&
      e.kind != EventKind::kEpochAbort) {
    field(out, "cfg_epoch", e.cfg_epoch);
  }
  switch (e.kind) {
    case EventKind::kMsgSend:
    case EventKind::kMsgRecv:
    case EventKind::kMsgDrop:
    case EventKind::kMsgDup:
    case EventKind::kMsgCorrupt:
      field(out, "peer", e.peer);
      field(out, "bytes", e.count);
      break;
    case EventKind::kCommitAccepted:
      field(out, "from", e.peer);
      field(out, "count", e.count);
      break;
    case EventKind::kRevealSent:
    case EventKind::kBlindSignBegin:
    case EventKind::kDecryptDone:
      field(out, "count", e.count);
      break;
    case EventKind::kVerifyPass:
    case EventKind::kVerifyFail:
      field(out, "subject", e.subject);
      field(out, "peer", e.peer);
      break;
    case EventKind::kSignDone:
      field(out, "purpose", e.subject);
      break;
    case EventKind::kRetransmit:
      field(out, "key", e.peer);
      field(out, "frames", e.count);
      field(out, "attempt", e.attempt);
      field(out, "cap", e.cap);
      break;
    case EventKind::kEpochInstall:
      field(out, "cfg_epoch", e.cfg_epoch);
      field(out, "rank", e.peer);
      field(out, "n", e.count);
      break;
    case EventKind::kEpochAbort:
      field(out, "cfg_epoch", e.cfg_epoch);
      break;
    case EventKind::kContributeCited:
      field(out, "from", e.peer);
      field(out, "cited_transfer", e.count);
      break;
    case EventKind::kStall:
      field(out, "resends", e.attempt);
      break;
    case EventKind::kStallResolved:
      field(out, "stalled_us", e.count);
      break;
    default:
      break;
  }
  out += "}";
  return out;
}

std::string to_jsonl(const RunMeta& m) {
  std::string out = "{\"kind\":\"meta\"";
  field(out, "v", m.version);
  field(out, "run_seed", m.run_seed);
  field(out, "a_n", m.a_n);
  field(out, "a_f", m.a_f);
  field(out, "b_n", m.b_n);
  field(out, "b_f", m.b_f);
  field(out, "retransmit_cap", m.retransmit_cap);
  out += "}";
  return out;
}

void MemoryTraceRecorder::run_meta(const RunMeta& m) {
  MutexLock lock(mu_);
  meta_ = m;
}

void MemoryTraceRecorder::record(const TraceEvent& e) {
  MutexLock lock(mu_);
  events_.push_back(e);
}

RunMeta MemoryTraceRecorder::meta() const {
  MutexLock lock(mu_);
  return meta_;
}

std::vector<TraceEvent> MemoryTraceRecorder::events() const {
  MutexLock lock(mu_);
  return events_;
}

std::uint64_t MemoryTraceRecorder::count_of(EventKind k) const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == k) ++n;
  }
  return n;
}

void JsonlTraceRecorder::run_meta(const RunMeta& m) {
  MutexLock lock(mu_);
  out_ << to_jsonl(m) << "\n";
}

void JsonlTraceRecorder::record(const TraceEvent& e) {
  MutexLock lock(mu_);
  out_ << to_jsonl(e) << "\n";
}

}  // namespace dblind::obs
