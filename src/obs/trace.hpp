// Structured tracing for the Fig. 4 pipeline.
//
// A TraceRecorder receives point events from the network layer (send, recv,
// drop, duplicate, corrupt, crash, restart) and from ProtocolServer
// (per-phase span edges: epoch start, commit, reveal, contribute, blind
// sign, threshold decrypt, done sign, done recorded; plus verify pass/fail
// with culprit ranks and retransmissions). Recorders are injected via
// ProtocolOptions::trace; a null pointer means no recording and no behavior
// change (the seed default).
//
// Events carry only public protocol coordinates — timestamps, ranks,
// transfer/epoch ids, message types, counts. They must never carry
// cryptographic material; lint_crypto.py's trace-hygiene rule rejects any
// emit_*/record_* call whose arguments look like secrets.
//
// Under the deterministic Simulator all timestamps are virtual
// microseconds, so two runs with the same seed produce byte-identical
// JSONL traces (asserted by tests/obs/obs_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sync.hpp"

namespace dblind::obs {

enum class EventKind : std::uint8_t {
  // Network layer (Simulator / ThreadedBus).
  kMsgSend = 1,
  kMsgRecv,
  kMsgDrop,
  kMsgDup,
  kMsgCorrupt,
  kCrash,
  kRestart,
  // Fig. 4 phase edges (ProtocolServer).
  kEpochStart,      // coordinator opened instance (transfer, coord, epoch)
  kCommitSent,      // contributor committed to its blinding factor
  kCommitAccepted,  // coordinator accepted a commit (count = commits so far)
  kRevealSent,      // coordinator reached 2f+1 commits and broadcast reveal
  kContributeSent,  // contributor revealed + sent its VDE contribution
  kVerifyPass,      // a proof checked out (subject = msg type, peer = prover)
  kVerifyFail,      // a proof failed (peer = culprit rank)
  kBlindSignBegin,  // coordinator reached f+1 valid contributions
  kSignDone,        // a threshold-signing session finished (subject = purpose)
  kDecryptBegin,    // responder started threshold decryption
  kDecryptDone,     // responder reached f+1 valid decryption replies
  kDoneSignBegin,   // responder started the done signing session
  kDoneRecorded,    // a B server validated and stored the done message
  kRetransmit,      // backoff timer re-sent cached frames
  // Epochal reconfiguration (PR 7). cfg_epoch carries the config epoch.
  kEpochInstall,    // node installed a configuration (count = new n, peer = new rank)
  kEpochAbort,      // a live instance was aborted at an epoch boundary
  kContributeCited, // done-path evidence cites a contribution
                    // (instance = citing transfer, peer = contributor rank,
                    // count = the cited contribution's transfer id — I8/T8)
  // Stall watchdog (PR 9). Both carry a one-shot public state dump.
  kStall,           // per-transfer deadline expired (attempt = outstanding
                    // resend timers; parent = the transfer's last span, so
                    // walking parents recovers the stalled span stack)
  kStallResolved,   // a previously-stalled transfer made progress
                    // (count = stalled duration in µs)
};

// Stable wire name for a kind ("msg_send", "epoch_start", ...).
const char* kind_name(EventKind k);

// One trace event. Which optional fields are meaningful depends on `kind`
// (see to_jsonl and docs/OBSERVABILITY.md for the per-kind schema). All
// values are small integers — never protocol payload bytes.
struct TraceEvent {
  std::uint64_t ts = 0;    // microseconds (virtual under the Simulator)
  std::uint64_t node = 0;  // emitting node id
  EventKind kind = EventKind::kMsgSend;

  // Causal span linkage (PR 9). Every recorded event is itself a span:
  // `span` is a run-unique id minted by the transport at record time and
  // `parent` is the span of the event that caused it (the sending side's
  // span for kMsgRecv, the ambient handler span for everything else).
  // 0 means "absent" — tracing off, or a root event — and absent fields
  // are not serialized, so pre-span traces and unit-test events render
  // byte-identically to the v1 schema.
  std::uint64_t span = 0;
  std::uint64_t parent = 0;

  bool has_instance = false;   // transfer/coordinator/epoch are meaningful
  std::uint64_t transfer = 0;  // also set alone (no instance) for retransmits
  std::uint32_t coordinator = 0;
  std::uint32_t epoch = 0;

  std::uint64_t peer = 0;     // peer node / prover or culprit rank / timer key
  std::uint32_t subject = 0;  // MsgType or SignPurpose under scrutiny
  std::uint64_t count = 0;    // bytes, quorum sizes, frames re-sent, ...
  std::uint32_t attempt = 0;  // retransmit: sends so far for this timer key
  std::uint32_t cap = 0;      // retransmit: max attempts for this timer key
  std::uint32_t cfg_epoch = 0;  // config epoch (reconfiguration events; 0 = seed epoch)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

// Trace schema version, serialized in the meta header as "v". Bumped to 2
// when events gained span/parent causal linkage; the offline tools
// (trace_check.py / trace_critpath.py) reject traces whose meta declares an
// older (or missing) version.
inline constexpr std::uint32_t kTraceSchemaVersion = 2;

// Run header, emitted once before any event so offline checkers know the
// fault-tolerance thresholds without out-of-band configuration.
struct RunMeta {
  std::uint64_t run_seed = 0;
  std::uint32_t a_n = 0;
  std::uint32_t a_f = 0;
  std::uint32_t b_n = 0;
  std::uint32_t b_f = 0;
  std::uint32_t retransmit_cap = 0;
  // Declared last so existing positional aggregate initializers keep their
  // meaning; defaults to the current schema version.
  std::uint32_t version = kTraceSchemaVersion;

  friend bool operator==(const RunMeta&, const RunMeta&) = default;
};

// Single-line JSON renderings (no trailing newline). Field order is fixed,
// values are all integers or fixed enum names: byte-identical across runs
// with equal inputs.
std::string to_jsonl(const TraceEvent& e);
std::string to_jsonl(const RunMeta& m);

class TraceRecorder {
 public:
  virtual ~TraceRecorder() = default;
  // Called once per run before any record() call.
  virtual void run_meta(const RunMeta& m) { (void)m; }
  virtual void record(const TraceEvent& e) = 0;
};

// In-memory recorder for tests and the C++ invariant checker.
class MemoryTraceRecorder final : public TraceRecorder {
 public:
  void run_meta(const RunMeta& m) override EXCLUDES(mu_);
  void record(const TraceEvent& e) override EXCLUDES(mu_);

  [[nodiscard]] RunMeta meta() const EXCLUDES(mu_);
  [[nodiscard]] std::vector<TraceEvent> events() const EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t count_of(EventKind k) const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  RunMeta meta_ GUARDED_BY(mu_);
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
};

// Streams one JSON object per line to `out`. The stream must outlive the
// recorder; writes are serialized so ThreadedBus nodes can log concurrently.
class JsonlTraceRecorder final : public TraceRecorder {
 public:
  explicit JsonlTraceRecorder(std::ostream& out) : out_(out) {}
  void run_meta(const RunMeta& m) override EXCLUDES(mu_);
  void record(const TraceEvent& e) override EXCLUDES(mu_);

 private:
  Mutex mu_;
  // The referenced stream is written only under mu_ (pt_guarded_by applies
  // to pointer members only, so the invariant is stated here instead).
  std::ostream& out_;
};

}  // namespace dblind::obs
