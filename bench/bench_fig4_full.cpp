// FIG4: the complete Byzantine re-encryption protocol, end to end in the
// asynchronous simulator.
//
// Rows sweep service size and fault scenario; columns report virtual-time
// latency, message/byte totals, and whether integrity held (result decrypts
// to the original plaintext under B's key). The fail-stop blinding rows from
// bench_fig3 provide the ablation contrast: the commit/reveal round, VDE
// proofs, threshold signatures and self-verifying evidence are the price of
// Byzantine tolerance.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/failstop.hpp"
#include "core/system.hpp"
#include "mpz/modmath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "table.hpp"
#include "zkp/schnorr.hpp"
#include "zkp/vde.hpp"

namespace {

using namespace dblind;  // NOLINT
using Behavior = core::ProtocolServer::Behavior;
using mpz::Bigint;

struct RunResult {
  double latency_ms = 0;
  std::uint64_t messages = 0;
  double kbytes = 0;
  bool ok = false;
  int attack_successes = 0;
};

RunResult run(core::SystemOptions opts, Behavior b1 = Behavior::kHonest,
              bool crash_designated = false) {
  if (b1 != Behavior::kHonest) {
    opts.b_behaviors.assign(opts.b.n, Behavior::kHonest);
    opts.b_behaviors[0] = b1;
  }
  core::System sys(std::move(opts));
  core::TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(123456)));
  if (crash_designated) sys.sim().crash_at(sys.config().b.node_of(1), 0);

  RunResult r;
  bool done = sys.run_to_completion();
  r.latency_ms = sys.sim().stats().end_time / 1000.0;
  r.messages = sys.sim().stats().messages_sent;
  r.kbytes = sys.sim().stats().bytes_sent / 1024.0;
  r.attack_successes = sys.b_server(1).attack_successes();
  r.ok = done;
  if (done) {
    for (core::ServerRank rank = 1; rank <= sys.b_cfg().n && r.ok; ++rank) {
      if (!sys.is_honest_b(rank)) continue;
      auto res = sys.result(t, rank);
      r.ok = res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // --metrics: additionally dump the instrumented run's full registry in
  // Prometheus text format (after the obs-overhead section).
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) dump_metrics = true;
  }
  std::puts("FIG4 — complete re-encryption protocol (async simulator, delays U[0.5ms, 20ms])");
  std::puts("");

  bench::Table table(
      {"n", "f", "scenario", "latency_ms", "messages", "kbytes", "integrity", "attack_signed"});

  for (std::size_t f : {1u, 2u, 3u}) {
    std::size_t n = 3 * f + 1;
    auto opts = [&](std::uint64_t seed) {
      core::SystemOptions o;
      o.a = {n, f};
      o.b = {n, f};
      o.seed = seed;
      return o;
    };

    RunResult honest = run(opts(10 + f));
    table.row({std::to_string(n), std::to_string(f), "honest", bench::fmt(honest.latency_ms),
               bench::fmt_u(honest.messages), bench::fmt(honest.kbytes),
               honest.ok ? "yes" : "NO", "-"});

    RunResult crash = run(opts(20 + f), Behavior::kHonest, /*crash_designated=*/true);
    table.row({std::to_string(n), std::to_string(f), "coordinator crashed",
               bench::fmt(crash.latency_ms), bench::fmt_u(crash.messages),
               bench::fmt(crash.kbytes), crash.ok ? "yes" : "NO", "-"});

    RunResult badvde = run(opts(30 + f), Behavior::kInconsistentContribution);
    table.row({std::to_string(n), std::to_string(f), "inconsistent contribution (4.2.2)",
               bench::fmt(badvde.latency_ms), bench::fmt_u(badvde.messages),
               bench::fmt(badvde.kbytes), badvde.ok ? "yes" : "NO", "-"});

    RunResult withhold = run(opts(40 + f), Behavior::kWithholdContribution);
    table.row({std::to_string(n), std::to_string(f), "withheld contribution",
               bench::fmt(withhold.latency_ms), bench::fmt_u(withhold.messages),
               bench::fmt(withhold.kbytes), withhold.ok ? "yes" : "NO", "-"});

    RunResult bogus = run(opts(50 + f), Behavior::kBogusBlindCoordinator);
    table.row({std::to_string(n), std::to_string(f), "bogus-blind coordinator (4.2.3)",
               bench::fmt(bogus.latency_ms), bench::fmt_u(bogus.messages),
               bench::fmt(bogus.kbytes), bogus.ok ? "yes" : "NO",
               std::to_string(bogus.attack_successes)});

    RunResult adaptive = run(opts(60 + f), Behavior::kAdaptiveCancelCoordinator);
    table.row({std::to_string(n), std::to_string(f), "adaptive-cancel coordinator (4.2.1)",
               bench::fmt(adaptive.latency_ms), bench::fmt_u(adaptive.messages),
               bench::fmt(adaptive.kbytes), adaptive.ok ? "yes" : "NO",
               std::to_string(adaptive.attack_successes)});
  }
  table.print();

  std::puts("");
  std::puts("Ablation — the cost of Byzantine tolerance (blinding phase only, n=3f+1, honest):");
  bench::Table ab({"n", "f", "fig3 failstop msgs", "fig4 full-protocol msgs", "ratio"});
  for (std::size_t f : {1u, 2u, 3u}) {
    std::size_t n = 3 * f + 1;
    core::FailstopOptions fo;
    fo.n = n;
    fo.f = f;
    fo.seed = 70 + f;
    core::FailstopBlindingSystem fsys(std::move(fo));
    fsys.run();
    std::uint64_t fig3_msgs = fsys.sim().stats().messages_sent;

    core::SystemOptions o;
    o.a = {n, f};
    o.b = {n, f};
    o.seed = 80 + f;
    RunResult full = run(std::move(o));
    ab.row({std::to_string(n), std::to_string(f), bench::fmt_u(fig3_msgs),
            bench::fmt_u(full.messages),
            bench::fmt(static_cast<double>(full.messages) / static_cast<double>(fig3_msgs), 1)});
  }
  ab.print();

  std::puts("");
  std::puts("Loss sweep — retransmission overhead under per-link drop (honest, n=4, f=1):");
  {
    bench::Table lt({"loss", "latency_ms", "messages", "dropped", "retransmits", "msg_overhead"});
    std::uint64_t baseline_msgs = 0;
    for (unsigned loss : {0u, 1u, 5u}) {
      core::SystemOptions o;
      o.a = {4, 1};
      o.b = {4, 1};
      o.seed = 200;  // same seed across rows: deltas are attributable to loss alone
      core::System sys(std::move(o));
      if (loss > 0) {
        net::FaultPlan plan;
        plan.drop_percent = loss;
        sys.sim().set_fault_plan(plan);
      }
      core::TransferId t = sys.add_transfer(sys.config().params.encode_message(Bigint(4242)));
      bool done = sys.run_to_completion();
      bool ok = done;
      for (core::ServerRank rank = 1; rank <= 4 && ok; ++rank) {
        auto res = sys.result(t, rank);
        ok = res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
      }
      std::uint64_t retransmits = 0;
      for (core::ServerRank rank = 1; rank <= 4; ++rank)
        retransmits += sys.a_server(rank).retransmits_sent() + sys.b_server(rank).retransmits_sent();
      const auto& st = sys.sim().stats();
      if (loss == 0) baseline_msgs = st.messages_sent;
      double overhead =
          baseline_msgs ? static_cast<double>(st.messages_sent) / static_cast<double>(baseline_msgs)
                        : 1.0;
      lt.row({std::to_string(loss) + "%", bench::fmt(st.end_time / 1000.0),
              bench::fmt_u(st.messages_sent), bench::fmt_u(st.messages_dropped),
              bench::fmt_u(retransmits), ok ? bench::fmt(overhead, 2) + "x" : "FAILED"});
    }
    lt.print();
  }

  std::puts("");
  std::puts("Message breakdown by protocol phase (honest run, n=7, f=2, received counts):");
  {
    core::SystemOptions o;
    o.a = {7, 2};
    o.b = {7, 2};
    o.seed = 90;
    core::System sys(std::move(o));
    sys.add_transfer(sys.config().params.encode_message(Bigint(8)));
    sys.run_to_completion();
    auto hist = sys.rx_histogram();
    auto name = [](core::MsgType t) -> const char* {
      switch (t) {
        case core::MsgType::kInit: return "init";
        case core::MsgType::kCommit: return "commit";
        case core::MsgType::kReveal: return "reveal";
        case core::MsgType::kContribute: return "contribute";
        case core::MsgType::kBlind: return "blind";
        case core::MsgType::kDone: return "done";
        case core::MsgType::kSignRequest: return "sign-request";
        case core::MsgType::kSignCommitReply: return "sign-commit-reply";
        case core::MsgType::kSignQuorum: return "sign-quorum";
        case core::MsgType::kSignRevealReply: return "sign-reveal-reply";
        case core::MsgType::kSignRevealSet: return "sign-reveal-set";
        case core::MsgType::kSignPartialReply: return "sign-partial-reply";
        case core::MsgType::kDecryptRequest: return "decrypt-request";
        case core::MsgType::kDecryptShareReply: return "decrypt-share-reply";
        case core::MsgType::kTransferRequest: return "transfer-request";
        case core::MsgType::kResultRequest: return "result-request";
        case core::MsgType::kResultReply: return "result-reply";
        case core::MsgType::kClientDecryptRequest: return "client-decrypt-request";
        case core::MsgType::kClientDecryptReply: return "client-decrypt-reply";
        case core::MsgType::kReconfigStart: return "reconfig-start";
        case core::MsgType::kReshareDeal: return "reshare-deal";
        case core::MsgType::kReshareSubshare: return "reshare-subshare";
        case core::MsgType::kReconfigApply: return "reconfig-apply";
        case core::MsgType::kReconfigEcho: return "reconfig-echo";
        case core::MsgType::kWrongEpoch: return "wrong-epoch";
        case core::MsgType::kReconfigPull: return "reconfig-pull";
        case core::MsgType::kReconfigState: return "reconfig-state";
        case core::MsgType::kSubsharePull: return "subshare-pull";
      }
      return "?";
    };
    bench::Table mt({"message type", "received"});
    for (const auto& [type, count] : hist) mt.row({name(type), bench::fmt_u(count)});
    mt.print();
  }

  std::puts("");
  std::puts("Verification fast path (PR 3) — blind-evidence validation, serial vs batched:");
  std::puts("(the Figure-4 verification-dominated column: on receipt of a blind request a");
  std::puts(" backup checks f+1 contribute signatures, the embedded reveal evidence — which");
  std::puts(" the serial path re-validates once per contribute — and f+1 VDE proofs;");
  std::puts(" mont-muls are deterministic, ms are wall-clock over 5 reps)");
  {
    using group::GroupParams;
    using group::ParamId;
    using mpz::Prng;

    bench::Table vt({"f", "serial_muls", "batch_muls", "mul_ratio", "serial_ms", "batch_ms",
                     "ms_ratio"});
    for (std::size_t f : {1u, 2u, 3u}) {
      GroupParams gp = GroupParams::named(ParamId::kSec512);
      Prng prng(300 + f);
      // Signature evidence: f+1 contribute sigs over distinct payloads, plus
      // the shared reveal evidence (1 coordinator sig + 2f+1 commit sigs).
      std::vector<zkp::SchnorrSigningKey> keys;
      std::vector<std::vector<std::uint8_t>> msgs;
      std::vector<zkp::SchnorrSignature> sigs;
      std::vector<zkp::SchnorrVerifyKey> vks;
      const std::size_t contribute_sigs = f + 1;
      const std::size_t reveal_sigs = 2 * f + 2;  // 1 reveal + 2f+1 commits
      for (std::size_t i = 0; i < contribute_sigs + reveal_sigs; ++i) {
        keys.push_back(zkp::SchnorrSigningKey::generate(gp, prng));
        vks.push_back(keys.back().verify_key());
        msgs.emplace_back(96, static_cast<std::uint8_t>(i));
        sigs.push_back(keys.back().sign(msgs.back(), prng));
      }
      // f+1 VDE proofs (one per contribution).
      elgamal::KeyPair ka = elgamal::KeyPair::generate(gp, prng);
      elgamal::KeyPair kb = elgamal::KeyPair::generate(gp, prng);
      std::vector<elgamal::Ciphertext> cas, cbs;
      std::vector<zkp::VdeProof> proofs;
      for (std::size_t i = 0; i < f + 1; ++i) {
        Bigint rho = gp.random_element(prng);
        Bigint r1 = gp.random_exponent(prng);
        Bigint r2 = gp.random_exponent(prng);
        cas.push_back(ka.public_key().encrypt_with_nonce(rho, r1));
        cbs.push_back(kb.public_key().encrypt_with_nonce(rho, r2));
        proofs.push_back(zkp::vde_prove(ka.public_key(), cas.back(), r1, kb.public_key(),
                                        cbs.back(), r2, "bench", prng));
      }
      std::vector<zkp::VdeBatchItem> vde_items;
      for (std::size_t i = 0; i < f + 1; ++i) {
        vde_items.push_back(
            {&ka.public_key(), &cas[i], &kb.public_key(), &cbs[i], &proofs[i], "bench"});
      }
      std::vector<zkp::BatchEntry> sig_batch;
      for (std::size_t i = 0; i < contribute_sigs + reveal_sigs; ++i) {
        sig_batch.push_back({&vks[i], msgs[i], &sigs[i]});
      }
      (void)gp.pow_g(Bigint(3));  // build the fixed-base table outside the timing

      auto serial_pass = [&] {
        bool ok = true;
        for (std::size_t i = 0; i < contribute_sigs; ++i) {
          ok = ok && vks[i].verify(msgs[i], sigs[i]);
          // The reveal evidence rides inside every contribute; the serial
          // verifier re-checks it each time (what the batch path dedups).
          for (std::size_t j = contribute_sigs; j < contribute_sigs + reveal_sigs; ++j) {
            ok = ok && vks[j].verify(msgs[j], sigs[j]);
          }
          ok = ok && zkp::vde_verify(ka.public_key(), cas[i], kb.public_key(), cbs[i],
                                     proofs[i], "bench");
        }
        return ok;
      };
      auto batch_pass = [&](Prng& vr) {
        return zkp::schnorr_batch_verify(gp, sig_batch) && zkp::vde_batch_verify(vde_items, vr);
      };

      constexpr int kReps = 5;
      if (!serial_pass()) std::puts("BUG: serial verification failed");
      std::uint64_t m0 = gp.group_op_count();
      auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kReps; ++r) (void)serial_pass();
      auto t1 = std::chrono::steady_clock::now();
      std::uint64_t serial_muls = (gp.group_op_count() - m0) / kReps;
      double serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;

      Prng warm(777);
      if (!batch_pass(warm)) std::puts("BUG: batch verification failed");
      Prng vr(888 + f);
      m0 = gp.group_op_count();
      t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kReps; ++r) (void)batch_pass(vr);
      t1 = std::chrono::steady_clock::now();
      std::uint64_t batch_muls = (gp.group_op_count() - m0) / kReps;
      double batch_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;

      double mul_ratio = static_cast<double>(serial_muls) / static_cast<double>(batch_muls);
      double ms_ratio = serial_ms / batch_ms;
      vt.row({std::to_string(f), bench::fmt_u(serial_muls), bench::fmt_u(batch_muls),
              bench::fmt(mul_ratio, 2) + "x", bench::fmt(serial_ms, 2), bench::fmt(batch_ms, 2),
              bench::fmt(ms_ratio, 2) + "x"});
      // Machine-readable line for tools/bench_check.py.
      std::printf(
          "BENCHJSON {\"section\": \"blind-verify\", \"f\": %zu, \"serial_mont_muls\": %llu, "
          "\"batch_mont_muls\": %llu, \"serial_ms\": %.4f, \"batch_ms\": %.4f}\n",
          f, static_cast<unsigned long long>(serial_muls),
          static_cast<unsigned long long>(batch_muls), serial_ms, batch_ms);
    }
    vt.print();
  }

  std::puts("");
  std::puts("Observability overhead (PR 4) — same honest fixed-seed run, plain vs fully");
  std::puts("instrumented (JSONL trace + metrics registry). The recorder hooks must be");
  std::puts("pure observers: identical mont-mul counts and message totals, or the");
  std::puts("instrumentation has perturbed the protocol.");
  {
    bench::Table ot({"mode", "mont_muls", "messages", "trace_events", "latency_ms"});
    std::uint64_t muls[2] = {0, 0};
    std::uint64_t msgs[2] = {0, 0};
    double lat[2] = {0, 0};
    obs::MetricsRegistry registry;
    std::ostringstream trace_out;
    for (int inst = 0; inst < 2; ++inst) {
      core::SystemOptions o;
      o.a = {4, 1};
      o.b = {4, 1};
      o.seed = 500;
      std::optional<obs::JsonlTraceRecorder> trace;
      if (inst == 1) {
        trace.emplace(trace_out);
        o.protocol.trace = &*trace;
        o.protocol.metrics = &registry;
      }
      core::System sys(std::move(o));
      sys.add_transfer(sys.config().params.encode_message(Bigint(7)));
      std::uint64_t before = sys.config().params.group_op_count();
      sys.run_to_completion();
      muls[inst] = sys.config().params.group_op_count() - before;
      msgs[inst] = sys.sim().stats().messages_sent;
      lat[inst] = sys.sim().stats().end_time / 1000.0;
    }
    std::uint64_t events = 0;
    for (char c : trace_out.str()) events += c == '\n' ? 1 : 0;
    ot.row({"plain", bench::fmt_u(muls[0]), bench::fmt_u(msgs[0]), "-", bench::fmt(lat[0])});
    ot.row({"instrumented", bench::fmt_u(muls[1]), bench::fmt_u(msgs[1]), bench::fmt_u(events),
            bench::fmt(lat[1])});
    ot.print();
    if (muls[0] != muls[1] || msgs[0] != msgs[1]) {
      std::puts("BUG: instrumentation changed the protocol's deterministic cost");
    }
    std::printf(
        "BENCHJSON {\"section\": \"obs-overhead\", \"plain_mont_muls\": %llu, "
        "\"instrumented_mont_muls\": %llu, \"plain_messages\": %llu, "
        "\"instrumented_messages\": %llu, \"trace_events\": %llu}\n",
        static_cast<unsigned long long>(muls[0]), static_cast<unsigned long long>(muls[1]),
        static_cast<unsigned long long>(msgs[0]), static_cast<unsigned long long>(msgs[1]),
        static_cast<unsigned long long>(events));

    // Per-phase latency breakdown, from the instrumented run's registry
    // (coordinator/responder phase histograms; virtual microseconds).
    bench::Table pt({"phase", "spans", "mean_ms"});
    for (const auto& h : registry.histogram_samples()) {
      constexpr const char* kPrefix = "dblind_phase_";
      if (h.name.rfind(kPrefix, 0) != 0 || h.count == 0) continue;
      std::string phase = h.name.substr(std::strlen(kPrefix));
      if (auto pos = phase.rfind("_us"); pos != std::string::npos) phase.resize(pos);
      double mean_ms = static_cast<double>(h.total) / static_cast<double>(h.count) / 1000.0;
      pt.row({phase, bench::fmt_u(h.count), bench::fmt(mean_ms, 2)});
      std::printf(
          "BENCHJSON {\"section\": \"phases\", \"phase\": \"%s\", \"spans\": %llu, "
          "\"total_us\": %llu}\n",
          phase.c_str(), static_cast<unsigned long long>(h.count),
          static_cast<unsigned long long>(h.total));
    }
    pt.print();

    if (dump_metrics) {
      std::puts("");
      std::puts("Metrics registry (instrumented run, Prometheus text format):");
      std::fputs(registry.prometheus_text().c_str(), stdout);
    }
  }

  std::puts("");
  std::puts("Offline/online split — contributor mont-muls, one run:");
  std::puts("(online = mont-muls a contributor spends inside the init/reveal handlers,");
  std::puts(" the latency-critical path; offline = bundle construction — dual encryption");
  std::puts(" + VDE announcements — which each B server runs when it learns of a transfer,");
  std::puts(" ahead of the init. Without the split every mont-mul would be online.)");
  {
    constexpr int kSplitTransfers = 6;
    obs::MetricsRegistry reg;
    core::SystemOptions o;
    o.a = {4, 1};
    o.b = {4, 1};
    o.seed = 600;
    o.protocol.metrics = &reg;
    core::System sys(std::move(o));
    for (int i = 0; i < kSplitTransfers; ++i)
      sys.add_transfer(sys.config().params.encode_message(Bigint(9000 + i)));
    if (!sys.run_to_completion()) std::puts("BUG: offline/online bench run did not complete");
    std::uint64_t online = 0;
    std::uint64_t offline = 0;
    for (core::ServerRank rank = 1; rank <= 4; ++rank) {
      const std::string node = std::to_string(sys.config().b.node_of(rank));
      online += reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "online"}})
                    .value();
      offline +=
          reg.counter("dblind_contrib_mont_muls_total", {{"node", node}, {"path", "offline"}})
              .value();
    }

    bench::Table pt({"online_muls", "offline_muls", "online/transfer", "(online+offline)/online"});
    pt.row({bench::fmt_u(online), bench::fmt_u(offline),
            bench::fmt(static_cast<double>(online) / kSplitTransfers, 1),
            bench::fmt(static_cast<double>(online + offline) /
                           static_cast<double>(std::max<std::uint64_t>(online, 1)),
                       2) +
                "x"});
    pt.print();
    std::printf(
        "BENCHJSON {\"section\": \"precompute\", \"transfers\": %d, "
        "\"online_mont_muls\": %llu, \"offline_mont_muls\": %llu}\n",
        kSplitTransfers, static_cast<unsigned long long>(online),
        static_cast<unsigned long long>(offline));
  }

  std::puts("");
  std::puts("Fixed-base tables — pinned protocol base vs an unpinned base:");
  std::puts("(one epoch-long shift-table build per pinned base, at its first use; each");
  std::puts(" exponentiation then costs <= 15 squarings plus ~3 mont-muls per 16-bit");
  std::puts(" chunk of the exponent. JSON keys keep the report's comb_* names.)");
  {
    using group::GroupParams;
    using group::ParamId;
    using mpz::Prng;
    GroupParams gp = GroupParams::named(ParamId::kSec512);
    Prng prng(911);
    const Bigint y = gp.pow_g(gp.random_exponent(prng));
    const Bigint stranger = gp.pow_g(gp.random_exponent(prng));
    gp.pin_base(y);
    (void)gp.pow_fixed(y, Bigint(1));  // builds y's table (outside the measured window)
    constexpr int kExps = 8;
    std::vector<Bigint> exps;
    for (int i = 0; i < kExps; ++i) exps.push_back(gp.random_exponent(prng));

    std::uint64_t m0 = gp.group_op_count();
    auto t0 = std::chrono::steady_clock::now();
    for (const Bigint& e : exps) (void)gp.pow_fixed(y, e);
    auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t comb_muls = (gp.group_op_count() - m0) / kExps;
    const double comb_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / kExps;

    m0 = gp.group_op_count();
    t0 = std::chrono::steady_clock::now();
    for (const Bigint& e : exps) (void)gp.pow(stranger, e);
    t1 = std::chrono::steady_clock::now();
    const std::uint64_t generic_muls = (gp.group_op_count() - m0) / kExps;
    const double generic_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / kExps;

    for (const Bigint& e : exps) {
      if (gp.pow_fixed(y, e) != mpz::powmod(y, e, gp.p()))
        std::puts("BUG: fixed-base result mismatch");
    }
    bench::Table ft({"path", "mont_muls/pow", "ms/pow", "ratio"});
    ft.row({"generic (unpinned)", bench::fmt_u(generic_muls), bench::fmt(generic_ms, 3), "1.00x"});
    ft.row({"shift table (pinned)", bench::fmt_u(comb_muls), bench::fmt(comb_ms, 3),
            bench::fmt(static_cast<double>(generic_muls) / static_cast<double>(comb_muls), 2) +
                "x"});
    ft.print();
    std::printf(
        "BENCHJSON {\"section\": \"fixed-base\", \"comb_mont_muls\": %llu, "
        "\"generic_mont_muls\": %llu, \"comb_ms\": %.4f, \"generic_ms\": %.4f}\n",
        static_cast<unsigned long long>(comb_muls), static_cast<unsigned long long>(generic_muls),
        comb_ms, generic_ms);
  }

  std::puts("");
  std::puts("Pipelined throughput — 12 transfers in flight:");
  {
    core::SystemOptions o;
    o.a = {4, 1};
    o.b = {4, 1};
    o.seed = 700;
    core::System sys(std::move(o));
    constexpr int kN = 12;
    std::vector<core::TransferId> ts;
    for (int i = 0; i < kN; ++i) {
      ts.push_back(sys.add_transfer(sys.config().params.encode_message(Bigint(7000 + i))));
    }
    auto w0 = std::chrono::steady_clock::now();
    bool done = sys.run_to_completion();
    auto w1 = std::chrono::steady_clock::now();
    bool ok = done;
    for (core::TransferId t : ts) {
      for (core::ServerRank rank = 1; rank <= 4 && ok; ++rank) {
        auto res = sys.result(t, rank);
        ok = res && sys.oracle_decrypt_b(*res) == sys.plaintext_of(t);
      }
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
    const double virt_ms = sys.sim().stats().end_time / 1000.0;
    const double tps = wall_ms > 0 ? kN / (wall_ms / 1000.0) : 0;
    bench::Table tt({"transfers", "virtual_ms", "wall_ms", "transfers/sec", "integrity"});
    tt.row({std::to_string(kN), bench::fmt(virt_ms), bench::fmt(wall_ms, 1), bench::fmt(tps, 1),
            ok ? "yes" : "NO"});
    tt.print();
    std::printf(
        "BENCHJSON {\"section\": \"throughput\", \"transfers\": %d, \"wall_ms\": %.2f, "
        "\"virtual_ms\": %.2f, \"transfers_per_sec\": %.2f, \"integrity\": %d}\n",
        kN, wall_ms, virt_ms, tps, ok ? 1 : 0);
  }

  std::puts("");
  std::puts("Epochal reconfiguration (PR 7) — steady-state vs rotation-window cost:");
  std::puts("(two runs, same seed: a baseline with no rotation, and a run whose 4");
  std::puts(" transfers are caught mid-flight by a same-roster re-share of service B —");
  std::puts(" they abort at the install (I6) and re-run under epoch 1. The rotation");
  std::puts(" window prices the re-share round plus the discarded in-flight work; the");
  std::puts(" post-install window is the full protocol under the new configuration.");
  std::puts(" Gate: post-rotation steady-state mont-muls/transfer within 5% of the");
  std::puts(" baseline — the install drops contributor state and keeps the pinned");
  std::puts(" tables; neither may leak cost into the new epoch.)");
  {
    constexpr int kWave = 4;
    constexpr net::Time kRotateAt = 30'000;  // lands well inside the first round-trips
    auto make_sys = [&](bool rotate) {
      core::SystemOptions o;
      o.a = {4, 1};
      o.b = {4, 1};
      o.seed = 800;
      auto sys = std::make_unique<core::System>(std::move(o));
      std::vector<core::TransferId> ts;
      for (int i = 0; i < kWave; ++i) {
        ts.push_back(sys->add_transfer(sys->config().params.encode_message(Bigint(8100 + i))));
      }
      if (rotate) {
        std::vector<net::NodeId> roster;
        for (core::ServerRank r = 1; r <= 4; ++r) roster.push_back(sys->config().b.node_of(r));
        sys->schedule_reconfig_b(sys->make_b_spec(1, 1, roster), kRotateAt);
      }
      return std::make_pair(std::move(sys), std::move(ts));
    };
    auto integrity = [](core::System& sys, const std::vector<core::TransferId>& ts) {
      for (core::ServerRank r = 1; r <= 4; ++r) {
        for (core::TransferId t : ts) {
          auto res = sys.result(t, r);
          if (!res || sys.oracle_decrypt_b(*res) != sys.plaintext_of(t)) return false;
        }
      }
      return true;
    };

    auto [base_sys, base_ts] = make_sys(false);
    const std::uint64_t b0 = base_sys->config().params.group_op_count();
    bool ok = base_sys->run_to_completion();
    const std::uint64_t pre_muls = base_sys->config().params.group_op_count() - b0;
    const double t_base = base_sys->sim().stats().end_time / 1000.0;
    ok = ok && integrity(*base_sys, base_ts);

    auto [rot_sys, rot_ts] = make_sys(true);
    core::System& rs = *rot_sys;
    auto installed = [&rs] {
      for (core::ServerRank r = 1; r <= 4; ++r) {
        if (rs.b_server(r).config_epoch() != 1 || rs.b_server(r).share_pending()) return false;
      }
      return true;
    };
    const std::uint64_t r0 = rot_sys->config().params.group_op_count();
    ok = ok && rot_sys->sim().run_until(installed, 50'000'000);
    const std::uint64_t rotation_muls = rot_sys->config().params.group_op_count() - r0;
    const double t_install = rot_sys->sim().stats().end_time / 1000.0;
    ok = ok && rot_sys->run_to_completion();
    const std::uint64_t post_muls = rot_sys->config().params.group_op_count() - r0 - rotation_muls;
    const double t_rot = rot_sys->sim().stats().end_time / 1000.0;
    ok = ok && integrity(*rot_sys, rot_ts);

    auto per_transfer = [&](std::uint64_t muls) {
      return bench::fmt(static_cast<double>(muls) / kWave, 1);
    };
    const double delta = pre_muls != 0
                             ? (static_cast<double>(post_muls) - static_cast<double>(pre_muls)) /
                                   static_cast<double>(pre_muls) * 100.0
                             : 0.0;
    bench::Table rt({"window", "mont_muls", "muls/transfer", "virtual_ms"});
    rt.row({"baseline (no rotation)", bench::fmt_u(pre_muls), per_transfer(pre_muls),
            bench::fmt(t_base)});
    rt.row({"rotation (re-share + aborted work)", bench::fmt_u(rotation_muls), "-",
            bench::fmt(t_install)});
    rt.row({"post-install steady state", bench::fmt_u(post_muls),
            per_transfer(post_muls) + " (" + bench::fmt(delta, 2) + "% vs baseline)",
            bench::fmt(t_rot - t_install)});
    rt.print();
    if (!ok) std::puts("BUG: reconfiguration bench lost integrity");
    std::printf(
        "BENCHJSON {\"section\": \"reconfig\", \"wave_transfers\": %d, "
        "\"pre_wave_mont_muls\": %llu, \"rotation_mont_muls\": %llu, "
        "\"post_wave_mont_muls\": %llu, \"installed\": %d, \"integrity\": %d}\n",
        kWave, static_cast<unsigned long long>(pre_muls),
        static_cast<unsigned long long>(rotation_muls),
        static_cast<unsigned long long>(post_muls), installed() ? 1 : 0, ok ? 1 : 0);
  }

  std::puts("");
  std::puts("Group backend comparison (PR 10) — mod-p 2048-bit oracle vs ristretto255:");
  std::puts("(same honest run, same seed, swapping only the group backend. Costs are");
  std::puts(" normalized to 64x64-bit word multiplications: deterministic group-op");
  std::puts(" counts x op_cost_weight (mod-p: 2k^2 per Montgomery mul at k limbs;");
  std::puts(" ec255: 25 per field mul), so the gate cannot flake on a loaded box.");
  std::puts(" Wall-clock is recorded as context. Elements shrink 256 -> 32 bytes.)");
  {
    struct BackendRun {
      std::string name;
      std::uint64_t ops = 0;
      std::uint64_t weight = 0;
      std::uint64_t word_muls = 0;
      std::size_t elem_bytes = 0;
      double wall_ms = 0;
      double virt_ms = 0;
      double kbytes = 0;
      bool ok = false;
    };
    auto run_backend = [&](group::ParamId id) {
      core::SystemOptions o;
      o.a = {4, 1};
      o.b = {4, 1};
      o.seed = 900;
      o.params = group::GroupParams::named(id);
      core::System sys(std::move(o));
      core::TransferId t =
          sys.add_transfer(sys.config().params.encode_message(Bigint(123456)));
      BackendRun r;
      r.name = sys.config().params.backend_name();
      r.weight = sys.config().params.op_cost_weight();
      r.elem_bytes = sys.config().params.element_size();
      const std::uint64_t before = sys.config().params.group_op_count();
      auto w0 = std::chrono::steady_clock::now();
      bool done = sys.run_to_completion();
      auto w1 = std::chrono::steady_clock::now();
      r.ops = sys.config().params.group_op_count() - before;
      r.word_muls = r.ops * r.weight;
      r.wall_ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
      r.virt_ms = sys.sim().stats().end_time / 1000.0;
      r.kbytes = sys.sim().stats().bytes_sent / 1024.0;
      r.ok = done;
      for (core::ServerRank rank = 1; rank <= 4 && r.ok; ++rank) {
        auto res = sys.result(t, rank);
        r.ok = res && sys.config().params.decode_message(sys.oracle_decrypt_b(*res)) ==
                          Bigint(123456);
      }
      return r;
    };
    BackendRun modp = run_backend(group::ParamId::kSec2048);
    BackendRun ecr = run_backend(group::ParamId::kEc255);
    const double cost_ratio =
        static_cast<double>(modp.word_muls) / static_cast<double>(ecr.word_muls);
    bench::Table bt({"backend", "group_ops", "weight", "word_muls", "elem_bytes", "wire_kbytes",
                     "wall_ms", "integrity"});
    bt.row({modp.name + " (sec2048)", bench::fmt_u(modp.ops), bench::fmt_u(modp.weight),
            bench::fmt_u(modp.word_muls), std::to_string(modp.elem_bytes),
            bench::fmt(modp.kbytes), bench::fmt(modp.wall_ms, 1), modp.ok ? "yes" : "NO"});
    bt.row({ecr.name, bench::fmt_u(ecr.ops), bench::fmt_u(ecr.weight),
            bench::fmt_u(ecr.word_muls), std::to_string(ecr.elem_bytes),
            bench::fmt(ecr.kbytes), bench::fmt(ecr.wall_ms, 1), ecr.ok ? "yes" : "NO"});
    bt.print();
    std::printf("word-mul cost ratio (mod-p 2048 / ec255): %.1fx\n", cost_ratio);
    std::printf(
        "BENCHJSON {\"section\": \"backend-compare\", \"modp_params\": \"sec2048\", "
        "\"modp_group_ops\": %llu, \"modp_weight\": %llu, \"modp_word_muls\": %llu, "
        "\"ec_group_ops\": %llu, \"ec_weight\": %llu, \"ec_word_muls\": %llu, "
        "\"cost_ratio\": %.3f, \"modp_element_bytes\": %zu, \"ec_element_bytes\": %zu, "
        "\"modp_wall_ms\": %.2f, \"ec_wall_ms\": %.2f, \"integrity\": %d}\n",
        static_cast<unsigned long long>(modp.ops), static_cast<unsigned long long>(modp.weight),
        static_cast<unsigned long long>(modp.word_muls),
        static_cast<unsigned long long>(ecr.ops), static_cast<unsigned long long>(ecr.weight),
        static_cast<unsigned long long>(ecr.word_muls), cost_ratio, modp.elem_bytes,
        ecr.elem_bytes, modp.wall_ms, ecr.wall_ms, (modp.ok && ecr.ok) ? 1 : 0);

    // Cross-backend equivalence panel: honest + Byzantine scenario per seed
    // on BOTH backends; every cell must complete with the original plaintext
    // at every honest server. Element values differ across backends by
    // construction; the observable protocol outcome must not.
    int cells = 0;
    int identical = 1;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      for (int byz = 0; byz < 2; ++byz) {
        bool cell_ok[2] = {false, false};
        int b = 0;
        for (group::ParamId id : {group::ParamId::kToy64, group::ParamId::kEc255}) {
          core::SystemOptions o;
          o.a = {4, 1};
          o.b = {4, 1};
          o.seed = seed;
          o.params = group::GroupParams::named(id);
          if (byz == 1) {
            o.b_behaviors.assign(4, Behavior::kHonest);
            o.b_behaviors[2] = Behavior::kInconsistentContribution;
          }
          core::System sys(std::move(o));
          core::TransferId t = sys.add_transfer(
              sys.config().params.encode_message(Bigint(1000 + seed)));
          bool ok = sys.run_to_completion();
          for (core::ServerRank rank = 1; rank <= 4 && ok; ++rank) {
            if (!sys.is_honest_b(rank)) continue;
            auto res = sys.result(t, rank);
            ok = res && sys.config().params.decode_message(sys.oracle_decrypt_b(*res)) ==
                            Bigint(1000 + seed);
          }
          cell_ok[b++] = ok;
          ++cells;
        }
        if (!cell_ok[0] || !cell_ok[1] || cell_ok[0] != cell_ok[1]) identical = 0;
      }
    }
    std::printf("cross-backend equivalence: %d cells, identical_results=%d\n", cells,
                identical);
    std::printf(
        "BENCHJSON {\"section\": \"backend-equivalence\", \"cells\": %d, "
        "\"identical_results\": %d}\n",
        cells, identical);
  }

  std::puts("");
  std::puts("Expected shape: latency grows mildly with f (more round-trip participants),");
  std::puts("messages grow ~quadratically (n broadcasts of n-sized quorum evidence);");
  std::puts("every adversarial row completes with integrity=yes and attack_signed=0.");
  return 0;
}
