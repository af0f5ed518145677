// Shared declarations of the perfbench benchmark program (see README.md).
#pragma once

#include <array>
#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "group/params.hpp"

namespace perfbench {

// One workload: a deployment shape driven through many equal rounds.
struct Workload {
  std::string_view name;
  dblind::group::ParamId group;
  std::size_t n;  // servers per service (both services)
  std::size_t f;
  // f = 2 Byzantine B servers (one kInconsistentContribution, one
  // kWithholdPartial) and one same-roster B reconfiguration mid-round.
  bool churn;
  int transfers;       // per round
  int rounds_per_10s;  // run length: rounds = rounds_per_10s * seconds / 10
};

[[nodiscard]] const Workload* find_workload(std::string_view name);

// splitmix64: the benchmark's own deterministic input stream.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1), 53 bits

 private:
  std::uint64_t state_;
};

// Seed of round `round` of a run with workload seed `seed`.
[[nodiscard]] std::uint64_t round_seed(std::uint64_t seed, int round);

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// Handler slots of the traced run: MsgType values 1..28 index directly; slot 0
// collects every step that delivered no message (timers and start handlers).
constexpr std::size_t kSlots = 29;
constexpr std::size_t kTimerSlot = 0;

// Everything one round measures with tracing off.
struct RoundStats {
  int attempted = 0;
  int completed = 0;      // every honest B server holds the oracle-correct result
  bool installed = true;  // churn: every honest B server reached config epoch 1
  double setup_s = 0;     // DKG + server construction + start handlers, wall
  std::uint64_t setup_word_muls = 0;
  double transfer_wall_s = 0;
  double transfer_cpu_s = 0;  // process CPU
  std::uint64_t transfer_word_muls = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// One simulator step of a traced round (one delivered message or timer).
struct Span {
  int round = 0;        // parent: the round span
  int node = -1;        // simulator node; -1 when no message was delivered
  std::size_t slot = kTimerSlot;
  std::int64_t start_ns = 0;  // wall, relative to the run start
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;    // thread CPU
  std::uint64_t word_muls = 0;
};

// Accumulates the traced rounds of one run.
struct TraceSink {
  int round = 0;  // set by the caller before each traced round
  std::int64_t run_start_ns = 0;
  std::array<std::int64_t, kSlots> cpu_ns{};
  std::array<std::uint64_t, kSlots> word_muls{};
  std::int64_t phase_cpu_ns = 0;   // whole transfer phases, thread CPU
  std::vector<double> latency_us;  // arrival -> first honest result, virtual
  double makespan_us = 0;          // first arrival -> last first-result, summed
  std::uint64_t verify_pass = 0;
  std::uint64_t verify_fail = 0;
  std::uint64_t batch_fallbacks = 0;
  std::uint64_t batch_checks = 0;
  std::uint64_t epoch_aborts = 0;
  std::uint64_t retransmits = 0;
  double service_a_s = 0;
  double service_b_s = 0;
  std::vector<Span> spans;
};

// Runs one round: set-up, open-loop transfer phase, oracle check. With a
// sink the round installs a metrics registry and steps the simulator one
// event at a time; without one it installs nothing.
[[nodiscard]] RoundStats run_round(const Workload& w, std::uint64_t seed, int transfers,
                                   TraceSink* trace);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Times each lower layer's public functions on the workload's group and
// (n, f). Every probe checks its result; returns false if any check failed.
[[nodiscard]] bool run_probes(const Workload& w, std::uint64_t seed, std::vector<Metric>& out);

}  // namespace perfbench
