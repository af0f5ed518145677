// Publish/subscribe: the application that motivated the paper (§1).
//
//   build/examples/pubsub
//
// A trusted broker service (A) holds encrypted publications; a subscriber
// service (B) receives them by re-encryption. The example demonstrates the
// two step-flexibility optimizations on a realistic flow:
//
//   * blinding pairs for upcoming publications are produced by the
//     SUBSCRIBER side ahead of time (offloading + pre-computation), and
//   * when a publication finally arrives at the broker, only one threshold
//     decryption remains on the critical path.
#include <cstdio>
#include <string>
#include <vector>

#include "core/system.hpp"

int main() {
  using namespace dblind;  // NOLINT

  core::SystemOptions opts;
  opts.params = group::GroupParams::named(group::ParamId::kTest256);
  opts.seed = 99;
  core::System system(std::move(opts));

  // Three topics; their payloads are "published" (arrive at the broker) at
  // different times, while the blinding machinery runs from t = 0.
  struct Publication {
    std::string topic;
    std::string payload;
    net::Time published_at;
  };
  std::vector<Publication> pubs = {
      {"alerts/weather", "storm warning: flooding", 1'000'000},
      {"markets/fx", "EURUSD 1.0842 bid", 2'000'000},
      {"ops/status", "all systems nominal", 3'000'000},
  };

  std::vector<core::TransferId> transfers;
  for (const Publication& p : pubs) {
    mpz::Bigint m = system.config().params.encode_bytes(
        {reinterpret_cast<const std::uint8_t*>(p.payload.data()), p.payload.size()});
    transfers.push_back(system.add_transfer_at(m, p.published_at));
    std::printf("scheduled publication on %-16s at t=%.0f ms\n", p.topic.c_str(),
                p.published_at / 1000.0);
  }

  std::puts("\nsubscriber-side blinding starts immediately (before any payload exists)...");
  if (!system.run_to_completion()) {
    std::puts("delivery failed");
    return 1;
  }

  std::puts("\ndeliveries:");
  bool all_ok = true;
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    auto ct = system.result(transfers[i]);
    if (!ct) {
      std::printf("  %-16s NOT delivered\n", pubs[i].topic.c_str());
      all_ok = false;
      continue;
    }
    auto bytes = system.config().params.decode_bytes(system.oracle_decrypt_b(*ct));
    std::string got(bytes.begin(), bytes.end());
    bool ok = got == pubs[i].payload;
    all_ok = all_ok && ok;
    std::printf("  %-16s -> \"%s\" [%s]\n", pubs[i].topic.c_str(), got.c_str(),
                ok ? "ok" : "CORRUPT");
  }
  std::printf("\ntotal: %.1f ms virtual time, %llu messages; last payload appeared at 3000 ms\n",
              system.sim().stats().end_time / 1000.0,
              static_cast<unsigned long long>(system.sim().stats().messages_sent));
  std::printf("post-publication latency of final topic: ~%.1f ms (blinding pre-ran)\n",
              (system.sim().stats().end_time - 3'000'000) / 1000.0);
  return all_ok ? 0 : 1;
}
