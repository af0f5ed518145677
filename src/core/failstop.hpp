// The fail-stop distributed blinding protocol of paper Figure 3.
//
// This is the paper's stepping-stone variant: no signatures, no commitments,
// no VDE — just init → contribute → combine. It is correct against fail-stop
// adversaries (crash + disclosure) but NOT against Byzantine ones: the
// adaptive-contribution attack of §4.2.1 lets a compromised coordinator
// choose the blinding factor. Both behaviours are implemented here so tests
// and benches can demonstrate the attack succeeding against Figure 3 and
// failing against Figure 4.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "elgamal/elgamal.hpp"
#include "net/sim.hpp"

namespace dblind::core {

struct FailstopOptions {
  group::GroupParams params = group::GroupParams::named(group::ParamId::kToy64);
  std::size_t n = 4;
  std::size_t f = 1;
  std::uint64_t seed = 1;
  net::Time delay_min = 500;
  net::Time delay_max = 20'000;
  // Backup-coordinator start delay ((rank-1)·delay); f+1 coordinators total.
  net::Time backup_delay = 400'000;
  // Ranks crashed from the start.
  std::set<std::uint32_t> crashed;
  // Coordinator 1 mounts the §4.2.1 adaptive-cancellation attack.
  bool adaptive_attack = false;
};

// The fail-stop protocol's two frames: a FailstopType byte, then the
// message. Unsigned: the fail-stop model has no Byzantine senders.
enum class FailstopType : std::uint8_t { kInit = 1, kContribute = 2 };

struct FailstopInit {
  std::uint32_t coordinator = 0;
};

struct FailstopContribute {
  std::uint32_t coordinator = 0;
  std::uint32_t server = 0;
  Contribution contribution;
};

struct FailstopOutcome {
  Contribution blinded;       // (E_A(ρ), E_B(ρ))
  bool by_attacker = false;   // produced by the Byzantine coordinator
};

class FailstopBlindingSystem {
 public:
  explicit FailstopBlindingSystem(FailstopOptions opts);

  // Runs until at least one CORRECT coordinator produced an output (the
  // paper's progress criterion) — or, with adaptive_attack, until the
  // attacker produced its spliced output too.
  bool run(std::uint64_t max_events = 10'000'000);

  // Output of coordinator `rank` (1-based), if it finished.
  [[nodiscard]] std::optional<FailstopOutcome> outcome(std::uint32_t rank) const;
  // The ρ̂ the attacker chose (meaningful only with adaptive_attack).
  [[nodiscard]] const mpz::Bigint& attacker_rho() const { return attacker_rho_; }

  // Oracle decryption of blinding pairs for verification.
  [[nodiscard]] mpz::Bigint decrypt_a(const elgamal::Ciphertext& c) const;
  [[nodiscard]] mpz::Bigint decrypt_b(const elgamal::Ciphertext& c) const;
  // Consistency check: both halves of an outcome encrypt the same ρ.
  [[nodiscard]] bool consistent(const FailstopOutcome& o) const;

  [[nodiscard]] net::Simulator& sim() { return *sim_; }

 private:
  class ServerNode;

  FailstopOptions opts_;
  std::unique_ptr<elgamal::KeyPair> ka_;
  std::unique_ptr<elgamal::KeyPair> kb_;
  std::unique_ptr<net::Simulator> sim_;
  std::vector<ServerNode*> nodes_;
  mpz::Bigint attacker_rho_;
};

}  // namespace dblind::core
