// Proactive epochs: why re-encryption beats PSS storage against a MOBILE
// adversary (paper §5).
//
//   build/examples/proactive_epochs
//
// A mobile adversary compromises different servers in different periods.
// Defense: refresh the secret-shared material every epoch so that shares
// stolen in different epochs do not combine. This example contrasts:
//
//   * a PSS-style vault storing S secrets as shares — refreshing costs one
//     resharing PER SECRET per epoch, and
//   * the paper's architecture storing E_A(m) ciphertexts — only the ONE set
//     of key shares is refreshed, in O(1) per epoch, with the service public
//     key (and thus every stored ciphertext) unchanged.
//
// It then simulates a two-epoch mobile adversary and shows that mixed-epoch
// shares are useless while the refreshed service keeps decrypting.
#include <chrono>
#include <cstdio>
#include <vector>

#include "baselines/pss_transfer.hpp"
#include "threshold/reshare.hpp"
#include "threshold/thresh_decrypt.hpp"

int main() {
  using namespace dblind;  // NOLINT
  using Clock = std::chrono::steady_clock;

  group::GroupParams gp = group::GroupParams::named(group::ParamId::kTest256);
  mpz::Prng prng(1337);

  // --- the paper's architecture: ciphertext store + one threshold key ------
  threshold::ServiceKeyMaterial key_epoch0 =
      threshold::ServiceKeyMaterial::dealer_keygen(gp, {4, 1}, prng);
  constexpr int kStoredSecrets = 64;
  std::vector<mpz::Bigint> plaintexts;
  std::vector<elgamal::Ciphertext> vault;
  for (int i = 0; i < kStoredSecrets; ++i) {
    plaintexts.push_back(gp.random_element(prng));
    vault.push_back(key_epoch0.public_key().encrypt(plaintexts.back(), prng));
  }
  std::printf("service stores %d encrypted secrets under one threshold key\n", kStoredSecrets);

  auto t0 = Clock::now();
  threshold::ServiceKeyMaterial key_epoch1 =
      threshold::reshare_service(key_epoch0, key_epoch0.config(), prng);
  double ours_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::printf("epoch refresh (ours): ONE key resharing          = %7.2f ms\n", ours_ms);

  // --- PSS-style vault: every secret is itself share-stored ----------------
  t0 = Clock::now();
  for (int i = 0; i < kStoredSecrets; ++i) {
    auto poly = threshold::sharing_polynomial(gp.random_exponent(prng), 1, gp.q(), prng);
    auto commitments = threshold::feldman_commit(gp, poly);
    std::vector<threshold::Share> quorum;
    for (std::uint32_t j = 1; j <= 2; ++j)
      quorum.push_back({j, threshold::eval_polynomial(poly, j, gp.q())});
    (void)baselines::pss_transfer(gp, quorum, commitments, 4, 1, prng);
  }
  double pss_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::printf("epoch refresh (PSS vault): %d resharings          = %7.2f ms  (%.0fx)\n",
              kStoredSecrets, pss_ms, pss_ms / ours_ms);

  // --- the mobile adversary ------------------------------------------------
  // Epoch 0: steals server 1's key share. Epoch 1 (after refresh): steals
  // server 2's. f+1 = 2 shares in hand — but from different epochs.
  threshold::Share stolen_old = key_epoch0.share_of(1);
  threshold::Share stolen_new = key_epoch1.share_of(2);
  std::vector<threshold::Share> mixed = {stolen_old, stolen_new};
  mpz::Bigint guess = threshold::shamir_reconstruct(mixed, gp.q());
  bool broken = gp.pow_g(guess) == key_epoch0.public_key().y();
  std::printf("mobile adversary combines epoch-0 + epoch-1 shares: key recovered? %s\n",
              broken ? "YES (!!)" : "no — refresh worked");

  // --- and the service still works ------------------------------------------
  std::vector<threshold::DecryptionShare> shares;
  for (std::uint32_t i : {3u, 4u})
    shares.push_back(
        threshold::make_decryption_share(gp, vault[7], key_epoch1.share_of(i), "epoch1", prng));
  bool ok = threshold::combine_decryption(gp, vault[7], shares) == plaintexts[7];
  std::printf("epoch-1 servers decrypt an epoch-0 ciphertext: %s\n",
              ok ? "correct (public key never changed)" : "FAILED");
  std::printf("\nsummary: refresh cost O(1) vs O(#secrets); mixed-epoch shares useless.\n");
  return (!broken && ok) ? 0 : 1;
}
