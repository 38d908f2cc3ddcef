// Index refresh across epochs without intersection leakage.
//
// The paper's index is static; this example shows the library's epoch
// manager rebuilding the index as the network evolves — with *sticky* noise
// and mixing decisions, so an observer diffing successive snapshots learns
// only what actually changed, never the identity of the noise.
//
// Run: ./epoch_refresh
#include <iostream>

#include "core/epoch_manager.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"

int main() {
  eppi::Rng rng(31);
  constexpr std::size_t kProviders = 120;
  constexpr std::size_t kOwners = 80;

  std::vector<std::uint64_t> freqs(kOwners, 2);
  freqs[0] = 115;  // one common identity
  auto network =
      eppi::dataset::make_network_with_frequencies(kProviders, freqs, rng);
  std::vector<double> epsilons(kOwners, 0.7);

  eppi::core::EpochManager manager;

  // Epoch 1: initial construction.
  const auto e1 = manager.rebuild(network.membership, epsilons);
  std::cout << "epoch 1: published " << e1.index->matrix().popcount()
            << " claims, lambda=" << e1.info.lambda << "\n";

  // Epoch 2: nothing changed — the snapshot must be bit-identical.
  const auto e2 = manager.rebuild(network.membership, epsilons);
  std::cout << "epoch 2: unchanged network -> churn " << e2.churn
            << " cells (snapshot identical: "
            << (e1.index->matrix() == e2.index->matrix() ? "yes" : "no")
            << ")\n";

  // Epoch 3: owner 10 visits two new providers.
  std::size_t added = 0;
  for (std::size_t i = 0; i < kProviders && added < 2; ++i) {
    if (!network.membership.get(i, 10)) {
      network.membership.set(i, 10, true);
      ++added;
    }
  }
  const auto e3 = manager.rebuild(network.membership, epsilons);
  std::cout << "epoch 3: owner 10 visited 2 new providers -> churn "
            << e3.churn << " cells (only owner 10's column moves)\n";

  // Epoch 4: owner 20 tightens privacy.
  epsilons[20] = 0.95;
  const auto e4 = manager.rebuild(network.membership, epsilons);
  std::cout << "epoch 4: owner 20 raised eps to 0.95 -> churn " << e4.churn
            << " cells; owner 20's apparent frequency "
            << e3.index->apparent_frequency(20) << " -> "
            << e4.index->apparent_frequency(20)
            << " (noise only ever added)\n";

  // Recall invariant holds in every epoch.
  std::cout << "full recall in final epoch: "
            << (eppi::core::full_recall(network.membership,
                                        e4.index->matrix())
                    ? "yes"
                    : "NO (bug!)")
            << '\n';
  return 0;
}
