#include "puf/arbiter_puf.h"

#include <cassert>

namespace eric::puf {

ArbiterPuf::ArbiterPuf(int challenge_bits, uint64_t device_seed,
                       uint64_t instance_index, const PufProcessModel& model)
    : challenge_bits_(challenge_bits), noise_sigma_(model.noise_sigma) {
  assert(challenge_bits > 0 && challenge_bits <= 64);
  // Mix device and instance so each PUF instance on a device has
  // independent (but reproducible) silicon.
  SplitMix64 mixer(device_seed);
  uint64_t seed = mixer.Next() ^ (instance_index * 0x9E3779B97F4A7C15ull);
  Xoshiro256 rng(seed);
  stages_.reserve(static_cast<size_t>(challenge_bits));
  for (int i = 0; i < challenge_bits; ++i) {
    // Four draws per stage, in the order top/bottom straight, then
    // top/bottom crossed.
    const double top_straight = rng.NextGaussian() * model.variation_sigma;
    const double bottom_straight = rng.NextGaussian() * model.variation_sigma;
    const double top_crossed = rng.NextGaussian() * model.variation_sigma;
    const double bottom_crossed = rng.NextGaussian() * model.variation_sigma;
    stages_.push_back(StageDelays{
        .straight = top_straight - bottom_straight,
        .crossed = top_crossed - bottom_crossed,
    });
  }
}

double ArbiterPuf::DelayDifference(uint64_t challenge) const {
  // Track (top path delay - bottom path delay). A crossed stage swaps the
  // racing signals, so the accumulated difference negates before adding
  // that stage's contribution.
  double diff = 0.0;
  for (int i = 0; i < challenge_bits_; ++i) {
    const bool crossed = (challenge >> i) & 1u;
    const StageDelays& s = stages_[static_cast<size_t>(i)];
    diff = crossed ? -diff + s.crossed : diff + s.straight;
  }
  return diff;
}

bool ArbiterPuf::EvaluateIdeal(uint64_t challenge) const {
  return DelayDifference(challenge) > 0.0;
}

bool ArbiterPuf::EvaluateNoisy(uint64_t challenge, Xoshiro256& rng) const {
  const double noisy =
      DelayDifference(challenge) + rng.NextGaussian() * noise_sigma_;
  return noisy > 0.0;
}

bool ArbiterPuf::EvaluateStabilized(uint64_t challenge, Xoshiro256& rng,
                                    int votes) const {
  assert(votes > 0 && votes % 2 == 1 && "temporal majority needs odd votes");
  int ones = 0;
  for (int i = 0; i < votes; ++i) {
    ones += EvaluateNoisy(challenge, rng) ? 1 : 0;
  }
  return ones * 2 > votes;
}

}  // namespace eric::puf
