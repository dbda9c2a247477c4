// Tests for the arbiter-PUF model, PUF key generator, and quality metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "puf/arbiter_puf.h"
#include "puf/puf_key_generator.h"
#include "puf/puf_metrics.h"

namespace eric::puf {
namespace {

TEST(ArbiterPufTest, DeterministicPerDevice) {
  ArbiterPuf a(8, /*device_seed=*/1, /*instance=*/0);
  ArbiterPuf b(8, /*device_seed=*/1, /*instance=*/0);
  for (uint64_t c = 0; c < 256; ++c) {
    EXPECT_EQ(a.EvaluateIdeal(c), b.EvaluateIdeal(c)) << c;
  }
}

TEST(ArbiterPufTest, DevicesDiffer) {
  ArbiterPuf a(8, 1, 0), b(8, 2, 0);
  int differing = 0;
  for (uint64_t c = 0; c < 256; ++c) {
    differing += a.EvaluateIdeal(c) != b.EvaluateIdeal(c);
  }
  // Ideal uniqueness is ~50 % on average, but a single device pair under
  // the linear delay model has high variance (challenge responses are
  // correlated); a broad band still proves device separation.
  EXPECT_GT(differing, 40);
  EXPECT_LT(differing, 216);
}

TEST(ArbiterPufTest, InstancesOnSameDeviceDiffer) {
  ArbiterPuf a(8, 1, 0), b(8, 1, 1);
  int differing = 0;
  for (uint64_t c = 0; c < 256; ++c) {
    differing += a.EvaluateIdeal(c) != b.EvaluateIdeal(c);
  }
  EXPECT_GT(differing, 64);
}

TEST(ArbiterPufTest, ChallengeChangesResponse) {
  ArbiterPuf puf(8, 3, 0);
  int ones = 0;
  for (uint64_t c = 0; c < 256; ++c) ones += puf.EvaluateIdeal(c);
  // Not constant (a stuck PUF would be 0 or 256).
  EXPECT_GT(ones, 32);
  EXPECT_LT(ones, 224);
}

TEST(ArbiterPufTest, NoiseFlipsOnlyNearThreshold) {
  PufProcessModel model;
  model.noise_sigma = 0.05;
  ArbiterPuf puf(8, 7, 0, model);
  Xoshiro256 rng(99);
  for (uint64_t c = 0; c < 64; ++c) {
    const double margin = puf.DelayDifference(c);
    if (std::abs(margin) > 0.5) {
      // Far from threshold: 20 measurements must agree with ideal.
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(puf.EvaluateNoisy(c, rng), puf.EvaluateIdeal(c))
            << "challenge " << c << " margin " << margin;
      }
    }
  }
}

TEST(ArbiterPufTest, MajorityVotingStabilizes) {
  PufProcessModel noisy;
  noisy.noise_sigma = 0.3;  // deliberately bad silicon
  ArbiterPuf puf(8, 11, 0, noisy);
  Xoshiro256 rng(5);
  int stable_disagreements = 0;
  for (uint64_t c = 0; c < 128; ++c) {
    const bool ideal = puf.EvaluateIdeal(c);
    if (std::abs(puf.DelayDifference(c)) < 0.2) continue;  // metastable bits
    if (puf.EvaluateStabilized(c, rng, 25) != ideal) ++stable_disagreements;
  }
  EXPECT_LE(stable_disagreements, 2);
}

TEST(ArbiterPufTest, DelayDifferenceIsLinearish) {
  // The additive model must respond to every challenge bit: flipping one
  // challenge bit must change the delay difference for most challenges.
  ArbiterPuf puf(8, 13, 0);
  int changed = 0;
  for (uint64_t c = 0; c < 128; ++c) {
    if (puf.DelayDifference(c) != puf.DelayDifference(c ^ 1)) ++changed;
  }
  EXPECT_EQ(changed, 128);
}

TEST(ArbiterPufTest, DelayDifferenceIsPinned) {
  // Exact values (hex floats, bit for bit) of instance 3 on three devices.
  // They pin the silicon model: the draw order and the per-stage
  // arithmetic may be restructured, but no device's delays may move.
  struct Pin {
    uint64_t seed;
    uint64_t challenge;
    double diff;
  };
  const Pin pins[] = {
      {1, 0x00, -0x1.e77c711bdb482p+1},   {1, 0x5A, 0x1.58eaef73c0ccp+1},
      {1, 0xFF, -0x1.d714fc9134039p+1},   {42, 0x00, 0x1.68b8ff1b0ca82p-1},
      {42, 0x5A, 0x1.de6db5f7b5c06p-1},   {42, 0xFF, -0x1.399508c4d59fcp+2},
      {0xDE5EED, 0x00, 0x1.a20774069c47p+2},
      {0xDE5EED, 0x5A, -0x1.dad5603e51b8ap+2},
      {0xDE5EED, 0xFF, -0x1.8d4b4e673e2d1p+0},
  };
  for (const Pin& pin : pins) {
    ArbiterPuf puf(8, pin.seed, /*instance=*/3);
    EXPECT_EQ(puf.DelayDifference(pin.challenge), pin.diff)
        << "seed " << pin.seed << " challenge " << pin.challenge;
  }
}

// --- PKG -----------------------------------------------------------------

TEST(PkgTest, RawMajorityKeyIsMostlyStable) {
  PufKeyGenerator pkg(/*device_seed=*/42);
  Xoshiro256 rng1(1), rng2(2);
  const auto k1 = pkg.GenerateKey(rng1);
  const auto k2 = pkg.GenerateKey(rng2);
  // Plain temporal majority leaves the occasional metastable bit — that is
  // precisely why the fuzzy extractor below exists.
  int differing_bits = 0;
  for (size_t i = 0; i < k1.size(); ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(k1[i] ^ k2[i]));
  }
  EXPECT_LE(differing_bits, 8);
}

TEST(PkgTest, FuzzyExtractorRegeneratesExactKey) {
  PufKeyGenerator pkg(/*device_seed=*/42);
  Xoshiro256 enroll_rng(1);
  const auto enrollment = pkg.Enroll(enroll_rng);
  // Many power-ups, each with fresh measurement noise: the helper data
  // must recover the exact enrolled key every time.
  for (uint64_t powerup = 0; powerup < 10; ++powerup) {
    Xoshiro256 rng(1000 + powerup);
    EXPECT_EQ(pkg.RegenerateKey(enrollment.helper, rng), enrollment.key)
        << "power-up " << powerup;
  }
}

TEST(PkgTest, HelperDataIsUselessOnWrongDevice) {
  PufKeyGenerator device_a(42), device_b(43);
  Xoshiro256 rng(1);
  const auto enrollment = device_a.Enroll(rng);
  Xoshiro256 rng2(2);
  const auto stolen = device_b.RegenerateKey(enrollment.helper, rng2);
  // Device B's silicon decodes garbage: a large fraction of bits differ.
  int differing_bits = 0;
  for (size_t i = 0; i < stolen.size(); ++i) {
    differing_bits += std::popcount(
        static_cast<unsigned>(stolen[i] ^ enrollment.key[i]));
  }
  EXPECT_GT(differing_bits, 60);
}

TEST(PkgTest, EnrollmentIsDeterministicPerDevice) {
  PufKeyGenerator pkg(77);
  Xoshiro256 r1(1), r2(9);
  // Key derivation is from noise-free silicon, so two enrollments agree on
  // the key (helper data may differ — it absorbs the measurement noise).
  EXPECT_EQ(pkg.Enroll(r1).key, pkg.Enroll(r2).key);
}

TEST(PkgTest, KeyMatchesEnrollment) {
  PufKeyGenerator pkg(/*device_seed=*/43);
  Xoshiro256 rng(1);
  const auto live = pkg.GenerateKey(rng);
  const auto enrolled = pkg.IdealKey();
  int differing_bits = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    differing_bits +=
        std::popcount(static_cast<unsigned>(live[i] ^ enrolled[i]));
  }
  EXPECT_LE(differing_bits, 1);
}

TEST(PkgTest, IdealKeyIsPinned) {
  // The noise-free key of three devices, byte for byte: enrolled fleets
  // keep their keys across changes to the PUF model's representation.
  const std::pair<uint64_t, const char*> pins[] = {
      {1, "b470a1107bdedecb92299cda0277c5ad42b718fd43eebe83dae5b7a3f667c22d"},
      {42, "d560be187420fe53838db61e17593a416712e0ae9cdff45abab58c9a957fd93e"},
      {0xDE5EED,
       "2e8334af84f558e52780b7202b8779bec9bb9f3ab90d9ef7828888df6e81547b"},
  };
  for (const auto& [seed, hex] : pins) {
    std::string got;
    for (uint8_t byte : PufKeyGenerator(seed).IdealKey()) {
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02x", byte);
      got += buf;
    }
    EXPECT_EQ(got, hex) << "seed " << seed;
  }
}

TEST(PkgTest, DevicesGetDistinctKeys) {
  PufKeyGenerator a(100), b(101);
  const auto ka = a.IdealKey();
  const auto kb = b.IdealKey();
  int differing_bits = 0;
  for (size_t i = 0; i < ka.size(); ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(ka[i] ^ kb[i]));
  }
  // Ideal: ~128 of 256 bits differ.
  EXPECT_GT(differing_bits, 80);
  EXPECT_LT(differing_bits, 176);
}

TEST(PkgTest, KeyIsNotDegenerate) {
  PufKeyGenerator pkg(7);
  const auto key = pkg.IdealKey();
  int ones = 0;
  for (uint8_t byte : key) ones += std::popcount(static_cast<unsigned>(byte));
  EXPECT_GT(ones, 64);
  EXPECT_LT(ones, 192);
}

TEST(PkgTest, ChallengeScheduleIsPublicAndFixed) {
  PufKeyGenerator a(1), b(2);
  for (int i = 0; i < 32; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      EXPECT_EQ(a.ScheduledChallenge(i, bit), b.ScheduledChallenge(i, bit));
      EXPECT_LT(a.ScheduledChallenge(i, bit), 256u);  // 8-bit challenges
    }
  }
}

TEST(PkgTest, TableIConfiguration) {
  // The default PKG matches Table I: 32 instances x 8-bit challenges.
  PufKeyGenerator pkg(1);
  EXPECT_EQ(pkg.config().instances, 32);
  EXPECT_EQ(pkg.config().challenge_bits, 8);
  EXPECT_EQ(pkg.config().instances * pkg.config().bits_per_instance, 256);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, HammingDistance) {
  EXPECT_EQ(HammingDistanceBits({0x00}, {0xFF}), 8);
  EXPECT_EQ(HammingDistanceBits({0xF0, 0x0F}, {0x0F, 0x0F}), 8);
  EXPECT_EQ(HammingDistanceBits({0xAA}, {0xAA}), 0);
}

TEST(MetricsTest, QualityInHealthyBands) {
  PufStudyConfig config;
  config.devices = 40;
  config.challenges = 64;
  config.remeasurements = 15;
  const PufQualityReport report = CharacterizeArbiterPuf(config);

  // Canonical arbiter-PUF quality bands (Maes & Verbauwhede).
  EXPECT_GT(report.uniformity_percent, 35.0);
  EXPECT_LT(report.uniformity_percent, 65.0);
  EXPECT_GT(report.uniqueness_percent, 40.0);
  EXPECT_LT(report.uniqueness_percent, 60.0);
  EXPECT_GT(report.reliability_percent, 90.0);
}

TEST(MetricsTest, MoreNoiseLowersReliability) {
  PufStudyConfig quiet, loud;
  quiet.devices = loud.devices = 20;
  quiet.challenges = loud.challenges = 32;
  quiet.process.noise_sigma = 0.02;
  loud.process.noise_sigma = 0.5;
  const auto q = CharacterizeArbiterPuf(quiet);
  const auto l = CharacterizeArbiterPuf(loud);
  EXPECT_GT(q.reliability_percent, l.reliability_percent);
}

TEST(MetricsTest, ReportEchoesConfig) {
  PufStudyConfig config;
  config.devices = 10;
  config.challenges = 16;
  config.remeasurements = 5;
  const auto report = CharacterizeArbiterPuf(config);
  EXPECT_EQ(report.devices, 10);
  EXPECT_EQ(report.challenges, 16);
  EXPECT_EQ(report.remeasurements, 5);
}

}  // namespace
}  // namespace eric::puf
