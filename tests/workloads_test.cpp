// Workload suite tests: every kernel must compile, run on the simulator,
// and agree with its independent native C++ reference — and must survive
// the full ERIC pipeline unchanged.
#include <gtest/gtest.h>

#include <ostream>

#include "compiler/compiler.h"
#include "core/encryption_policy.h"
#include "core/software_source.h"
#include "core/trusted_execution.h"
#include "sim/soc.h"
#include "workloads/workloads.h"

namespace eric::workloads {

// Name a kernel by its name alone. gtest's default byte dump of a Workload
// includes heap pointers, so the listed test names changed on every run.
void PrintTo(const Workload& w, std::ostream* os) { *os << w.name; }

namespace {

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, SimulatorMatchesNativeReference) {
  const Workload& w = GetParam();
  auto compiled = compiler::Compile(w.source);
  ASSERT_TRUE(compiled.ok()) << w.name << ": " << compiled.status().ToString();
  sim::Soc soc;
  soc.LoadProgram(compiled->program.image);
  const sim::ExecStats stats = soc.Run();
  ASSERT_EQ(stats.halt_reason, sim::HaltReason::kExit) << w.name;
  EXPECT_EQ(stats.exit_code, w.reference()) << w.name;
}

TEST_P(WorkloadTest, SurvivesFullEricPipeline) {
  const Workload& w = GetParam();
  crypto::KeyConfig config;
  core::TrustedDevice device(0xDE5EED, config);
  core::SoftwareSource source(device.Enroll(), config);
  auto built = source.CompileAndPackage(w.source,
                                        core::EncryptionPolicy::Full());
  ASSERT_TRUE(built.ok()) << w.name << ": " << built.status().ToString();
  auto run = device.ReceiveAndRun(pkg::Serialize(built->packaging.package));
  ASSERT_TRUE(run.ok()) << w.name << ": " << run.status().ToString();
  EXPECT_EQ(run->exec.exit_code, w.reference()) << w.name;
}

TEST_P(WorkloadTest, UnoptimizedBuildAgrees) {
  const Workload& w = GetParam();
  compiler::CompileOptions options;
  options.optimize = false;
  auto compiled = compiler::Compile(w.source, options);
  ASSERT_TRUE(compiled.ok()) << w.name;
  sim::Soc soc;
  soc.LoadProgram(compiled->program.image);
  const sim::ExecStats stats = soc.Run();
  EXPECT_EQ(stats.exit_code, w.reference()) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, WorkloadTest, ::testing::ValuesIn(AllWorkloads()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return info.param.name;
    });

TEST(WorkloadSuiteTest, NineKernelsPresent) {
  EXPECT_EQ(AllWorkloads().size(), 9u);
}

TEST(WorkloadSuiteTest, FindByName) {
  EXPECT_NE(FindWorkload("qsort"), nullptr);
  EXPECT_NE(FindWorkload("dijkstra"), nullptr);
  EXPECT_EQ(FindWorkload("doom"), nullptr);
}

TEST(WorkloadSuiteTest, SizesSpanARange) {
  // The paper stresses using programs of different sizes; the suite's
  // static sizes must span at least a 3x range.
  size_t smallest = SIZE_MAX, largest = 0;
  for (const Workload& w : AllWorkloads()) {
    auto compiled = compiler::Compile(w.source);
    ASSERT_TRUE(compiled.ok()) << w.name;
    smallest = std::min(smallest, compiled->program.text_bytes);
    largest = std::max(largest, compiled->program.text_bytes);
  }
  EXPECT_GE(largest, smallest * 3);
}

TEST(WorkloadSuiteTest, CompressedFractionRealistic) {
  // rv64gc code typically has a sizable RVC share; our backend should see
  // one too (this drives the Fig 5 "1 bit per 16 bits" effect).
  for (const Workload& w : AllWorkloads()) {
    auto compiled = compiler::Compile(w.source);
    ASSERT_TRUE(compiled.ok());
    EXPECT_GT(compiled->program.stats.compressed_fraction(), 0.15) << w.name;
    EXPECT_LT(compiled->program.stats.compressed_fraction(), 0.95) << w.name;
  }
}

}  // namespace
}  // namespace eric::workloads
