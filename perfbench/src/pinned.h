// Pinned exact counts of every program the workloads deploy, per
// (program, ISA, encryption policy): the exit code, HDE + execution
// cycles on the device (the Fig 7 axis) and retired instructions. A run
// whose devices disagree with this table fails its correctness check; a
// change that moves these numbers is not a speed-up.
//
// Regenerate after a deliberate change with
//   .bench_build/perfbench/perfbench_driver --print-pins
// (entries: program, ISA, policy, {exit code, device cycles,
// instructions}).
#pragma once

#include "rig.h"

namespace perfbench {

struct PinnedEntry {
  const char* program;
  const char* isa;
  const char* policy;
  ProgramCounts counts;
};

inline constexpr PinnedEntry kPinnedCounts[] = {
    {"stringsearch", "rv64gc", "partial", {4090, 2128875, 1730318}},
    {"stringsearch", "rv32i", "partial", {4090, 3451636, 2672330}},
    {"dijkstra", "rv64gc", "partial", {3473, 1749312, 1431947}},
    {"dijkstra", "rv32i", "partial", {3473, 3192907, 2404584}},
    {"basicmath", "rv64gc", "partial", {70133, 684115, 392680}},
    {"basicmath", "rv32i", "partial", {70133, 5079738, 3465366}},
    {"fft", "rv64gc", "partial", {356261, 196118, 106520}},
    {"fft", "rv32i", "partial", {356261, 1731721, 1156534}},
    {"qsort", "rv64gc", "partial", {726557, 394176, 288849}},
    {"qsort", "rv32i", "partial", {726557, 1130434, 795352}},
    {"bitcount", "rv64gc", "partial", {31877, 1822900, 1532741}},
    {"bitcount", "rv32i", "partial", {31877, 3160256, 2446383}},
    {"synthetic-r5", "rv64gc", "full", {50612, 39477, 22234}},
    {"synthetic-r4", "rv64gc", "full", {29239, 34057, 17793}},
    {"synthetic-r3", "rv64gc", "full", {12348, 28637, 13352}},
    {"synthetic-r2", "rv64gc", "full", {3535, 23217, 8911}},
    {"synthetic-r6", "rv64gc", "full", {12159, 44897, 26675}},
};

}  // namespace perfbench
