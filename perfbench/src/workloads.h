// The three workloads. Each builds its system, runs the timed phase through
// top-level entry points only, checks every output, and adds its metrics
// to the report: the end-to-end ones, or (with Options::trace) a traced
// phase's per-layer ones.
#pragma once

#include "common.h"

namespace perfbench {

/// MNIST-2 through the in-process pipelined PpStreamEngine.
void RunStreamMnist2(const Options& options, Report& report);
/// Heart served over loopback TCP to concurrent data-provider sessions.
void RunServeHeart(const Options& options, Report& report);
/// MNIST-2 lane-batched through RunPackedBatchInference.
void RunBatchMnist2(const Options& options, Report& report);

}  // namespace perfbench
