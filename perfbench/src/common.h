// Shared pieces of the repo benchmark: run options, the report every run
// prints, process clocks, exact sample statistics, and the workload inputs
// (trained model, seeded test inputs, key pair, compiled plan).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/protocol.h"
#include "crypto/paillier.h"
#include "nn/model.h"
#include "nn/model_zoo.h"

namespace perfbench {

using ppstream::DoubleTensor;
using ppstream::InferencePlan;
using ppstream::Model;
using ppstream::PaillierKeyPair;

/// Key size of every workload.
constexpr int kKeyBits = 512;
/// Fixed-point scale F every plan is compiled at.
constexpr int64_t kScale = 10000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_dir;

  /// A traced run splits --seconds between an untraced phase (its
  /// reference for the tracing overhead) and the traced phase, so it
  /// costs about as much as a timed run.
  double timed_seconds() const { return trace ? seconds / 2 : seconds; }
  double traced_seconds() const { return seconds / 2; }
};

/// Monotonic seconds.
double NowSeconds();
/// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Exact quantile of the samples (linear interpolation between order
/// statistics), never a histogram bucket edge. 0 for no samples.
double Quantile(std::vector<double> samples, double q);

/// What one run prints as its last line: metrics by name with unit,
/// operations attempted and failed, and whether every check passed.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` makes the run incorrect
  /// and prints `what` to stderr.
  void Check(bool ok, const std::string& what);
  bool correct() const { return checks_failed_ == 0; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t checks_failed_ = 0;
};

/// The inputs of one workload. The model is trained from fixed seeds, so
/// it (and every op count it implies) is the same for every --seed; the
/// test inputs are generated from --seed.
struct Inputs {
  Model model;
  std::vector<DoubleTensor> samples;
  /// Dataset generation + training time (input generation, excluded
  /// from setup_s).
  double seconds = 0;
};
Inputs MakeInputs(ppstream::ZooModelId id, double train_scale,
                  double test_scale, uint64_t seed);

/// Deterministic key pair: the prime search does the same work in every
/// run, so keygen time in setup_s does not depend on --seed.
PaillierKeyPair MakeKeys(uint64_t key_seed);

/// Compiles `model` with the packing passes on for kKeyBits keys.
std::shared_ptr<const InferencePlan> CompilePackedPlan(const Model& model,
                                                       double* seconds);

/// Deltas of the program's own crypto / cost counters (public registry).
struct Counts {
  uint64_t encrypts = 0;
  uint64_t decrypts = 0;
  uint64_t scalar_muls = 0;
  uint64_t pack_hom_adds = 0;
  uint64_t pool_produced = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_hits = 0;
  uint64_t cost_reconciled = 0;

  static Counts Read();
  Counts operator-(const Counts& base) const;
};

/// CPUs this process may run on (what nproc prints; at least 1).
unsigned HardwareThreads();

/// Seconds from process start to now, minus `input_seconds` spent making
/// inputs: the run's cold set-up time.
double SetupSeconds(double input_seconds);

/// What the timed (untraced) phase measured.
/// One client call: a request (or a packed batch) and its outputs.
struct Outcome {
  uint64_t id = 0;
  /// Index into the workload's inputs of each output's input.
  std::vector<size_t> inputs;
  double start = 0;
  double end = 0;
  std::vector<DoubleTensor> outputs;
};

/// First start to last end of the outcomes (0 for none).
double Makespan(const std::vector<Outcome>& outcomes);
/// Outputs (inferences) per second over the makespan.
double Throughput(const std::vector<Outcome>& outcomes);
/// `count` per request (0 for no requests).
double PerRequest(uint64_t count, size_t requests);

struct TimedPhase {
  /// Latencies, inference count and throughput of the phase's outcomes.
  explicit TimedPhase(const std::vector<Outcome>& outcomes);

  /// Per-request latencies (per batch on the packed path), seconds.
  std::vector<double> latencies;
  double inferences = 0;
  double throughput_ips = 0;
  double cpu_seconds = 0;
  /// Cross-party bytes, both directions.
  double comm_bytes = 0;
};

/// Adds every end-to-end metric to `report`.
void ReportEndToEnd(Report& report, const TimedPhase& phase, double setup_s);

}  // namespace perfbench
