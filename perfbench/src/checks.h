// Correctness checks every run makes, untimed, against independent
// references (never against a stored copy of an earlier output). Each
// check is a predicate returning "" when it holds and the reason when it
// does not, so SelfTest can feed every one a deliberately wrong value.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "obs/cost.h"

namespace perfbench {

/// Largest |encrypted output - float Model::Forward| accepted. Quantizing
/// at F = 10^4, the worst seen over 3000 MNIST-2 test inputs (15 seeds) is
/// 2.1e-3, and 2.9e-4 over 900 Heart inputs; each run prints its own
/// maximum. The bound leaves about 5x headroom.
constexpr double kFloatBound = 1e-2;

std::string CheckBitIdentical(const DoubleTensor& out,
                              const DoubleTensor& scaled_reference);
std::string CheckFloatBound(const DoubleTensor& out,
                            const DoubleTensor& float_reference,
                            double* max_error);
/// The argmax must match wherever the float top-2 margin exceeds
/// kFloatBound.
std::string CheckArgmax(const DoubleTensor& out,
                        const DoubleTensor& float_reference);
std::string CheckSoftmax(const DoubleTensor& out);
/// Counted encrypts and scalar-muls equal `units` times the plan's price.
std::string CheckPrice(const Counts& delta, uint64_t units,
                       const ppstream::obs::RequestCostBudget& budget);
/// Socket bytes cover at least the ciphertext payload.
std::string CheckPayload(uint64_t socket_bytes, uint64_t payload_bytes);
/// A request's provider spans fit inside its independently timed latency.
std::string CheckSpansFit(double span_seconds, double latency_seconds);

/// References for the workload's inputs, computed lazily and cached:
/// RunScaledPlainInference (the bit-exact integer reference) and the float
/// Model::Forward. Thread-safe.
class OutputChecker {
 public:
  OutputChecker(std::shared_ptr<const InferencePlan> plan, const Model& model,
                const std::vector<DoubleTensor>& inputs);

  /// Runs every output check on `out`, the output for inputs[index].
  std::string Check(size_t index, const DoubleTensor& out);
  double max_float_error() const;

  /// Feeds each output check a copy of `out` (a correct output for
  /// inputs[index]) with one element flipped, and fails the report if any
  /// check accepts it.
  void SelfTest(Report& report, size_t index, const DoubleTensor& out);

 private:
  struct Refs {
    DoubleTensor scaled;
    DoubleTensor floating;
  };
  const Refs& RefsFor(size_t index);

  std::shared_ptr<const InferencePlan> plan_;
  const Model& model_;
  const std::vector<DoubleTensor>& inputs_;
  const bool softmax_;
  mutable std::mutex mutex_;
  std::map<size_t, Refs> refs_;
  double max_float_error_ = 0;
};

/// Runs OutputChecker::Check on every output of every outcome.
void CheckOutcomes(Report& report, OutputChecker& checker,
                   const std::vector<Outcome>& outcomes);

/// Checks the crypto and bignum operations the per-layer costs are timed
/// on, against the benchmark's own integer arithmetic:
/// Dec(ScalarMul(Enc(a), w)) = a*w, Dec(Enc(a)*Enc(b)) = a+b, fixed-base
/// equals plain ScalarMul, x^a * x^b = x^(a+b) mod n^2, and ModExp on a
/// 61-bit modulus equals a 128-bit square-and-multiply.
void CheckCalibrationOps(Report& report, const PaillierKeyPair& keys,
                         uint64_t seed);

/// Mutation self-test of the count, payload and span checks.
void SelfTestAccounting(Report& report,
                        const ppstream::obs::RequestCostBudget& budget);

}  // namespace perfbench
