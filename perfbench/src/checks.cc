#include "checks.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "crypto/secure_rng.h"
#include "nn/layer.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace ppstream;

namespace {

std::string At(const char* what, int64_t i, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s at element %lld: %.17g vs %.17g", what,
                static_cast<long long>(i), got, want);
  return buf;
}

/// Flips the lowest mantissa bit of element `i`.
DoubleTensor FlipOneElement(const DoubleTensor& t, int64_t i) {
  DoubleTensor out = t;
  uint64_t bits = 0;
  std::memcpy(&bits, &out[i], sizeof(bits));
  bits ^= 1;
  std::memcpy(&out[i], &bits, sizeof(bits));
  return out;
}

/// (a^e) mod m by 128-bit square-and-multiply: the benchmark's own
/// arithmetic, independent of the program's bignum code.
uint64_t PowMod64(uint64_t a, uint64_t e, uint64_t m) {
  unsigned __int128 result = 1, base = a % m;
  while (e != 0) {
    if (e & 1) result = result * base % m;
    base = base * base % m;
    e >>= 1;
  }
  return static_cast<uint64_t>(result);
}

/// "" when `got` (a decrypted plaintext) encodes the signed `want`.
std::string CheckDecoded(const PaillierPublicKey& pk, const BigInt& got,
                         int64_t want, const char* what) {
  auto value = Paillier::DecodeSigned(pk, got).ToInt64();
  if (!value.ok() || *value != want) {
    return std::string(what) + ": decrypted " + got.ToDecimalString() +
           ", expected " + std::to_string(want);
  }
  return "";
}

}  // namespace

std::string CheckBitIdentical(const DoubleTensor& out,
                              const DoubleTensor& scaled_reference) {
  if (out.shape() != scaled_reference.shape()) {
    return "output shape differs from RunScaledPlainInference";
  }
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    if (std::memcmp(&out[i], &scaled_reference[i], sizeof(double)) != 0) {
      return At("not bit-identical to RunScaledPlainInference", i, out[i],
                scaled_reference[i]);
    }
  }
  return "";
}

std::string CheckFloatBound(const DoubleTensor& out,
                            const DoubleTensor& float_reference,
                            double* max_error) {
  if (out.shape() != float_reference.shape()) {
    return "output shape differs from Model::Forward";
  }
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    const double err = std::fabs(out[i] - float_reference[i]);
    if (max_error != nullptr && err > *max_error) *max_error = err;
    if (!(err <= kFloatBound)) {
      return At("farther than the float bound from Model::Forward", i, out[i],
                float_reference[i]);
    }
  }
  return "";
}

std::string CheckArgmax(const DoubleTensor& out,
                        const DoubleTensor& float_reference) {
  const int64_t top = ArgMax(float_reference);
  double second = -std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < float_reference.NumElements(); ++i) {
    if (i != top) second = std::max(second, float_reference[i]);
  }
  if (float_reference[top] - second > kFloatBound && ArgMax(out) != top) {
    return "argmax " + std::to_string(ArgMax(out)) +
           " differs from the float model's " + std::to_string(top);
  }
  return "";
}

std::string CheckSoftmax(const DoubleTensor& out) {
  double sum = 0;
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    if (!(out[i] >= 0.0 && out[i] <= 1.0)) {
      return At("softmax output outside [0,1]", i, out[i], 0.5);
    }
    sum += out[i];
  }
  if (!(std::fabs(sum - 1.0) <= 1e-9)) {
    return At("softmax row does not sum to 1", 0, sum, 1.0);
  }
  return "";
}

std::string CheckPrice(const Counts& delta, uint64_t units,
                       const obs::RequestCostBudget& budget) {
  if (delta.encrypts != units * budget.encrypts ||
      delta.scalar_muls != units * budget.scalar_muls) {
    return "counted " + std::to_string(delta.encrypts) + " encrypts / " +
           std::to_string(delta.scalar_muls) + " scalar-muls for " +
           std::to_string(units) + " units; the plan prices " +
           std::to_string(budget.encrypts) + " / " +
           std::to_string(budget.scalar_muls) + " each";
  }
  return "";
}

std::string CheckPayload(uint64_t socket_bytes, uint64_t payload_bytes) {
  if (socket_bytes < payload_bytes) {
    return "socket carried " + std::to_string(socket_bytes) +
           " bytes, less than the " + std::to_string(payload_bytes) +
           " bytes of ciphertext payload";
  }
  return "";
}

std::string CheckSpansFit(double span_seconds, double latency_seconds) {
  if (!(span_seconds <= latency_seconds)) {
    return "provider spans sum to " + std::to_string(span_seconds) +
           " s, more than the request's latency " +
           std::to_string(latency_seconds) + " s";
  }
  return "";
}

OutputChecker::OutputChecker(std::shared_ptr<const InferencePlan> plan,
                             const Model& model,
                             const std::vector<DoubleTensor>& inputs)
    : plan_(std::move(plan)),
      model_(model),
      inputs_(inputs),
      softmax_(model.NumLayers() > 0 &&
               model.layer(model.NumLayers() - 1).kind() ==
                   LayerKind::kSoftmax) {}

const OutputChecker::Refs& OutputChecker::RefsFor(size_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = refs_.find(index);
    if (it != refs_.end()) return it->second;
  }
  auto scaled = RunScaledPlainInference(*plan_, inputs_[index]);
  PPS_CHECK_OK(scaled.status());
  auto floating = model_.Forward(inputs_[index]);
  PPS_CHECK_OK(floating.status());
  std::lock_guard<std::mutex> lock(mutex_);
  // std::map never moves its nodes, so the reference stays valid.
  return refs_
      .emplace(index, Refs{std::move(scaled).value(),
                           std::move(floating).value()})
      .first->second;
}

std::string OutputChecker::Check(size_t index, const DoubleTensor& out) {
  const Refs& refs = RefsFor(index);
  std::string why = CheckBitIdentical(out, refs.scaled);
  double max_error = 0;
  if (why.empty()) why = CheckFloatBound(out, refs.floating, &max_error);
  if (why.empty()) why = CheckArgmax(out, refs.floating);
  if (why.empty() && softmax_) why = CheckSoftmax(out);
  std::lock_guard<std::mutex> lock(mutex_);
  max_float_error_ = std::max(max_float_error_, max_error);
  return why;
}

double OutputChecker::max_float_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_float_error_;
}

void OutputChecker::SelfTest(Report& report, size_t index,
                             const DoubleTensor& out) {
  const Refs& refs = RefsFor(index);
  const int64_t last = out.NumElements() - 1;
  report.Check(!CheckBitIdentical(FlipOneElement(out, last), refs.scaled)
                    .empty(),
               "self-test: bit-identity check accepted a flipped element");
  DoubleTensor far = out;
  far[last] += 2 * kFloatBound;
  report.Check(!CheckFloatBound(far, refs.floating, nullptr).empty(),
               "self-test: float-bound check accepted an element off by "
               "twice the bound");
  // A float reference whose clear winner is not the output's argmax.
  DoubleTensor other = refs.floating;
  const int64_t top = ArgMax(out);
  const int64_t wrong = top == 0 ? 1 : 0;
  other[wrong] = other[top] + 10 * kFloatBound;
  report.Check(!CheckArgmax(out, other).empty(),
               "self-test: argmax check accepted a different winner");
  if (softmax_) {
    DoubleTensor off = out;
    off[last] = -off[last] - 1e-3;
    report.Check(!CheckSoftmax(off).empty(),
                 "self-test: softmax check accepted a negative probability");
    DoubleTensor heavy = out;
    heavy[last] = std::min(1.0, heavy[last] + 1e-6);
    if (heavy[last] == out[last]) heavy[0] += 1e-6;
    report.Check(!CheckSoftmax(heavy).empty(),
                 "self-test: softmax check accepted a row not summing to 1");
  }
}

void CheckOutcomes(Report& report, OutputChecker& checker,
                   const std::vector<Outcome>& outcomes) {
  for (const Outcome& o : outcomes) {
    report.Check(o.outputs.size() == o.inputs.size(),
                 "request " + std::to_string(o.id) + " lost outputs");
    for (size_t i = 0; i < o.outputs.size() && i < o.inputs.size(); ++i) {
      const std::string why = checker.Check(o.inputs[i], o.outputs[i]);
      report.Check(why.empty(), "request " + std::to_string(o.id) + " lane " +
                                    std::to_string(i) + ": " + why);
    }
  }
}

void CheckCalibrationOps(Report& report, const PaillierKeyPair& keys,
                         uint64_t seed) {
  const PaillierPublicKey& pk = keys.public_key;
  Rng rng(seed);
  SecureRng enc_rng = SecureRng::FromSeed(seed);
  auto small = [&rng] {
    // |value| < 2^30 keeps a*w inside int64 in our own arithmetic.
    return static_cast<int64_t>(rng.NextU64() % (1ULL << 31)) - (1LL << 30);
  };
  for (int trial = 0; trial < 4; ++trial) {
    const int64_t a = small(), b = small(), w = small();
    auto ca = Paillier::Encrypt(pk, BigInt(a), enc_rng);
    auto cb = Paillier::Encrypt(pk, BigInt(b), enc_rng);
    PPS_CHECK_OK(ca.status());
    PPS_CHECK_OK(cb.status());
    auto cw = Paillier::ScalarMul(pk, *ca, BigInt(w));
    PPS_CHECK_OK(cw.status());
    auto dw = Paillier::Decrypt(pk, keys.private_key, *cw);
    auto dab =
        Paillier::Decrypt(pk, keys.private_key, Paillier::Add(pk, *ca, *cb));
    PPS_CHECK_OK(dw.status());
    PPS_CHECK_OK(dab.status());
    std::string why = CheckDecoded(pk, *dw, a * w, "Dec(ScalarMul(Enc(a), w))");
    report.Check(why.empty(), why);
    why = CheckDecoded(pk, *dab, a + b, "Dec(Enc(a)*Enc(b))");
    report.Check(why.empty(), why);
    // The same ciphertext through a fixed-base table.
    auto table = Paillier::PrecomputeScalarMulBase(
        pk, *ca, /*max_weight_bits=*/31, /*allow_negative=*/true,
        /*fan_out_hint=*/16);
    PPS_CHECK_OK(table.status());
    auto fixed = Paillier::ScalarMulPrecomputed(*table, BigInt(w));
    PPS_CHECK_OK(fixed.status());
    report.Check(fixed->value == cw->value,
                 "fixed-base ScalarMul differs from plain ScalarMul");
  }
  // x^a * x^b = x^(a+b) mod n^2, with full-width exponents.
  const MontgomeryContext& ctx = pk.ctx_n2();
  const BigInt x = BigInt::RandomBelow(rng, pk.n_squared());
  const BigInt a = BigInt::RandomBelow(rng, pk.n_squared());
  const BigInt b = BigInt::RandomBelow(rng, pk.n_squared());
  report.Check(ctx.ModMul(ctx.ModExp(x, a), ctx.ModExp(x, b)) ==
                   ctx.ModExp(x, a + b),
               "x^a * x^b != x^(a+b) mod n^2");
  // ModExp against 128-bit arithmetic on the Mersenne prime 2^61 - 1.
  const uint64_t m = (1ULL << 61) - 1;
  const MontgomeryContext small_ctx{BigInt(m)};
  for (int trial = 0; trial < 4; ++trial) {
    const uint64_t base = rng.NextU64() % m, exp = rng.NextU64();
    auto got = small_ctx.ModExp(BigInt(base), BigInt(exp)).ToUint64();
    report.Check(got.ok() && *got == PowMod64(base, exp, m),
                 "ModExp mod 2^61-1 differs from 128-bit square-and-multiply");
  }
}

void SelfTestAccounting(Report& report, const obs::RequestCostBudget& budget) {
  Counts exact;
  exact.encrypts = 3 * budget.encrypts;
  exact.scalar_muls = 3 * budget.scalar_muls;
  report.Check(CheckPrice(exact, 3, budget).empty(),
               "self-test: price check rejected the exact price");
  Counts extra = exact;
  ++extra.scalar_muls;
  report.Check(!CheckPrice(extra, 3, budget).empty(),
               "self-test: price check accepted one extra scalar-mul");
  Counts fewer = exact;
  --fewer.encrypts;
  report.Check(!CheckPrice(fewer, 3, budget).empty(),
               "self-test: price check accepted one missing encrypt");
  report.Check(!CheckPayload(999, 1000).empty(),
               "self-test: payload check accepted a short socket count");
  report.Check(!CheckSpansFit(1.0 + 1e-9, 1.0).empty(),
               "self-test: span check accepted spans longer than latency");
}

}  // namespace perfbench
