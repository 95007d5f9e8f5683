// The traced run's instruments, all in the benchmark's own files: an
// in-memory span log, ModelProviderApi / DataProviderApi decorators that
// time every provider call, in-run per-op cost calibration on the
// workload's key, a loopback net probe, and the per-layer report built
// from them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/protocol.h"
#include "net/transport.h"

namespace perfbench {

/// The provider call a span covers.
enum class Step {
  kDpEncrypt,
  kMpInverse,
  kMpLinear,
  kMpObfuscate,
  kMpRound,  // a whole remote or packed round: inverse, linear, obfuscate
  kMpRelease,
  kDpNonlinear,
  kDpFinal,
};

struct Span {
  uint64_t request = 0;
  Step step = Step::kDpEncrypt;
  int round = 0;
  double start = 0;
  double end = 0;
};

/// Spans, cross-party payload and side timings of one phase, in memory.
/// Thread-safe.
class SpanLog {
 public:
  /// Sequential clients: calls without a request id made by the calling
  /// thread belong to `id` until that thread's next SetRequest.
  void SetRequest(uint64_t id);
  /// Pipelined engine: calls without a request id are matched to requests
  /// in submission order, per (step, round). This holds because each
  /// engine stage runs one thread over a FIFO channel; calls that do carry
  /// a request id are checked against the same order.
  void Submitted(uint64_t id);
  uint64_t Attribute(Step step, int round);
  /// Checks a request id a call carried against the attributed one.
  void Expect(Step step, int round, uint64_t id);

  void Record(uint64_t request, Step step, int round, double start,
              double end);
  /// A vector that crossed between the parties: its serialized size and
  /// the time to serialize + deserialize it with the stream layer's codec.
  void RecordWire(uint64_t request, uint64_t bytes, double serdes_seconds);
  /// Obfuscation timed by a side call where the program folds it into a
  /// round call (remote and packed rounds).
  void RecordSideObfuscate(double seconds);

  struct Wire {
    uint64_t bytes = 0;
    double serdes_seconds = 0;
  };
  std::vector<Span> spans() const;
  std::map<uint64_t, Wire> wire() const;
  double side_obfuscate_seconds() const;
  /// False once a carried request id contradicted the attribution.
  bool attribution_consistent() const;

  /// Chrome trace-event JSON of every span.
  void WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::thread::id, uint64_t> current_;
  bool fifo_ = false;
  std::vector<uint64_t> submitted_;
  std::map<std::pair<int, int>, size_t> calls_;
  std::vector<Span> spans_;
  std::map<uint64_t, Wire> wire_;
  double side_obfuscate_ = 0;
  bool consistent_ = true;
};

/// Times every call into the wrapped model provider. When `obfuscation
/// probe` is set, each non-final ProcessRound output is also permuted by
/// the probe's Obfuscate and timed as a side call, since a remote round
/// hides its obfuscation step.
class TracedModelProvider : public ppstream::ModelProviderApi {
 public:
  TracedModelProvider(std::shared_ptr<ppstream::ModelProviderApi> inner,
                      SpanLog* log,
                      ppstream::ModelProvider* obfuscation_probe = nullptr);

  const InferencePlan& plan() const override { return inner_->plan(); }
  ppstream::Result<std::vector<ppstream::Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<ppstream::Ciphertext>& in) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round,
      std::vector<ppstream::Ciphertext> in) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<ppstream::Ciphertext>& in,
      ppstream::ThreadPool* pool, bool input_partitioning) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round,
      std::vector<ppstream::Ciphertext> in) override;
  ppstream::Status ReleaseRequestState(uint64_t request_id) override;

 private:
  std::shared_ptr<ppstream::ModelProviderApi> inner_;
  SpanLog* log_;
  ppstream::ModelProvider* probe_;
};

/// Times every call into the wrapped data provider.
class TracedDataProvider : public ppstream::DataProviderApi {
 public:
  TracedDataProvider(std::shared_ptr<ppstream::DataProviderApi> inner,
                     SpanLog* log);

  const ppstream::PaillierPublicKey& public_key() const override {
    return inner_->public_key();
  }
  ppstream::Result<std::vector<ppstream::Ciphertext>> EncryptInput(
      const DoubleTensor& input) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> EncryptInputParallel(
      const DoubleTensor& input, ppstream::ThreadPool* pool) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<ppstream::Ciphertext>& in,
      std::vector<double>* decrypted_view,
      ppstream::ThreadPool* pool) override;
  ppstream::Result<DoubleTensor> ProcessFinal(
      const std::vector<ppstream::Ciphertext>& in,
      ppstream::ThreadPool* pool) override;

 private:
  std::shared_ptr<ppstream::DataProviderApi> inner_;
  SpanLog* log_;
};

/// Serializes + deserializes `v` with the stream layer's public codec and
/// records the bytes and time as cross-party payload of `request`.
void RecordCrossing(SpanLog& log, uint64_t request,
                    const std::vector<ppstream::Ciphertext>& v);

/// Per-op costs timed in-run on the workload's key.
struct OpCosts {
  double randomizer_us = 0;
  double encrypt_pooled_us = 0;
  double decrypt_us = 0;
  double scalar_mul_us = 0;
  double scalar_mul_fixed_base_us = 0;
  double fixed_base_build_us = 0;
  double modexp_us = 0;
  double modmul_ns = 0;
};
OpCosts MeasureOpCosts(const PaillierKeyPair& keys, const InferencePlan& plan,
                       uint64_t seed);

/// Handshake time and idle ping round trip against a loopback
/// ModelProviderTcpServer serving `plan`.
struct NetProbe {
  double handshake_ms = 0;
  double ping_rtt_us = 0;
};
NetProbe ProbeNet(std::shared_ptr<const InferencePlan> plan,
                  const ppstream::PaillierPublicKey& pk);
/// Median round trip of `pings` ping frames on an idle channel, in us.
double PingRttUs(ppstream::FrameChannel& channel, int pings);

/// Everything the per-layer report is computed from.
struct TracedPhase {
  /// Takes the log, each request's latency and the makespan from the
  /// phase's outcomes.
  TracedPhase(const SpanLog& span_log, const std::vector<Outcome>& outcomes);

  const SpanLog* log = nullptr;
  /// Independently timed latency of every request (seconds), by id.
  std::map<uint64_t, double> latency;
  /// Inferences per request (lanes of a packed batch, else 1).
  double lanes = 1;
  /// First submit to last completion, and how many clients ran at once.
  double makespan = 0;
  double clients = 1;
  Counts counts;
  /// True for the packed-batch path (its kernels set the crypto mix).
  bool packed = false;
  /// Socket traffic of the phase (zero for in-process workloads).
  ppstream::TransportStats wire;
  NetProbe net;
  double throughput_ips = 0;
};

/// Adds every per-layer metric to `report` and runs the span-side checks
/// (spans fit each latency, attribution consistent, socket >= payload).
void ReportLayers(Report& report, const TracedPhase& phase,
                  const InferencePlan& plan, const OpCosts& costs,
                  double timed_throughput_ips, double compile_seconds,
                  double reconciled_share);

}  // namespace perfbench
