#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace ppstream;

namespace {
// Static initialization runs before main: the closest the process can
// get to its own start.
const double kProcessStart = std::chrono::duration<double>(
    std::chrono::steady_clock::now().time_since_epoch()).count();
}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is not a finite number");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

Inputs MakeInputs(ZooModelId id, double train_scale, double test_scale,
                  uint64_t seed) {
  constexpr uint64_t kTrainDataSeed = 3;
  constexpr uint64_t kModelSeed = 4;
  Inputs in;
  const double t0 = NowSeconds();
  const DatasetSplit train = MakeZooDataset(id, train_scale, kTrainDataSeed);
  auto model = MakeTrainedZooModel(id, train.train, kModelSeed);
  PPS_CHECK_OK(model.status());
  in.model = std::move(model).value();
  // Test inputs drawn from --seed (a disjoint seed space from training).
  in.samples =
      MakeZooDataset(id, test_scale, 0x7E57000000ULL + seed).test.samples;
  PPS_CHECK(!in.samples.empty()) << "no test inputs";
  in.seconds = NowSeconds() - t0;
  return in;
}

PaillierKeyPair MakeKeys(uint64_t key_seed) {
  Rng rng(key_seed);
  auto keys = Paillier::GenerateKeyPair(kKeyBits, rng);
  PPS_CHECK_OK(keys.status());
  return std::move(keys).value();
}

std::shared_ptr<const InferencePlan> CompilePackedPlan(const Model& model,
                                                       double* seconds) {
  const double t0 = NowSeconds();
  CompileOptions options;
  options.packing = planner::PackingSpec{};
  options.packing->key_bits = kKeyBits;
  auto plan = CompilePlan(model, kScale, options);
  PPS_CHECK_OK(plan.status());
  *seconds = NowSeconds() - t0;
  return std::make_shared<const InferencePlan>(std::move(plan).value());
}

Counts Counts::Read() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  Counts c;
  c.encrypts = r.GetCounter("crypto.encrypts")->Value();
  c.decrypts = r.GetCounter("crypto.decrypts")->Value();
  c.scalar_muls = r.GetCounter("crypto.scalar_muls")->Value();
  c.pack_hom_adds = r.GetCounter("crypto.pack.hom_adds")->Value();
  c.pool_produced = r.GetCounter("crypto.pool.produced")->Value();
  c.pool_misses = r.GetCounter("crypto.pool.misses")->Value();
  c.pool_hits = r.GetCounter("crypto.pool.hits")->Value();
  c.cost_reconciled = r.GetCounter("cost.reconciled")->Value();
  return c;
}

Counts Counts::operator-(const Counts& b) const {
  Counts d;
  d.encrypts = encrypts - b.encrypts;
  d.decrypts = decrypts - b.decrypts;
  d.scalar_muls = scalar_muls - b.scalar_muls;
  d.pack_hom_adds = pack_hom_adds - b.pack_hom_adds;
  d.pool_produced = pool_produced - b.pool_produced;
  d.pool_misses = pool_misses - b.pool_misses;
  d.pool_hits = pool_hits - b.pool_hits;
  d.cost_reconciled = cost_reconciled - b.cost_reconciled;
  return d;
}

unsigned HardwareThreads() {
  // The CPUs this process may run on (what nproc prints), which in a
  // container can be fewer than the machine's.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Makespan(const std::vector<Outcome>& outcomes) {
  if (outcomes.empty()) return 0;
  double first = outcomes.front().start, last = outcomes.front().end;
  for (const Outcome& o : outcomes) {
    first = std::min(first, o.start);
    last = std::max(last, o.end);
  }
  return last - first;
}

double Throughput(const std::vector<Outcome>& outcomes) {
  size_t outputs = 0;
  for (const Outcome& o : outcomes) outputs += o.outputs.size();
  const double makespan = Makespan(outcomes);
  return makespan > 0 ? static_cast<double>(outputs) / makespan : 0;
}

double PerRequest(uint64_t count, size_t requests) {
  return requests == 0
             ? 0.0
             : static_cast<double>(count) / static_cast<double>(requests);
}

TimedPhase::TimedPhase(const std::vector<Outcome>& outcomes)
    : throughput_ips(Throughput(outcomes)) {
  for (const Outcome& o : outcomes) {
    latencies.push_back(o.end - o.start);
    inferences += static_cast<double>(o.outputs.size());
  }
}

double SetupSeconds(double input_seconds) {
  return NowSeconds() - kProcessStart - input_seconds;
}

void ReportEndToEnd(Report& report, const TimedPhase& phase, double setup_s) {
  const double n = std::max(1.0, phase.inferences);
  report.Set("throughput_ips", phase.throughput_ips, "1/s");
  report.Set("latency_p50_ms", Quantile(phase.latencies, 0.5) * 1e3, "ms");
  report.Set("latency_p90_ms", Quantile(phase.latencies, 0.9) * 1e3, "ms");
  report.Set("cpu_ms_per_inference", phase.cpu_seconds * 1e3 / n, "ms");
  report.Set("comm_kb_per_inference", phase.comm_bytes / 1024.0 / n, "KiB");
  report.Set("setup_s", setup_s, "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  std::fprintf(stderr, "timed: %.0f inferences, %zu latency samples, deciles",
               phase.inferences, phase.latencies.size());
  for (int d = 1; d <= 9; ++d) {
    std::fprintf(stderr, " %.1f", Quantile(phase.latencies, d / 10.0) * 1e3);
  }
  std::fprintf(stderr, " ms\n");
}

}  // namespace perfbench
