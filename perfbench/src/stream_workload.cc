// stream-mnist2: distinct MNIST-2 test images streamed through the
// in-process pipelined PpStreamEngine (one thread per stage, the engine's
// default) over the concrete providers, closed loop with kInFlight
// requests in flight. The data provider's randomizer pool is sized for
// those requests and prefilled during set-up.
#include <cstdio>
#include <map>
#include <memory>

#include "checks.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

using namespace ppstream;

namespace {

constexpr int kInFlight = 4;
constexpr uint64_t kKeySeed = 0x5EED0512;

/// Closed loop: keeps `in_flight` requests in the engine, submitting the
/// next as each completes until `seconds` have passed, then drains.
std::vector<Outcome> Drive(PpStreamEngine& engine,
                           const std::vector<DoubleTensor>& inputs,
                           int in_flight, double seconds, uint64_t* next_id,
                           size_t* next_input, SpanLog* log,
                           uint64_t* failed) {
  std::map<uint64_t, Outcome> pending;
  auto submit = [&] {
    Outcome o;
    o.id = (*next_id)++;
    o.inputs = {(*next_input)++ % inputs.size()};
    if (log != nullptr) log->Submitted(o.id);
    o.start = NowSeconds();
    PPS_CHECK_OK(engine.Submit(o.id, inputs[o.inputs[0]]));
    pending.emplace(o.id, std::move(o));
  };
  const double deadline = NowSeconds() + seconds;
  for (int i = 0; i < in_flight; ++i) submit();
  std::vector<Outcome> done;
  while (!pending.empty()) {
    auto result = engine.NextResult();
    const double now = NowSeconds();
    if (!result.ok()) {
      // The failing request cannot be named from the status; retire the
      // oldest so the loop still ends.
      std::fprintf(stderr, "inference failed: %s\n",
                   result.status().ToString().c_str());
      ++*failed;
      pending.erase(pending.begin());
    } else {
      auto it = pending.find(result->request_id);
      PPS_CHECK(it != pending.end()) << "unknown request id";
      Outcome o = std::move(it->second);
      pending.erase(it);
      o.end = now;
      o.outputs.push_back(std::move(result->output));
      done.push_back(std::move(o));
    }
    if (now < deadline) submit();
  }
  return done;
}

/// Steady-state rate: completions after the first, over the time from the
/// first completion to the last (the pipeline's fill time excluded).
double SteadyThroughput(const std::vector<Outcome>& done) {
  if (done.size() < 2) return 0;
  double first = done.front().end, last = done.front().end;
  for (const Outcome& o : done) {
    first = std::min(first, o.end);
    last = std::max(last, o.end);
  }
  return static_cast<double>(done.size() - 1) / (last - first);
}

/// Serialized bytes the stream layer moved between stages of different
/// parties (every hop but the final result), from the stage counters.
uint64_t CrossPartyStageBytes() {
  uint64_t total = 0;
  const std::string suffix = ".bytes_out";
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().CounterValues("stage.")) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        name != "stage.dp-final.bytes_out") {
      total += value;
    }
  }
  return total;
}

}  // namespace

void RunStreamMnist2(const Options& options, Report& report) {
  const Inputs in = MakeInputs(ZooModelId::kMnist2, /*train_scale=*/0.005,
                               /*test_scale=*/0.02, options.seed);

  // ---- set-up (timed as setup_s).
  const PaillierKeyPair keys = MakeKeys(kKeySeed);
  double compile_seconds = 0;
  const auto plan = CompilePackedPlan(in.model, &compile_seconds);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));
  auto mp = std::make_shared<ModelProvider>(plan, keys.public_key,
                                            /*obf_seed=*/0x0BF5);
  DataProvider::Options dp_options;
  dp_options.expected_concurrency = kInFlight;
  dp_options.prefill = true;
  auto dp = std::make_shared<DataProvider>(plan, keys, /*enc_seed=*/0xE4C,
                                           dp_options);
  auto engine = std::make_unique<PpStreamEngine>(mp, dp, EngineConfig{});
  PPS_CHECK_OK(engine->Start());
  uint64_t next_id = 1, failed = 0;
  size_t next_input = 0;
  const std::vector<Outcome> warm =
      Drive(*engine, in.samples, 1, 0, &next_id, &next_input, nullptr, &failed);
  const double setup_s = SetupSeconds(in.seconds);

  OutputChecker checker(plan, in.model, in.samples);
  CheckOutcomes(report, checker, warm);
  CheckCalibrationOps(report, keys, options.seed);
  const obs::RequestCostBudget budget = ExpectedRequestCost(*plan);
  SelfTestAccounting(report, budget);

  // ---- timed phase.
  const Counts c0 = Counts::Read();
  const uint64_t bytes0 = CrossPartyStageBytes();
  const double cpu0 = ProcessCpuSeconds();
  const std::vector<Outcome> timed =
      Drive(*engine, in.samples, kInFlight, options.timed_seconds(), &next_id,
            &next_input, nullptr, &failed);
  const double cpu1 = ProcessCpuSeconds();
  const Counts timed_counts = Counts::Read() - c0;
  const uint64_t bytes = CrossPartyStageBytes() - bytes0;
  report.attempted += timed.size() + failed;

  CheckOutcomes(report, checker, timed);
  const std::string price = CheckPrice(timed_counts, timed.size(), budget);
  report.Check(price.empty(), "timed phase: " + price);
  if (!timed.empty()) {
    checker.SelfTest(report, timed[0].inputs[0], timed[0].outputs[0]);
  }

  TimedPhase phase(timed);
  phase.throughput_ips = SteadyThroughput(timed);
  phase.cpu_seconds = cpu1 - cpu0;
  phase.comm_bytes = static_cast<double>(bytes);
  std::fprintf(stderr, "max |output - float| = %.3g\n",
               checker.max_float_error());
  if (!options.trace) {
    report.failed = failed;
    ReportEndToEnd(report, phase, setup_s);
    engine->Shutdown();
    return;
  }

  // ---- traced phase: a fresh engine over decorated providers.
  engine->Shutdown();
  engine.reset();
  SpanLog log;
  PpStreamEngine traced_engine(std::make_shared<TracedModelProvider>(mp, &log),
                               std::make_shared<TracedDataProvider>(dp, &log),
                               EngineConfig{});
  PPS_CHECK_OK(traced_engine.Start());
  const Counts c2 = Counts::Read();
  const std::vector<Outcome> traced =
      Drive(traced_engine, in.samples, kInFlight, options.traced_seconds(),
            &next_id, &next_input, &log, &failed);
  TracedPhase tp(log, traced);
  tp.counts = Counts::Read() - c2;
  traced_engine.Shutdown();
  report.attempted += traced.size();
  report.failed = failed;
  CheckOutcomes(report, checker, traced);
  const std::string traced_price = CheckPrice(tp.counts, traced.size(), budget);
  report.Check(traced_price.empty(), "traced phase: " + traced_price);

  tp.throughput_ips = SteadyThroughput(traced);
  tp.net = ProbeNet(plan, keys.public_key);
  const OpCosts costs = MeasureOpCosts(keys, *plan, options.seed);
  ReportLayers(report, tp, *plan, costs, phase.throughput_ips, compile_seconds,
               PerRequest(timed_counts.cost_reconciled, timed.size()));

  // The program's own stage histogram quantile next to the exact one of
  // the same stage's provider calls.
  std::map<uint64_t, double> stage1;
  for (const Span& s : log.spans()) {
    if ((s.step == Step::kMpLinear || s.step == Step::kMpObfuscate) &&
        s.round == 0) {
      stage1[s.request] += s.end - s.start;
    }
  }
  std::vector<double> mp_linear0;
  for (const auto& [id, seconds] : stage1) mp_linear0.push_back(seconds);
  const obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "stage.mp-linear-0.attempt_seconds");
  std::fprintf(stderr,
               "mp-linear-0 p50: registry histogram %.4f ms, exact %.4f ms "
               "(linear + obfuscate spans)\n",
               hist->Quantile(0.5) * 1e3, Quantile(mp_linear0, 0.5) * 1e3);
  if (!options.trace_dir.empty()) {
    log.WriteJson(options.trace_dir + "/stream-mnist2-seed" +
                  std::to_string(options.seed) + ".json");
  }
}

}  // namespace perfbench
