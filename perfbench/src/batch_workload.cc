// batch-mnist2: offline lane-batched inference. RunPackedBatchInference at
// the plan's full lane count over successive batches of MNIST-2 test
// images, with a ThreadPool of one thread per available CPU. The traced
// phase drives the same public per-round methods RunPackedBatchInference
// calls, one timed span each, and must produce the same outputs.
#include <cstdio>
#include <memory>

#include "checks.h"
#include "trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace ppstream;

namespace {

constexpr uint64_t kKeySeed = 0x5EEDBA7C;

/// Inputs of batch `b`: `lanes` consecutive test images.
std::vector<size_t> LaneInputs(uint64_t b, int64_t lanes, size_t n) {
  std::vector<size_t> idx;
  const uint64_t first = b * static_cast<uint64_t>(lanes);
  for (int64_t l = 0; l < lanes; ++l) {
    idx.push_back((first + static_cast<uint64_t>(l)) % n);
  }
  return idx;
}

/// RunPackedBatchInference, step by step, one span per provider call.
Result<std::vector<DoubleTensor>> TracedBatch(
    ModelProvider& mp, DataProvider& dp, ModelProvider& probe, uint64_t id,
    const std::vector<DoubleTensor>& lane_inputs, ThreadPool* pool,
    SpanLog& log) {
  const int64_t lanes = static_cast<int64_t>(lane_inputs.size());
  const size_t rounds = mp.plan().NumRounds();
  double t0 = NowSeconds();
  PPS_ASSIGN_OR_RETURN(std::vector<Ciphertext> wire,
                       dp.EncryptInputPackedBatch(lane_inputs, pool));
  log.Record(id, Step::kDpEncrypt, 0, t0, NowSeconds());
  RecordCrossing(log, id, wire);
  for (size_t r = 0; r < rounds; ++r) {
    const int round = static_cast<int>(r);
    t0 = NowSeconds();
    PPS_ASSIGN_OR_RETURN(wire,
                         mp.ProcessRoundPackedBatch(id, r, wire, lanes, pool));
    log.Record(id, Step::kMpRound, round, t0, NowSeconds());
    RecordCrossing(log, id, wire);
    if (r + 1 < rounds) {
      // The packed round folds its obfuscation in; time the same
      // permutation of these words by a side call.
      const double s0 = NowSeconds();
      PPS_RETURN_IF_ERROR(probe.Obfuscate(id, r, wire).status());
      log.RecordSideObfuscate(NowSeconds() - s0);
      PPS_RETURN_IF_ERROR(probe.ReleaseRequestState(id));
      t0 = NowSeconds();
      PPS_ASSIGN_OR_RETURN(
          wire, dp.ProcessIntermediatePackedBatch(r, wire, lanes, pool));
      log.Record(id, Step::kDpNonlinear, round, t0, NowSeconds());
      RecordCrossing(log, id, wire);
    }
  }
  t0 = NowSeconds();
  PPS_RETURN_IF_ERROR(mp.ReleaseRequestState(id));
  log.Record(id, Step::kMpRelease, 0, t0, NowSeconds());
  t0 = NowSeconds();
  auto out = dp.ProcessFinalPackedBatch(wire, lanes, pool);
  log.Record(id, Step::kDpFinal, 0, t0, NowSeconds());
  return out;
}

/// Runs batches back to back until `seconds` pass (at least one).
std::vector<Outcome> Drive(ModelProvider& mp, DataProvider& dp,
                           const std::vector<DoubleTensor>& inputs,
                           int64_t lanes, ThreadPool* pool, double seconds,
                           uint64_t* next_batch, SpanLog* log,
                           ModelProvider* probe, uint64_t* failed) {
  std::vector<Outcome> done;
  const double deadline = NowSeconds() + seconds;
  do {
    Outcome o;
    o.id = (*next_batch)++;
    o.inputs = LaneInputs(o.id, lanes, inputs.size());
    std::vector<DoubleTensor> lane_inputs;
    for (size_t i : o.inputs) lane_inputs.push_back(inputs[i]);
    if (log != nullptr) log->SetRequest(o.id);
    o.start = NowSeconds();
    auto out = log == nullptr
                   ? RunPackedBatchInference(mp, dp, o.id, lane_inputs, pool)
                   : TracedBatch(mp, dp, *probe, o.id, lane_inputs, pool, *log);
    o.end = NowSeconds();
    if (!out.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   out.status().ToString().c_str());
      *failed += static_cast<uint64_t>(lanes);
      continue;
    }
    o.outputs = std::move(out).value();
    done.push_back(std::move(o));
  } while (NowSeconds() < deadline);
  return done;
}

/// Ciphertext bytes one batch moves between the parties under the plan's
/// per-round wire layout: a packed round moves one word per tensor
/// element, a scalar-fallback round one per element per lane; every word
/// is a ciphertext mod n^2 of 2 * kKeyBits bits.
double PlannedBatchBytes(const InferencePlan& plan, int64_t lanes) {
  double words = 0;
  for (const LinearStage& stage : plan.linear_stages) {
    const double per = stage.packed_layout.has_value()
                           ? 1.0
                           : static_cast<double>(lanes);
    words += per * static_cast<double>(stage.input_shape.NumElements() +
                                       stage.output_shape.NumElements());
  }
  return words * (2 * kKeyBits / 8);
}

}  // namespace

void RunBatchMnist2(const Options& options, Report& report) {
  const Inputs in = MakeInputs(ZooModelId::kMnist2, /*train_scale=*/0.005,
                               /*test_scale=*/0.02, options.seed);

  // ---- set-up (timed as setup_s).
  const PaillierKeyPair keys = MakeKeys(kKeySeed);
  double compile_seconds = 0;
  const auto plan = CompilePackedPlan(in.model, &compile_seconds);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));
  const int64_t lanes = plan->PackedBatchLanes();
  PPS_CHECK(lanes >= 1) << "the MNIST-2 plan packs no round at "
                        << kKeyBits << "-bit keys";
  ModelProvider mp(plan, keys.public_key, /*obf_seed=*/0x0BF5);
  // Default options, as an offline batch job builds its data provider: the
  // pool fills on demand and from its refill thread, not in set-up.
  DataProvider dp(plan, keys, /*enc_seed=*/0xE4C);
  ThreadPool pool(HardwareThreads());
  uint64_t next_batch = 1, failed = 0;
  const std::vector<Outcome> warm = Drive(mp, dp, in.samples, lanes, &pool, 0,
                                          &next_batch, nullptr, nullptr,
                                          &failed);
  const double setup_s = SetupSeconds(in.seconds);

  OutputChecker checker(plan, in.model, in.samples);
  CheckOutcomes(report, checker, warm);
  CheckCalibrationOps(report, keys, options.seed);
  const obs::RequestCostBudget budget = ExpectedPackedBatchCost(*plan, lanes);
  SelfTestAccounting(report, budget);

  // ---- timed phase.
  const Counts c0 = Counts::Read();
  const double cpu0 = ProcessCpuSeconds();
  const std::vector<Outcome> timed =
      Drive(mp, dp, in.samples, lanes, &pool, options.timed_seconds(),
            &next_batch, nullptr, nullptr, &failed);
  const double cpu1 = ProcessCpuSeconds();
  const Counts timed_counts = Counts::Read() - c0;
  TimedPhase phase(timed);
  report.attempted += static_cast<uint64_t>(phase.inferences) + failed;

  CheckOutcomes(report, checker, timed);
  const std::string price = CheckPrice(timed_counts, timed.size(), budget);
  report.Check(price.empty(), "timed phase: " + price);
  if (!timed.empty()) {
    checker.SelfTest(report, timed[0].inputs[0], timed[0].outputs[0]);
  }

  phase.cpu_seconds = cpu1 - cpu0;
  phase.comm_bytes =
      PlannedBatchBytes(*plan, lanes) * static_cast<double>(timed.size());
  std::fprintf(stderr, "lanes %lld, max |output - float| = %.3g\n",
               static_cast<long long>(lanes), checker.max_float_error());
  if (!options.trace) {
    report.failed = failed;
    ReportEndToEnd(report, phase, setup_s);
    return;
  }

  // ---- traced phase.
  SpanLog log;
  ModelProvider probe(plan, keys.public_key, /*obf_seed=*/0x9B0);
  const Counts c2 = Counts::Read();
  const std::vector<Outcome> traced =
      Drive(mp, dp, in.samples, lanes, &pool, options.traced_seconds(),
            &next_batch, &log, &probe, &failed);
  TracedPhase tp(log, traced);
  tp.counts = Counts::Read() - c2;
  report.attempted += traced.size() * static_cast<size_t>(lanes);
  report.failed = failed;
  CheckOutcomes(report, checker, traced);
  const std::string traced_price = CheckPrice(tp.counts, traced.size(), budget);
  report.Check(traced_price.empty(), "traced phase: " + traced_price);

  tp.lanes = static_cast<double>(lanes);
  tp.packed = true;
  tp.throughput_ips = Throughput(traced);
  tp.net = ProbeNet(plan, keys.public_key);
  const OpCosts costs = MeasureOpCosts(keys, *plan, options.seed);
  ReportLayers(report, tp, *plan, costs, phase.throughput_ips, compile_seconds,
               PerRequest(timed_counts.cost_reconciled, timed.size()));
  if (!options.trace_dir.empty()) {
    log.WriteJson(options.trace_dir + "/batch-mnist2-seed" +
                  std::to_string(options.seed) + ".json");
  }
}

}  // namespace perfbench
