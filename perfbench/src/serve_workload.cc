// serve-heart: one ModelProviderTcpServer serving Heart over loopback TCP
// to kSessions concurrent data-provider sessions, closed loop: each session
// sends its next inference only after the previous one returned. Each
// session is built the way examples/dp_client builds one: its own key
// pair, TcpTransport::Connect with a retrying dial, and a DataProvider
// over the handshake's weight-free plan view.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.h"
#include "net/server.h"
#include "net/transport.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

using namespace ppstream;

namespace {

constexpr int kSessions = 4;
constexpr uint64_t kKeySeed = 0x5EED0A17;

struct Session {
  PaillierKeyPair keys;
  std::unique_ptr<TcpTransport> transport;
  std::shared_ptr<DataProvider> dp;
};

TransportStats operator-(const TransportStats& a, const TransportStats& b) {
  return {a.frames_sent - b.frames_sent, a.frames_received - b.frames_received,
          a.bytes_sent - b.bytes_sent, a.bytes_received - b.bytes_received};
}

TransportStats TotalStats(const std::vector<Session>& sessions) {
  TransportStats total;
  for (const Session& s : sessions) {
    const TransportStats one = s.transport->stats();
    total.frames_sent += one.frames_sent;
    total.frames_received += one.frames_received;
    total.bytes_sent += one.bytes_sent;
    total.bytes_received += one.bytes_received;
  }
  return total;
}

/// Every session loops over its share of the inputs until `seconds` pass.
/// With a log, each session's providers are wrapped in the decorators.
std::vector<Outcome> Drive(std::vector<Session>& sessions,
                           const std::vector<DoubleTensor>& inputs,
                           double seconds, uint64_t id_base, SpanLog* log,
                           ModelProvider* obfuscation_probe,
                           std::atomic<uint64_t>* failed) {
  std::vector<std::vector<Outcome>> per_session(sessions.size());
  std::vector<std::thread> threads;
  const double deadline = NowSeconds() + seconds;
  for (size_t s = 0; s < sessions.size(); ++s) {
    threads.emplace_back([&, s] {
      std::shared_ptr<ModelProviderApi> mp =
          sessions[s].transport->model_provider();
      std::shared_ptr<DataProviderApi> dp = sessions[s].dp;
      if (log != nullptr) {
        mp = std::make_shared<TracedModelProvider>(mp, log, obfuscation_probe);
        dp = std::make_shared<TracedDataProvider>(dp, log);
      }
      for (uint64_t k = 0; k == 0 || NowSeconds() < deadline; ++k) {
        Outcome o;
        o.id = id_base + s * 1000000 + k;
        o.inputs = {(s + sessions.size() * k) % inputs.size()};
        if (log != nullptr) log->SetRequest(o.id);
        o.start = NowSeconds();
        auto out = RunProtocolInference(*mp, *dp, o.id, inputs[o.inputs[0]]);
        o.end = NowSeconds();
        if (!out.ok()) {
          std::fprintf(stderr, "inference failed: %s\n",
                       out.status().ToString().c_str());
          failed->fetch_add(1);
          continue;
        }
        o.outputs.push_back(std::move(out).value());
        per_session[s].push_back(std::move(o));
        if (seconds == 0) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Outcome> all;
  for (auto& v : per_session) {
    for (Outcome& o : v) all.push_back(std::move(o));
  }
  return all;
}

}  // namespace

void RunServeHeart(const Options& options, Report& report) {
  const Inputs in = MakeInputs(ZooModelId::kHeart, /*train_scale=*/1.0,
                               /*test_scale=*/1.0, options.seed);

  // ---- set-up (timed as setup_s): keys, plan, server, handshakes, one
  // warm-up inference per session.
  std::vector<Session> sessions(kSessions);
  for (int s = 0; s < kSessions; ++s) sessions[s].keys = MakeKeys(kKeySeed + s);
  double compile_seconds = 0;
  const auto plan = CompilePackedPlan(in.model, &compile_seconds);
  for (const Session& s : sessions) {
    PPS_CHECK_OK(plan->CheckFitsKey(s.keys.public_key.n()));
  }
  ModelProviderServerOptions server_options;
  server_options.max_concurrent_connections = kSessions;
  ModelProviderTcpServer server(plan, server_options);
  PPS_CHECK_OK(server.Listen(0));
  std::thread serve_thread([&server] { PPS_CHECK_OK(server.Serve()); });
  double handshake_seconds = 0;
  for (int s = 0; s < kSessions; ++s) {
    TcpTransportOptions transport_options;  // examples/dp_client's dial
    transport_options.connect_retry.max_retries = 40;
    transport_options.connect_retry.initial_backoff_seconds = 0.25;
    transport_options.connect_retry.backoff_multiplier = 1.0;
    transport_options.connect_retry.max_backoff_seconds = 0.25;
    transport_options.connect_retry.jitter = 0;
    transport_options.connect_retry.deadline_seconds = 20.0;
    const double t0 = NowSeconds();
    auto transport = TcpTransport::Connect("127.0.0.1", server.port(),
                                           sessions[s].keys.public_key,
                                           transport_options);
    handshake_seconds += NowSeconds() - t0;
    PPS_CHECK_OK(transport.status());
    sessions[s].transport = std::move(transport).value();
    sessions[s].dp = std::make_shared<DataProvider>(
        sessions[s].transport->view_plan(), sessions[s].keys,
        /*enc_seed=*/7 + static_cast<uint64_t>(s));
  }
  std::atomic<uint64_t> failed{0};
  const std::vector<Outcome> warm =
      Drive(sessions, in.samples, 0, 1, nullptr, nullptr, &failed);
  const double setup_s = SetupSeconds(in.seconds);

  OutputChecker checker(plan, in.model, in.samples);
  CheckOutcomes(report, checker, warm);
  CheckCalibrationOps(report, sessions[0].keys, options.seed);
  const obs::RequestCostBudget budget = ExpectedRequestCost(*plan);
  SelfTestAccounting(report, budget);

  // ---- timed phase.
  const Counts c0 = Counts::Read();
  const TransportStats wire0 = TotalStats(sessions);
  const double cpu0 = ProcessCpuSeconds();
  const std::vector<Outcome> timed =
      Drive(sessions, in.samples, options.timed_seconds(), 10000000, nullptr,
            nullptr, &failed);
  const double cpu1 = ProcessCpuSeconds();
  const Counts timed_counts = Counts::Read() - c0;
  const TransportStats wire = TotalStats(sessions) - wire0;
  report.attempted += timed.size() + failed.load();

  CheckOutcomes(report, checker, timed);
  const std::string price = CheckPrice(timed_counts, timed.size(), budget);
  report.Check(price.empty(), "timed phase: " + price);
  // Every ciphertext on a socket lives mod n^2, so it takes more than
  // key_bits/8 bytes: a floor on the payload that needs no tracing.
  uint64_t elements = 0;
  for (const LinearStage& stage : plan->linear_stages) {
    elements += static_cast<uint64_t>(stage.input_shape.NumElements() +
                                      stage.output_shape.NumElements());
  }
  const std::string payload = CheckPayload(
      wire.bytes_sent + wire.bytes_received,
      timed.size() * elements * static_cast<uint64_t>(kKeyBits / 8));
  report.Check(payload.empty(), "timed phase: " + payload);
  if (!timed.empty()) {
    checker.SelfTest(report, timed[0].inputs[0], timed[0].outputs[0]);
  }

  TimedPhase phase(timed);
  phase.cpu_seconds = cpu1 - cpu0;
  phase.comm_bytes =
      static_cast<double>(wire.bytes_sent + wire.bytes_received);
  std::fprintf(stderr, "max |output - float| = %.3g\n",
               checker.max_float_error());

  if (options.trace) {
    SpanLog log;
    ModelProvider probe(plan, sessions[0].keys.public_key, /*obf_seed=*/0x9B0);
    const Counts c2 = Counts::Read();
    const TransportStats wire2 = TotalStats(sessions);
    const std::vector<Outcome> traced =
        Drive(sessions, in.samples, options.traced_seconds(), 20000000, &log,
              &probe, &failed);
    TracedPhase tp(log, traced);
    tp.counts = Counts::Read() - c2;
    tp.wire = TotalStats(sessions) - wire2;
    report.attempted += traced.size();
    CheckOutcomes(report, checker, traced);
    const std::string traced_price =
        CheckPrice(tp.counts, traced.size(), budget);
    report.Check(traced_price.empty(), "traced phase: " + traced_price);

    tp.clients = kSessions;
    tp.throughput_ips = Throughput(traced);
    tp.net.handshake_ms = handshake_seconds * 1e3 / kSessions;
    tp.net.ping_rtt_us = PingRttUs(sessions[0].transport->channel(), 200);
    const OpCosts costs = MeasureOpCosts(sessions[0].keys, *plan, options.seed);
    ReportLayers(report, tp, *plan, costs, phase.throughput_ips,
                 compile_seconds,
                 PerRequest(timed_counts.cost_reconciled, timed.size()));
    if (!options.trace_dir.empty()) {
      log.WriteJson(options.trace_dir + "/serve-heart-seed" +
                    std::to_string(options.seed) + ".json");
    }
  } else {
    ReportEndToEnd(report, phase, setup_s);
  }
  report.failed = failed.load();

  for (Session& s : sessions) s.transport->Close();
  server.Shutdown();
  serve_thread.join();
}

}  // namespace perfbench
