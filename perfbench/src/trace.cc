#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "checks.h"
#include "core/affine.h"
#include "crypto/randomizer_pool.h"
#include "net/server.h"
#include "net/wire.h"
#include "stream/message.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace ppstream;

namespace {

const char* StepName(Step step) {
  switch (step) {
    case Step::kDpEncrypt: return "dp.encrypt";
    case Step::kMpInverse: return "mp.inverse_obfuscate";
    case Step::kMpLinear: return "mp.linear";
    case Step::kMpObfuscate: return "mp.obfuscate";
    case Step::kMpRound: return "mp.round";
    case Step::kMpRelease: return "mp.release";
    case Step::kDpNonlinear: return "dp.nonlinear";
    case Step::kDpFinal: return "dp.final";
  }
  return "?";
}

int64_t Abs(int64_t w) { return w < 0 ? -w : w; }

int BitLength(int64_t magnitude) {
  int bits = 0;
  while ((magnitude >> bits) != 0) ++bits;
  return bits;
}

bool IsModelProviderStep(Step step) {
  return step == Step::kMpInverse || step == Step::kMpLinear ||
         step == Step::kMpObfuscate || step == Step::kMpRound ||
         step == Step::kMpRelease;
}

/// Times `fn` over `reps` repetitions of `per_rep` ops and returns the
/// median per-op cost in microseconds.
template <typename Fn>
double MedianOpMicros(int reps, int per_rep, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    for (int i = 0; i < per_rep; ++i) fn(i);
    samples.push_back((NowSeconds() - t0) * 1e6 / per_rep);
  }
  return Quantile(samples, 0.5);
}

/// How one evaluation of `plan` (a request, or a batch of `lanes` on the
/// packed path) splits its scalar-muls, mirroring the kernels in
/// core/affine.cc: a slot tapped by at least kFixedBaseBreakEvenFanOut
/// terms with a weight of 2 or more bits gets a fixed-base table (one
/// build per evaluation) that serves its terms (packed: its singleton
/// groups); weight-1 terms (packed: groups) cost one modular
/// multiplication; the rest exponentiate.
struct MulSplit {
  double plain = 0;
  double fixed_base = 0;
  double unit = 0;
  double tables = 0;
  /// Fan-out and largest weight's bit length of every tabled slot (the
  /// program sizes each table from exactly these).
  std::vector<double> table_fan_out;
  std::vector<double> table_weight_bits;
};
MulSplit PlanMulSplit(const InferencePlan& plan, bool packed, double lanes) {
  MulSplit split;
  auto classify = [&split](bool table, int64_t weight, double times) {
    if (table) {
      split.fixed_base += times;
    } else if (weight == 1 || weight == -1) {
      split.unit += times;
    } else {
      split.plain += times;
    }
  };
  for (const LinearStage& stage : plan.linear_stages) {
    const bool packed_stage = packed && stage.packed_layout.has_value();
    const double times = packed && !packed_stage ? lanes : 1.0;
    for (size_t k = 0; k < stage.ops.size(); ++k) {
      const IntegerAffineLayer& op = stage.ops[k];
      std::map<uint32_t, std::pair<int64_t, int64_t>> profile;  // taps, max|w|
      for (const AffineRow& row : op.rows()) {
        for (const AffineTerm& t : row.terms) {
          auto& p = profile[t.input_index];
          ++p.first;
          p.second = std::max(p.second, Abs(t.weight));
        }
      }
      std::set<uint32_t> tables;
      for (const auto& [slot, p] : profile) {
        if (p.first >= IntegerAffineLayer::kFixedBaseBreakEvenFanOut &&
            p.second >= 2) {
          tables.insert(slot);
          split.table_fan_out.push_back(static_cast<double>(p.first));
          split.table_weight_bits.push_back(BitLength(p.second));
        }
      }
      split.tables += times * static_cast<double>(tables.size());
      if (packed_stage) {
        for (const PackedRowPlan& row : stage.packed_kernels[k].rows()) {
          if (row.identity) continue;
          for (const PackedWeightGroup& g : row.groups) {
            classify(g.inputs.size() == 1 && tables.count(g.inputs[0]) > 0,
                     g.weight, 1.0);
          }
        }
        continue;
      }
      for (const AffineRow& row : op.rows()) {
        if (row.terms.size() == 1 && row.terms[0].weight == 1 &&
            row.bias.IsZero()) {
          continue;  // identity rows forward their input
        }
        for (const AffineTerm& t : row.terms) {
          if (t.weight != 0) {
            classify(tables.count(t.input_index) > 0, t.weight, times);
          }
        }
      }
    }
  }
  return split;
}

}  // namespace

void SpanLog::SetRequest(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_[std::this_thread::get_id()] = id;
}

void SpanLog::Submitted(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  fifo_ = true;
  submitted_.push_back(id);
}

uint64_t SpanLog::Attribute(Step step, int round) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fifo_) return current_[std::this_thread::get_id()];
  const size_t k = calls_[{static_cast<int>(step), round}]++;
  if (k >= submitted_.size()) {
    consistent_ = false;
    return 0;
  }
  return submitted_[k];
}

void SpanLog::Expect(Step step, int round, uint64_t id) {
  if (Attribute(step, round) != id) {
    std::lock_guard<std::mutex> lock(mutex_);
    consistent_ = false;
  }
}

void SpanLog::Record(uint64_t request, Step step, int round, double start,
                     double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{request, step, round, start, end});
}

void SpanLog::RecordWire(uint64_t request, uint64_t bytes,
                         double serdes_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Wire& w = wire_[request];
  w.bytes += bytes;
  w.serdes_seconds += serdes_seconds;
}

void SpanLog::RecordSideObfuscate(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  side_obfuscate_ += seconds;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<uint64_t, SpanLog::Wire> SpanLog::wire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wire_;
}

double SpanLog::side_obfuscate_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return side_obfuscate_;
}

bool SpanLog::attribution_consistent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return consistent_;
}

void SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::vector<Span> all = spans();
  const double t0 = all.empty() ? 0 : all.front().start;
  out << "[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"request\": %llu, \"round\": %d}}",
                  i == 0 ? "" : ",", StepName(s.step),
                  static_cast<unsigned long long>(s.request),
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.request), s.round);
    out << line;
  }
  out << "\n]\n";
}

void RecordCrossing(SpanLog& log, uint64_t request,
                    const std::vector<Ciphertext>& v) {
  const double t0 = NowSeconds();
  const std::vector<uint8_t> bytes = SerializeCiphertexts(v);
  auto back = DeserializeCiphertexts(bytes);
  const double t1 = NowSeconds();
  PPS_CHECK(back.ok() && back->size() == v.size()) << "codec round trip";
  log.RecordWire(request, bytes.size(), t1 - t0);
}

TracedModelProvider::TracedModelProvider(
    std::shared_ptr<ModelProviderApi> inner, SpanLog* log,
    ModelProvider* obfuscation_probe)
    : inner_(std::move(inner)), log_(log), probe_(obfuscation_probe) {}

Result<std::vector<Ciphertext>> TracedModelProvider::ProcessRound(
    uint64_t request_id, size_t round, const std::vector<Ciphertext>& in) {
  const double t0 = NowSeconds();
  auto out = inner_->ProcessRound(request_id, round, in);
  log_->Record(request_id, Step::kMpRound, static_cast<int>(round), t0,
               NowSeconds());
  if (out.ok()) {
    RecordCrossing(*log_, request_id, *out);
    if (probe_ != nullptr && round + 1 < plan().NumRounds()) {
      const double s0 = NowSeconds();
      auto permuted = probe_->Obfuscate(request_id, round, *out);
      log_->RecordSideObfuscate(NowSeconds() - s0);
      PPS_CHECK_OK(permuted.status());
      PPS_CHECK_OK(probe_->ReleaseRequestState(request_id));
    }
  }
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::InverseObfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  const int r = static_cast<int>(round);
  log_->Expect(Step::kMpInverse, r, request_id);
  const double t0 = NowSeconds();
  auto out = inner_->InverseObfuscate(request_id, round, std::move(in));
  log_->Record(request_id, Step::kMpInverse, r, t0, NowSeconds());
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::ApplyLinearStage(
    size_t round, const std::vector<Ciphertext>& in, ThreadPool* pool,
    bool input_partitioning) {
  const int r = static_cast<int>(round);
  const uint64_t id = log_->Attribute(Step::kMpLinear, r);
  const double t0 = NowSeconds();
  auto out = inner_->ApplyLinearStage(round, in, pool, input_partitioning);
  log_->Record(id, Step::kMpLinear, r, t0, NowSeconds());
  // The last round's linear output goes straight back to the data
  // provider; earlier ones cross after Obfuscate.
  if (out.ok() && round + 1 == plan().NumRounds()) {
    RecordCrossing(*log_, id, *out);
  }
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::Obfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  const int r = static_cast<int>(round);
  log_->Expect(Step::kMpObfuscate, r, request_id);
  const double t0 = NowSeconds();
  auto out = inner_->Obfuscate(request_id, round, std::move(in));
  log_->Record(request_id, Step::kMpObfuscate, r, t0, NowSeconds());
  if (out.ok()) RecordCrossing(*log_, request_id, *out);
  return out;
}

Status TracedModelProvider::ReleaseRequestState(uint64_t request_id) {
  const double t0 = NowSeconds();
  Status s = inner_->ReleaseRequestState(request_id);
  log_->Record(request_id, Step::kMpRelease, 0, t0, NowSeconds());
  return s;
}

TracedDataProvider::TracedDataProvider(std::shared_ptr<DataProviderApi> inner,
                                       SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

Result<std::vector<Ciphertext>> TracedDataProvider::EncryptInput(
    const DoubleTensor& input) {
  const uint64_t id = log_->Attribute(Step::kDpEncrypt, 0);
  const double t0 = NowSeconds();
  auto out = inner_->EncryptInput(input);
  log_->Record(id, Step::kDpEncrypt, 0, t0, NowSeconds());
  if (out.ok()) RecordCrossing(*log_, id, *out);
  return out;
}

Result<std::vector<Ciphertext>> TracedDataProvider::EncryptInputParallel(
    const DoubleTensor& input, ThreadPool* pool) {
  const uint64_t id = log_->Attribute(Step::kDpEncrypt, 0);
  const double t0 = NowSeconds();
  auto out = inner_->EncryptInputParallel(input, pool);
  log_->Record(id, Step::kDpEncrypt, 0, t0, NowSeconds());
  if (out.ok()) RecordCrossing(*log_, id, *out);
  return out;
}

Result<std::vector<Ciphertext>> TracedDataProvider::ProcessIntermediate(
    size_t round, const std::vector<Ciphertext>& in,
    std::vector<double>* decrypted_view, ThreadPool* pool) {
  const int r = static_cast<int>(round);
  const uint64_t id = log_->Attribute(Step::kDpNonlinear, r);
  const double t0 = NowSeconds();
  auto out = inner_->ProcessIntermediate(round, in, decrypted_view, pool);
  log_->Record(id, Step::kDpNonlinear, r, t0, NowSeconds());
  if (out.ok()) RecordCrossing(*log_, id, *out);
  return out;
}

Result<DoubleTensor> TracedDataProvider::ProcessFinal(
    const std::vector<Ciphertext>& in, ThreadPool* pool) {
  const uint64_t id = log_->Attribute(Step::kDpFinal, 0);
  const double t0 = NowSeconds();
  auto out = inner_->ProcessFinal(in, pool);
  log_->Record(id, Step::kDpFinal, 0, t0, NowSeconds());
  return out;
}

OpCosts MeasureOpCosts(const PaillierKeyPair& keys, const InferencePlan& plan,
                       uint64_t seed) {
  const PaillierPublicKey& pk = keys.public_key;
  OpCosts costs;
  constexpr int kReps = 5;

  // Fixed-base tables sized as the program sizes them for its median
  // tabled slot, and the plan's own weights (|w| >= 2; weight-1 terms are
  // priced as a modmul) that such a table covers.
  const MulSplit split = PlanMulSplit(plan, /*packed=*/false, /*lanes=*/1);
  const int64_t fan_out =
      split.table_fan_out.empty()
          ? 16
          : static_cast<int64_t>(Quantile(split.table_fan_out, 0.5));
  const int table_bits =
      split.table_weight_bits.empty()
          ? 63
          : static_cast<int>(Quantile(split.table_weight_bits, 0.5));
  std::vector<int64_t> weights;
  for (const LinearStage& stage : plan.linear_stages) {
    for (const IntegerAffineLayer& op : stage.ops) {
      for (const AffineRow& row : op.rows()) {
        for (const AffineTerm& t : row.terms) {
          if (Abs(t.weight) >= 2 && BitLength(Abs(t.weight)) <= table_bits &&
              weights.size() < 64) {
            weights.push_back(t.weight);
          }
        }
      }
    }
  }
  PPS_CHECK(!weights.empty()) << "plan has no weights";

  // Randomizers as the pool computes them (r^n mod n^2), and pooled
  // encryption, from a pool with no background thread.
  RandomizerPool::Options pool_options;
  pool_options.capacity = 32;
  pool_options.background_refill = false;
  {
    std::vector<double> fill;
    std::vector<double> encrypt;
    for (int r = 0; r < kReps; ++r) {
      RandomizerPool pool(pk, seed + static_cast<uint64_t>(r), pool_options);
      double t0 = NowSeconds();
      pool.Fill();
      fill.push_back((NowSeconds() - t0) * 1e6 / pool_options.capacity);
      t0 = NowSeconds();
      for (size_t i = 0; i < pool_options.capacity; ++i) {
        PPS_CHECK_OK(pool.Encrypt(BigInt(static_cast<int64_t>(i))).status());
      }
      encrypt.push_back((NowSeconds() - t0) * 1e6 / pool_options.capacity);
    }
    costs.randomizer_us = Quantile(fill, 0.5);
    costs.encrypt_pooled_us = Quantile(encrypt, 0.5);
  }

  SecureRng rng = SecureRng::FromSeed(seed);
  auto c = Paillier::Encrypt(pk, BigInt(12345), rng);
  PPS_CHECK_OK(c.status());
  costs.decrypt_us = MedianOpMicros(kReps, 16, [&](int) {
    PPS_CHECK_OK(Paillier::Decrypt(pk, keys.private_key, *c).status());
  });
  const int n_w = static_cast<int>(weights.size());
  costs.scalar_mul_us = MedianOpMicros(kReps, n_w, [&](int i) {
    PPS_CHECK_OK(Paillier::ScalarMul(pk, *c, BigInt(weights[i])).status());
  });
  std::vector<double> builds;
  std::vector<double> fixed;
  for (int r = 0; r < kReps; ++r) {
    double t0 = NowSeconds();
    auto table = Paillier::PrecomputeScalarMulBase(pk, *c, table_bits,
                                                   /*allow_negative=*/true,
                                                   fan_out);
    builds.push_back((NowSeconds() - t0) * 1e6);
    PPS_CHECK_OK(table.status());
    t0 = NowSeconds();
    for (int i = 0; i < n_w; ++i) {
      PPS_CHECK_OK(
          Paillier::ScalarMulPrecomputed(*table, BigInt(weights[i])).status());
    }
    fixed.push_back((NowSeconds() - t0) * 1e6 / n_w);
  }
  costs.fixed_base_build_us = Quantile(builds, 0.5);
  costs.scalar_mul_fixed_base_us = Quantile(fixed, 0.5);

  // The calibration op: a full-width exponent mod n^2.
  Rng big_rng(seed);
  const MontgomeryContext& ctx = pk.ctx_n2();
  const BigInt x = BigInt::RandomBelow(big_rng, pk.n_squared());
  const BigInt e = BigInt::RandomBelow(big_rng, pk.n_squared());
  costs.modexp_us =
      MedianOpMicros(kReps, 8, [&](int) { (void)ctx.ModExp(x, e); });
  const BigInt y = BigInt::RandomBelow(big_rng, pk.n_squared());
  costs.modmul_ns =
      1e3 * MedianOpMicros(kReps, 2000, [&](int) { (void)ctx.ModMul(x, y); });
  return costs;
}

double PingRttUs(FrameChannel& channel, int pings) {
  std::vector<double> rtts;
  for (int i = 0; i < pings; ++i) {
    const double t0 = NowSeconds();
    auto pong =
        channel.RoundTrip(MakeRequestFrame(WireMethod::kPing, 0, 0, {}));
    rtts.push_back((NowSeconds() - t0) * 1e6);
    PPS_CHECK_OK(pong.status());
  }
  return Quantile(rtts, 0.5);
}

NetProbe ProbeNet(std::shared_ptr<const InferencePlan> plan,
                  const PaillierPublicKey& pk) {
  NetProbe probe;
  ModelProviderTcpServer server(plan);
  PPS_CHECK_OK(server.Listen(0));
  std::thread serve([&server] { PPS_CHECK_OK(server.Serve()); });
  const double t0 = NowSeconds();
  auto transport = TcpTransport::Connect("127.0.0.1", server.port(), pk);
  probe.handshake_ms = (NowSeconds() - t0) * 1e3;
  PPS_CHECK_OK(transport.status());
  probe.ping_rtt_us = PingRttUs((*transport)->channel(), 200);
  (*transport)->Close();
  server.Shutdown();
  serve.join();
  return probe;
}

TracedPhase::TracedPhase(const SpanLog& span_log,
                         const std::vector<Outcome>& outcomes)
    : log(&span_log), makespan(Makespan(outcomes)) {
  for (const Outcome& o : outcomes) latency[o.id] = o.end - o.start;
}

void ReportLayers(Report& report, const TracedPhase& phase,
                  const InferencePlan& plan, const OpCosts& costs,
                  double timed_throughput_ips, double compile_seconds,
                  double reconciled_share) {
  const SpanLog& log = *phase.log;
  const int rounds = static_cast<int>(plan.NumRounds());
  const double requests = static_cast<double>(phase.latency.size());
  const double inferences = std::max(1.0, requests * phase.lanes);
  auto per_inf_ms = [&](double seconds) { return seconds * 1e3 / inferences; };

  // Span time by step, by linear round, by pipeline stage, by request.
  std::map<Step, double> by_step;
  std::vector<double> mp_round(static_cast<size_t>(rounds), 0.0);
  std::vector<double> stage(static_cast<size_t>(2 * rounds + 1), 0.0);
  std::map<uint64_t, double> by_request;
  double mp_calls = 0;
  for (const Span& s : log.spans()) {
    const double d = s.end - s.start;
    by_step[s.step] += d;
    by_request[s.request] += d;
    if (IsModelProviderStep(s.step)) mp_calls += d;
    size_t st = 0;
    switch (s.step) {
      case Step::kDpEncrypt: st = 0; break;
      case Step::kMpInverse:
      case Step::kMpLinear:
      case Step::kMpRound:
        mp_round[static_cast<size_t>(s.round)] += d;
        st = static_cast<size_t>(2 * s.round + 1);
        break;
      case Step::kMpObfuscate: st = static_cast<size_t>(2 * s.round + 1); break;
      case Step::kDpNonlinear: st = static_cast<size_t>(2 * s.round + 2); break;
      case Step::kDpFinal:
      case Step::kMpRelease: st = static_cast<size_t>(2 * rounds); break;
    }
    stage[st] += d;
  }

  // Checks: spans fit each request's own latency; attribution held.
  double gap = 0;
  for (const auto& [id, latency] : phase.latency) {
    const double spans = by_request.count(id) ? by_request.at(id) : 0.0;
    const std::string why = CheckSpansFit(spans, latency);
    report.Check(why.empty(), "request " + std::to_string(id) + ": " + why);
    gap += latency - spans;
  }
  report.Check(by_request.size() == phase.latency.size(),
               "spans name requests that were never timed");
  report.Check(log.attribution_consistent(),
               "span attribution contradicts the request ids the engine "
               "passed");
  uint64_t payload = 0;
  double serdes = 0;
  for (const auto& [id, w] : log.wire()) {
    payload += w.bytes;
    serdes += w.serdes_seconds;
  }
  const uint64_t socket = phase.wire.bytes_sent + phase.wire.bytes_received;
  if (socket > 0) {
    const std::string why = CheckPayload(socket, payload);
    report.Check(why.empty(), why);
  }

  const double dp_encrypt = per_inf_ms(by_step[Step::kDpEncrypt]);
  double mp_linear = 0;
  for (double t : mp_round) mp_linear += t;
  mp_linear = per_inf_ms(mp_linear);
  const double mp_obfuscate =
      per_inf_ms(by_step[Step::kMpObfuscate] + log.side_obfuscate_seconds());
  const double dp_nonlinear = per_inf_ms(by_step[Step::kDpNonlinear]);
  const double dp_final = per_inf_ms(by_step[Step::kDpFinal]);
  report.Set("core.dp_encrypt_ms", dp_encrypt, "ms");
  report.Set("core.mp_linear_ms", mp_linear, "ms");
  for (int r = 0; r < 3; ++r) {
    report.Set("core.mp_linear_r" + std::to_string(r) + "_ms",
               r < rounds ? per_inf_ms(mp_round[static_cast<size_t>(r)]) : 0.0,
               "ms");
  }
  report.Set("core.mp_obfuscate_ms", mp_obfuscate, "ms");
  report.Set("core.dp_nonlinear_ms", dp_nonlinear, "ms");
  report.Set("core.dp_final_ms", dp_final, "ms");
  report.Set("core.cross_party_kb",
             static_cast<double>(payload) / 1024.0 / inferences, "KiB");

  // Counts from the program's registry, per inference.
  const Counts& c = phase.counts;
  auto per_inf = [&](uint64_t n) {
    return static_cast<double>(n) / inferences;
  };
  report.Set("crypto.encrypts", per_inf(c.encrypts), "count");
  report.Set("crypto.decrypts", per_inf(c.decrypts), "count");
  report.Set("crypto.scalar_muls", per_inf(c.scalar_muls), "count");
  report.Set("crypto.pack_hom_adds", per_inf(c.pack_hom_adds), "count");
  report.Set("crypto.pool_produced", per_inf(c.pool_produced), "count");
  report.Set("crypto.pool_misses", per_inf(c.pool_misses), "count");
  const uint64_t takes = c.pool_hits + c.pool_misses;
  report.Set("crypto.pool_miss_ratio",
             takes == 0 ? 0.0 : static_cast<double>(c.pool_misses) / takes,
             "ratio");
  report.Set("crypto.randomizer_us", costs.randomizer_us, "us");
  report.Set("crypto.encrypt_pooled_us", costs.encrypt_pooled_us, "us");
  report.Set("crypto.decrypt_us", costs.decrypt_us, "us");
  report.Set("crypto.scalar_mul_us", costs.scalar_mul_us, "us");
  report.Set("crypto.scalar_mul_fixed_base_us", costs.scalar_mul_fixed_base_us,
             "us");
  report.Set("crypto.fixed_base_build_us", costs.fixed_base_build_us, "us");
  report.Set("crypto.randomizer_cpu_ms",
             per_inf(c.pool_produced) * costs.randomizer_us / 1e3, "ms");

  // Count x cost over the ops that run inside the provider spans (pool
  // refills run on the pool's own thread and are priced above instead).
  // The counted scalar-muls, split in the plan's proportions.
  const MulSplit split = PlanMulSplit(plan, phase.packed, phase.lanes);
  const double planned = split.plain + split.fixed_base + split.unit;
  const double muls_share = planned > 0 ? per_inf(c.scalar_muls) / planned : 0;
  const double modelled_ms =
      (per_inf(c.encrypts) * costs.encrypt_pooled_us +
       per_inf(c.decrypts) * costs.decrypt_us +
       muls_share * (split.plain * costs.scalar_mul_us +
                     split.fixed_base * costs.scalar_mul_fixed_base_us +
                     split.unit * costs.modmul_ns / 1e3) +
       split.tables / phase.lanes * costs.fixed_base_build_us +
       per_inf(c.pool_misses) * costs.randomizer_us +
       per_inf(c.pack_hom_adds) * costs.modmul_ns / 1e3) /
      1e3;
  const double core_ms =
      dp_encrypt + mp_linear + mp_obfuscate + dp_nonlinear + dp_final;
  report.Set("crypto.modelled_ms", modelled_ms, "ms");
  report.Set("crypto.explained_share", core_ms > 0 ? modelled_ms / core_ms : 0,
             "ratio");

  report.Set("bignum.modexp_us", costs.modexp_us, "us");
  report.Set("bignum.modmul_ns", costs.modmul_ns, "ns");

  report.Set("stream.gap_ms", per_inf_ms(gap), "ms");
  report.Set("stream.serdes_ms", per_inf_ms(serdes), "ms");
  const double capacity = std::max(1e-9, phase.makespan * phase.clients);
  for (int i = 0; i <= 2 * rounds; ++i) {
    std::string name;
    if (i == 0) {
      name = "dp-encrypt";
    } else if (i == 2 * rounds) {
      name = "dp-final";
    } else if (i % 2 == 1) {
      name = "mp-linear-" + std::to_string((i - 1) / 2);
    } else {
      name = "dp-nonlinear-" + std::to_string((i - 2) / 2);
    }
    report.Set("stream.busy_share." + name,
               stage[static_cast<size_t>(i)] / capacity, "ratio");
  }

  report.Set("net.mp_call_ms", per_inf_ms(mp_calls), "ms");
  report.Set("net.frames",
             per_inf(phase.wire.frames_sent + phase.wire.frames_received),
             "count");
  report.Set("net.kb_sent", per_inf(phase.wire.bytes_sent) / 1024.0, "KiB");
  report.Set("net.kb_received", per_inf(phase.wire.bytes_received) / 1024.0,
             "KiB");
  report.Set("net.ping_rtt_us", phase.net.ping_rtt_us, "us");
  report.Set("net.handshake_ms", phase.net.handshake_ms, "ms");

  report.Set("obs.cost_reconciled_share", reconciled_share, "ratio");
  report.Set("planner.compile_ms", compile_seconds * 1e3, "ms");
  report.Set("trace.overhead_share",
             timed_throughput_ips > 0
                 ? (timed_throughput_ips - phase.throughput_ips) /
                       timed_throughput_ips
                 : 0.0,
             "ratio");

  std::fprintf(stderr,
               "traced: %.0f requests, %.3f inf/s traced vs %.3f timed; core "
               "span %.2f ms/inf, modelled %.2f ms/inf; modexp %.1f us\n",
               requests, phase.throughput_ips, timed_throughput_ips, core_ms,
               modelled_ms, costs.modexp_us);
}

}  // namespace perfbench
