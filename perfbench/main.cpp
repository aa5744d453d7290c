// perfbench — DLRM serving through the live enw::serve::Server under
// closed- and open-loop load, plus minibatch MLP training, with every reply
// checked against the offline model.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//
// Workloads (each serves one DLRM and trains Mlp{784,256,10}; they differ in
// which layer the time goes to and in how the run is split):
//   dlrm_small  default DlrmConfig, 2000 rows/table (~1 MB of tables, L2
//               resident): under 10 us of compute per request, so the serve
//               handoff (admission, collation, wake-up) dominates.
//   dlrm_rmc1   DlrmConfig::memory_dominated(): 24 tables x 200k rows x 32
//               fp32 (~614 MB), 100k-sample pool: embedding gather plus
//               interaction dominate (recsys).
//   dlrm_rmc3   DlrmConfig::compute_dominated(): 512-256-128 MLP stacks, 4
//               small tables: matmul_nt dominates (tensor / nn).
//   mlp_train   most of the run trains Mlp{784,256,10} at batch 64 — weights
//               are written every step, so anything cached from them pays
//               its rebuild cost here; its short serving phases reuse the
//               dlrm_small model.
//
// --trace 0 prints the end-to-end metrics (serving timed with tracing off,
// through the production serve::dlrm_backend). --trace 1 prints the
// per-layer metrics: each layer timed from outside through its public
// calls, serving through a BatchFn wrapper that times every batch, then a
// traced (enw::obs) serving + training pass whose per-span self times are
// printed and, with --trace-out, exported as JSON.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/cpu_features.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "data/synthetic_mnist.h"
#include "layers.h"
#include "load.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "obs/obs.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/server.h"

namespace {

using enw::Matrix;
using enw::Rng;
using enw::data::ClickSample;
using enw::recsys::Dlrm;
using enw::recsys::DlrmConfig;
using enw::serve::ServeConfig;
using enw::serve::ServerStats;
using perfbench::LoadResult;
using perfbench::Metric;
using perfbench::monotonic_now_ns;
using DlrmServer = enw::serve::Server<ClickSample, float>;

// Serving runs kernels inline on the collator thread: 3 submitters plus the
// collator fill a 4-CPU machine. Training gets two kernel threads.
constexpr std::size_t kServeThreads = 1;
constexpr std::size_t kTrainThreads = 2;
constexpr std::size_t kClients = 3;
constexpr std::size_t kTrainBatch = 64;
constexpr std::size_t kTrainSamples = 2048;
constexpr float kTrainLr = 0.05f;
constexpr double kWarmShare = 0.1;  // of each serving phase, served but untimed
constexpr std::uint64_t kModelSeed = 0x5eedu;
constexpr double kRoundSeconds = 0.75;    // untraced runs: rounds of ~0.75 s
constexpr std::size_t kTracedRounds = 3;  // per-layer runs: untraced rounds
// Timed requests per window (load.h): closed-loop windows leave five samples
// beyond p99, open-loop windows twenty beyond p90. Longer closed-loop windows
// made the median window p99 spread more from run to run, not less.
constexpr std::size_t kClosedWindow = 500;
constexpr std::size_t kOpenWindow = 200;

// The window is 0: at three submitters any window only adds latency.
const ServeConfig kServe{32, 0, 1024, enw::serve::AdmissionPolicy::kBlock};

struct Workload {
  const char* name;
  DlrmConfig dlrm;
  std::size_t pool;     // distinct request samples
  double open_rps;      // fixed open-loop rate, ~30% of the closed-loop rate
  double closed_share;  // share of a run spent in closed-loop serving
  double open_share;    // ... in open-loop serving; the rest trains
};

DlrmConfig small_config() {
  DlrmConfig c;
  c.rows_per_table = 2000;
  return c;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"dlrm_small", small_config(), 4096, 20000.0, 0.45, 0.45},
      {"dlrm_rmc1", DlrmConfig::memory_dominated(), 100000, 12000.0, 0.45, 0.45},
      {"dlrm_rmc3", DlrmConfig::compute_dominated(), 4096, 4000.0, 0.45, 0.45},
      {"mlp_train", small_config(), 4096, 20000.0, 0.25, 0.15},
  };
  return all;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : workloads()) {
        if (val == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload " + val);
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload == nullptr || !have_seed || !have_trace) usage("missing argument");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

/// Host steal time so far, in ms (the 8th field of /proc/stat's cpu line).
double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  in >> cpu;
  for (std::uint64_t& v : f) in >> v;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(f[7]) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void print_context(const Workload& w) {
  const char* env_threads = std::getenv("ENW_THREADS");
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const enw::core::KernelBackend& b = enw::core::backend();
  std::printf("context: workload=%s nproc=%ld cpu=[%s] backend=%s isa=%s "
              "ENW_THREADS=%s serve_threads=%zu train_threads=%zu l2_kib=%ld "
              "l3_kib=%ld\n",
              w.name, sysconf(_SC_NPROCESSORS_ONLN),
              enw::core::cpu_feature_summary().c_str(), b.name(), b.isa(),
              env_threads ? env_threads : "(unset)", kServeThreads, kTrainThreads,
              l2 > 0 ? l2 / 1024 : -1, l3 > 0 ? l3 / 1024 : -1);
}

/// Mlp{784,256,10} minibatch SGD on synthetic MNIST batches. The loss must
/// stay finite and end below the first step's loss.
class Trainer {
 public:
  Trainer(std::unique_ptr<enw::nn::Mlp> net, std::uint64_t seed) : net_(std::move(net)) {
    enw::data::SyntheticMnistConfig cfg;
    cfg.seed = seed;
    const enw::data::SyntheticMnist gen(cfg);
    Rng rng(seed);
    const enw::data::Dataset ds = gen.sample(kTrainSamples, rng);
    for (std::size_t first = 0; first + kTrainBatch <= ds.size(); first += kTrainBatch) {
      Matrix x(kTrainBatch, ds.feature_dim());
      std::copy(ds.features.data() + first * ds.feature_dim(),
                ds.features.data() + (first + kTrainBatch) * ds.feature_dim(), x.data());
      xs_.push_back(std::move(x));
      ys_.emplace_back(ds.labels.begin() + first, ds.labels.begin() + first + kTrainBatch);
    }
  }

  struct Result {
    std::uint64_t steps = 0;
    std::uint64_t failed = 0;
    double seconds = 0.0;
    double steal_ms = 0.0;  // host steal during the block
    perfbench::Sample step;
    double samples_per_s() const {
      return static_cast<double>(steps * kTrainBatch) / seconds;
    }
  };

  Result run(double seconds) {
    enw::parallel::set_thread_count(kTrainThreads);
    Result r;
    const std::uint64_t start = monotonic_now_ns();
    const std::uint64_t end = start + perfbench::seconds_to_ns(seconds);
    std::uint64_t now = start;
    while (now < end || r.steps == 0) {
      const std::size_t b = losses_.size() % xs_.size();
      float loss;
      {
        ENW_SPAN("bench.train_batch");
        loss = net_->train_batch(xs_[b], ys_[b], kTrainLr);
      }
      const std::uint64_t t = monotonic_now_ns();
      r.step.ns.push_back(t - now);
      now = t;
      ++r.steps;
      if (!std::isfinite(loss)) ++r.failed;
      losses_.push_back(loss);
    }
    r.seconds = static_cast<double>(now - start) / 1e9;
    enw::parallel::set_thread_count(kServeThreads);
    return r;
  }

  /// 0 when the mean loss of the last pass over the data is below the first
  /// step's loss (so batch-to-batch noise cannot fail it), else 1.
  std::uint64_t check_converged() const {
    const std::size_t tail = std::min(losses_.size(), xs_.size());
    double mean = 0.0;
    for (std::size_t i = losses_.size() - tail; i < losses_.size(); ++i) mean += losses_[i];
    mean /= static_cast<double>(tail);
    std::printf("train: %zu steps, loss first %.4f, mean of last %zu %.4f\n",
                losses_.size(), losses_.front(), tail, mean);
    return mean < losses_.front() ? 0 : 1;
  }

 private:
  std::unique_ptr<enw::nn::Mlp> net_;
  std::vector<Matrix> xs_;
  std::vector<std::vector<std::size_t>> ys_;
  std::vector<float> losses_;
};

std::unique_ptr<enw::nn::Mlp> build_mlp(Rng& rng) {
  enw::nn::MlpConfig cfg;
  cfg.dims = {784, 256, 10};
  cfg.hidden_activation = enw::nn::Activation::kRelu;
  return std::make_unique<enw::nn::Mlp>(cfg, enw::nn::DigitalLinear::factory(rng));
}

/// Per-batch execute times recorded by the timing BatchFn (collator thread
/// only; read after the server shut down).
struct BatchLog {
  std::vector<std::uint64_t> start_ns, exec_ns, size;
};

DlrmServer::BatchFn timed_backend(const Dlrm& model, BatchLog& log) {
  return [inner = enw::serve::dlrm_backend(model), &log](std::span<const ClickSample> b) {
    const std::uint64_t t0 = monotonic_now_ns();
    std::vector<float> out = inner(b);
    const std::uint64_t t1 = monotonic_now_ns();
    log.start_ns.push_back(t0);
    log.exec_ns.push_back(t1 - t0);
    log.size.push_back(b.size());
    return out;
  };
}

struct Phase {
  LoadResult load;
  ServerStats stats;
  double steal_ms = 0.0;  // host steal during the block
};

/// A served reply is correct when it is bitwise equal to the offline result.
struct BitwiseCheck {
  const std::vector<float>& reference;
  bool operator()(std::size_t idx, float v) const {
    return std::bit_cast<std::uint32_t>(v) == std::bit_cast<std::uint32_t>(reference[idx]);
  }
};

class ServingBench {
 public:
  ServingBench(const Dlrm& model, const std::vector<ClickSample>& pool,
               const std::vector<float>& reference, Rng& rng)
      : model_(model), pool_(pool), reference_(reference), rng_(rng) {}

  /// log == nullptr serves through the production adapter untouched.
  Phase closed(double seconds, BatchLog* log) {
    DlrmServer server(kServe, backend(log));
    Phase p;
    p.load = perfbench::closed_loop(server, std::span<const ClickSample>(pool_), check(),
                                    kClients, kWarmShare * seconds,
                                    (1.0 - kWarmShare) * seconds, rng_);
    p.stats = server.stats();
    return p;
  }

  Phase open(double seconds, double rate, BatchLog* log) {
    DlrmServer server(kServe, backend(log));
    Phase p;
    p.load = perfbench::open_loop(server, std::span<const ClickSample>(pool_), check(),
                                  kClients, rate, kWarmShare * seconds,
                                  (1.0 - kWarmShare) * seconds, rng_);
    p.stats = server.stats();
    return p;
  }

 private:
  DlrmServer::BatchFn backend(BatchLog* log) const {
    return log ? timed_backend(model_, *log) : enw::serve::dlrm_backend(model_);
  }
  BitwiseCheck check() const { return {reference_}; }

  const Dlrm& model_;
  const std::vector<ClickSample>& pool_;
  const std::vector<float>& reference_;
  Rng& rng_;
};

/// Per-span totals summed over every place the span occurs in the tree.
struct SpanTotals {
  std::uint64_t count = 0, total_ns = 0, self_ns = 0;
};

void sum_spans(const enw::obs::SpanNode& n, std::map<std::string, SpanTotals>& out) {
  SpanTotals& t = out[n.name];
  t.count += n.count;
  t.total_ns += n.total_ns;
  t.self_ns += n.self_ns();
  for (const auto& c : n.children) sum_spans(c, out);
}

void print_trace(const enw::obs::TraceReport& rep) {
  std::map<std::string, SpanTotals> spans;
  for (const auto& r : rep.roots) sum_spans(r, spans);
  std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(), spans.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ns > b.second.self_ns; });
  std::printf("trace: %-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : rows) {
    std::printf("trace: %-28s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  }
}

/// Execute-time percentiles and request-weighted mean over batches started
/// at or after `from_ns`.
struct ExecSummary {
  perfbench::Sample per_batch;
  double weighted_mean_us = 0.0;
};

ExecSummary summarize(const std::vector<const BatchLog*>& logs, std::uint64_t from_ns) {
  ExecSummary e;
  double weighted = 0.0, requests = 0.0;
  for (const BatchLog* log : logs) {
    for (std::size_t i = 0; i < log->exec_ns.size(); ++i) {
      if (log->start_ns[i] < from_ns) continue;
      e.per_batch.ns.push_back(log->exec_ns[i]);
      weighted += static_cast<double>(log->exec_ns[i] * log->size[i]);
      requests += static_cast<double>(log->size[i]);
    }
  }
  e.per_batch.sort();
  e.weighted_mean_us = requests > 0 ? weighted / requests / 1e3 : 0.0;
  return e;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Median (mean of the middle two when the count is even).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One round of a run: a closed-loop block, an open-loop block and a
/// training block, each serving through a new server (so a new collator
/// thread). A run interleaves several rounds, so every block samples the
/// same spread of host noise and thread placement.
struct Round {
  Phase closed, open;
  Trainer::Result train;
  BatchLog closed_log, open_log;  // filled only when timing batches
};

int run(const Args& args) {
  const Workload& w = *args.workload;
  enw::parallel::set_thread_count(kServeThreads);
  print_context(w);
  const double steal_start = steal_ms();

  // Inputs come from the seed; generating them is not set-up.
  Rng input_rng(args.seed);
  std::vector<ClickSample> pool;
  {
    enw::data::ClickLogConfig lc;
    lc.num_dense = w.dlrm.num_dense;
    lc.num_tables = w.dlrm.num_tables;
    lc.rows_per_table = w.dlrm.rows_per_table;
    lc.seed = args.seed;
    pool = enw::data::ClickLogGenerator(lc).batch(w.pool, input_rng);
  }

  // Set-up: build the served model, the trained model and a server around
  // the production adapter — at least 5 times and, for models that build in
  // milliseconds, up to 61 times within a second, reporting the median.
  std::unique_ptr<Dlrm> model;
  std::unique_ptr<enw::nn::Mlp> mlp;
  perfbench::Sample setup;
  const std::uint64_t setup_begin = monotonic_now_ns();
  while (setup.ns.size() < 5 ||
         (setup.ns.size() < 61 && monotonic_now_ns() - setup_begin < 1000000000ull)) {
    model.reset();
    mlp.reset();
    const std::uint64_t t0 = monotonic_now_ns();
    Rng rng(kModelSeed);
    model = std::make_unique<Dlrm>(w.dlrm, rng);
    mlp = build_mlp(rng);
    auto server = std::make_unique<DlrmServer>(kServe, enw::serve::dlrm_backend(*model));
    setup.ns.push_back(monotonic_now_ns() - t0);
    server.reset();
    if (args.trace) break;  // per-layer runs do not report set-up time
  }
  setup.sort();
  Trainer trainer(std::move(mlp), args.seed);

  // Offline reference for the output check: the value contract makes each
  // row of predict_batch independent of the batch it is computed in.
  std::vector<float> reference;
  reference.reserve(pool.size());
  for (std::size_t first = 0; first < pool.size(); first += 32) {
    const std::size_t n = std::min<std::size_t>(32, pool.size() - first);
    const std::vector<float> p =
        model->predict_batch(std::span<const ClickSample>(pool).subspan(first, n));
    reference.insert(reference.end(), p.begin(), p.end());
  }

  Rng load_rng = input_rng.fork();
  ServingBench serving(*model, pool, reference, load_rng);
  std::uint64_t attempted = 0, failed = 0;
  const auto run_rounds = [&](std::size_t n, double round_s, bool timed) {
    std::vector<Round> rounds(n);
    for (Round& r : rounds) {
      const double s0 = steal_ms();
      r.closed = serving.closed(round_s * w.closed_share, timed ? &r.closed_log : nullptr);
      const double s1 = steal_ms();
      r.open = serving.open(round_s * w.open_share, w.open_rps, timed ? &r.open_log : nullptr);
      const double s2 = steal_ms();
      r.train = trainer.run(round_s * (1.0 - w.closed_share - w.open_share));
      r.closed.steal_ms = s1 - s0;
      r.open.steal_ms = s2 - s1;
      r.train.steal_ms = steal_ms() - s2;
      attempted += r.closed.load.attempted + r.open.load.attempted + r.train.steps;
      failed += r.closed.load.failed + r.open.load.failed + r.train.failed;
      std::printf("round: closed %.0f req/s p50 %.1f p99 %.1f us batch %.2f steal %.0f ms | "
                  "open p50 %.1f p90 %.1f p99 %.1f us, late p50 %.2f us steal %.0f ms | "
                  "train %.0f samples/s steal %.0f ms\n",
                  r.closed.load.rps(), r.closed.load.latency.pct_us(50),
                  r.closed.load.latency.pct_us(99), r.closed.stats.mean_batch(),
                  r.closed.steal_ms, r.open.load.latency.pct_us(50),
                  r.open.load.latency.pct_us(90), r.open.load.latency.pct_us(99),
                  r.open.load.late.pct_us(50), r.open.steal_ms, r.train.samples_per_s(),
                  r.train.steal_ms);
    }
    return rounds;
  };
  const auto over_rounds = [](const std::vector<Round>& rounds, auto&& f) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(f(r));
    return median(v);
  };
  // Pooled open-loop latency and lateness over every round.
  const auto pooled_open = [](const std::vector<Round>& rounds) {
    perfbench::LoadResult all;
    for (const Round& r : rounds) {
      const auto& l = r.open.load;
      all.latency.ns.insert(all.latency.ns.end(), l.latency.ns.begin(), l.latency.ns.end());
      all.late.ns.insert(all.late.ns.end(), l.late.ns.begin(), l.late.ns.end());
    }
    all.latency.sort();
    all.late.sort();
    std::printf("open pooled: p99 %.1f us, p99.9 %.1f us over %zu requests; generator "
                "late p50 %.2f us, p99 %.2f us\n",
                all.latency.pct_us(99), all.latency.pct_us(99.9), all.latency.ns.size(),
                all.late.pct_us(50), all.late.pct_us(99));
    return all;
  };

  const double s = args.seconds;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::size_t n = std::max<long>(1, std::lround(s / kRoundSeconds));
    const std::vector<Round> rounds = run_rounds(n, s / static_cast<double>(n), false);
    pooled_open(rounds);
    failed += trainer.check_converged();
    std::printf("steal: %.1f ms during the run\n", steal_ms() - steal_start);
    // Each figure comes from the quietest of its blocks — those in which
    // the host stole no more than in the block it stole least from (in a
    // calm run, every block with no steal) — so host contention covering
    // part of a run does not move it. A stall of 10–20 ms lifts the p90 of a
    // whole open-loop block, and under heavy steal the quietest third of
    // the blocks still held such stalls. Serving figures are the median over
    // windows of consecutive timed requests pooled from those blocks;
    // training is rated at their median step.
    const auto quieter = [&](auto&& steal_of) {
      double cut = steal_of(rounds.front());
      for (const Round& r : rounds) cut = std::min(cut, steal_of(r));
      std::vector<const Round*> out;
      for (const Round& r : rounds) {
        if (steal_of(r) <= cut) out.push_back(&r);
      }
      return out;
    };
    const std::vector<const Round*> closed_q =
        quieter([](const Round& r) { return r.closed.steal_ms; });
    const std::vector<const Round*> open_q =
        quieter([](const Round& r) { return r.open.steal_ms; });
    const std::vector<const Round*> train_q =
        quieter([](const Round& r) { return r.train.steal_ms; });
    const auto windows = [](const std::vector<const Round*>& blocks, auto&& per_block) {
      std::vector<double> all;
      for (const Round* r : blocks) {
        const std::vector<double> w = per_block(*r);
        all.insert(all.end(), w.begin(), w.end());
      }
      if (all.empty()) throw std::runtime_error("too few timed requests for one window");
      return median(all);
    };
    perfbench::Sample step;
    for (const Round* r : train_q) {
      step.ns.insert(step.ns.end(), r->train.step.ns.begin(), r->train.step.ns.end());
    }
    step.sort();
    metrics = {
        {"setup_s", setup.pct_us(50) / 1e6, "s"},
        {"closed_rps", windows(closed_q, [](const Round& r) {
           return perfbench::window_rps(r.closed.load, kClosedWindow);
         }), "req/s"},
        {"closed_p50_us", windows(closed_q, [](const Round& r) {
           return perfbench::window_pct_us(r.closed.load, kClosedWindow, 50);
         }), "us"},
        {"closed_p99_us", windows(closed_q, [](const Round& r) {
           return perfbench::window_pct_us(r.closed.load, kClosedWindow, 99);
         }), "us"},
        {"open_p50_us", windows(open_q, [](const Round& r) {
           return perfbench::window_pct_us(r.open.load, kOpenWindow, 50);
         }), "us"},
        {"open_p90_us", windows(open_q, [](const Round& r) {
           return perfbench::window_pct_us(r.open.load, kOpenWindow, 90);
         }), "us"},
        {"train_sps", static_cast<double>(kTrainBatch) * 1e6 / step.pct_us(50), "samples/s"},
    };
  } else {
    // Untraced per-layer measurements first, then the traced pass.
    const std::vector<Metric> tensor =
        perfbench::measure_tensor(0.15 * s, kServeThreads, kTrainThreads);
    const std::vector<Metric> dlrm = perfbench::measure_dlrm_layers(*model, pool, 0.1 * s);
    const std::vector<Round> rounds = run_rounds(kTracedRounds, 0.5 * s / kTracedRounds, true);
    const perfbench::LoadResult open = pooled_open(rounds);

    enw::obs::reset();
    enw::obs::set_enabled(true);
    const std::vector<Round> traced = run_rounds(1, 0.2 * s, true);
    perfbench::measure_dlrm_layers(*model, pool, 0.0);
    perfbench::measure_tensor(0.0, kServeThreads, kTrainThreads);
    enw::obs::set_enabled(false);
    failed += trainer.check_converged();
    const enw::obs::TraceReport report = enw::obs::snapshot();
    print_trace(report);
    if (!args.trace_out.empty() && !enw::obs::write_json(report, args.trace_out)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    const double untraced_rps =
        over_rounds(rounds, [](const Round& r) { return r.closed.load.rps(); });
    const double traced_rps = traced.front().closed.load.rps();
    const double overhead = 100.0 * (untraced_rps - traced_rps) / untraced_rps;
    std::printf("trace overhead: closed_rps untraced %.0f, traced %.0f (%.1f%%)\n",
                untraced_rps, traced_rps, overhead);

    std::vector<const BatchLog*> logs;
    ServerStats stats;
    perfbench::Sample step;
    for (const Round& r : rounds) {
      logs.push_back(&r.closed_log);
      logs.push_back(&r.open_log);
      stats.merge(r.closed.stats);
      stats.merge(r.open.stats);
      step.ns.insert(step.ns.end(), r.train.step.ns.begin(), r.train.step.ns.end());
    }
    step.sort();
    const ExecSummary exec = summarize(logs, 0);
    const double handoff = over_rounds(rounds, [](const Round& r) {
      return r.closed.load.latency.mean_us() -
             summarize({&r.closed_log}, r.closed.load.timed_from_ns).weighted_mean_us;
    });
    const double steal = steal_ms() - steal_start;
    std::printf("steal: %.1f ms during the run\n", steal);
    metrics = {
        {"serve.execute_us.p50", exec.per_batch.pct_us(50), "us"},
        {"serve.execute_us.p99", exec.per_batch.pct_us(99), "us"},
        {"serve.handoff_us.mean", handoff, "us"},
        {"serve.batch_size.mean", stats.mean_batch(), "requests"},
        {"serve.queue_peak", static_cast<double>(stats.queue_peak), "requests"},
        {"serve.batches", static_cast<double>(stats.batches), "count"},
        {"serve.open_p99_us", open.latency.pct_us(99), "us"},
        {"serve.open_p999_us", open.latency.pct_us(99.9), "us"},
        {"serve.open_requests", static_cast<double>(open.latency.ns.size()), "count"},
        {"recsys.rows_per_request", perfbench::rows_per_request(pool), "count"},
        {"recsys.touched_mb", perfbench::touched_mb(w.dlrm, pool), "MB"},
        {"nn.train_batch_us.p50", step.pct_us(50), "us"},
        {"bench.gen_late_us.p50", open.late.pct_us(50), "us"},
        {"bench.gen_late_us.p99", open.late.pct_us(99), "us"},
        {"bench.steal_ms", steal, "ms"},
        {"bench.trace_overhead_pct", overhead, "%"},
    };
    metrics.insert(metrics.end(), dlrm.begin(), dlrm.end());
    metrics.insert(metrics.end(), tensor.begin(), tensor.end());
  }
  emit(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
