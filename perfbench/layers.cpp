#include "layers.h"

#include <algorithm>
#include <cstdint>

#include "core/parallel.h"
#include "core/rng.h"
#include "obs/obs.h"
#include "serve/serve.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace perfbench {

using enw::Matrix;
using enw::recsys::DlrmConfig;
using enw::serve::monotonic_now_ns;

double per_call_ns(const char* span, const std::function<void(std::size_t)>& fn,
                   double budget_s) {
  constexpr std::uint64_t kMinRoundNs = 50000;
  constexpr std::size_t kMinRounds = 5;
  std::size_t call = 0;
  const auto round = [&](std::size_t calls) {
    const std::uint64_t t0 = monotonic_now_ns();
    for (std::size_t j = 0; j < calls; ++j) {
      enw::obs::Span s(span);
      fn(call++);
    }
    return monotonic_now_ns() - t0;
  };
  std::size_t calls = 1;
  while (round(calls) < kMinRoundNs) calls *= 2;
  std::vector<double> per_call;
  const std::uint64_t deadline =
      monotonic_now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (per_call.size() < kMinRounds || monotonic_now_ns() < deadline) {
    per_call.push_back(static_cast<double>(round(calls)) / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::string GemmShape::label() const {
  return std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k);
}

namespace {

/// (out, in) widths of every dense layer of one DLRM config, bottom then top.
std::vector<std::pair<std::size_t, std::size_t>> dlrm_layer_dims(const DlrmConfig& c) {
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  const auto chain = [&](std::size_t in, const std::vector<std::size_t>& hidden,
                         std::size_t out) {
    for (std::size_t h : hidden) {
      dims.emplace_back(h, in);
      in = h;
    }
    dims.emplace_back(out, in);
  };
  const std::size_t vectors = c.num_tables + 1;
  chain(c.num_dense, c.bottom_hidden, c.embed_dim);
  chain(c.embed_dim + vectors * (vectors - 1) / 2, c.top_hidden, 1);
  return dims;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, enw::Rng& rng) {
  return Matrix::uniform(rows, cols, -1.0f, 1.0f, rng);
}

double gflops(const GemmShape& s, double ns) {
  return 2.0 * static_cast<double>(s.m * s.n * s.k) / ns;
}

constexpr std::size_t kTrainBatch = 64;

}  // namespace

std::vector<GemmShape> serving_gemm_shapes() {
  DlrmConfig small;
  small.rows_per_table = 2000;
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  for (const DlrmConfig& c : {small, DlrmConfig::memory_dominated(),
                              DlrmConfig::compute_dominated()}) {
    for (const auto& d : dlrm_layer_dims(c)) {
      if (std::find(dims.begin(), dims.end(), d) == dims.end()) dims.push_back(d);
    }
  }
  std::vector<GemmShape> shapes;
  for (std::size_t batch : {1, 32}) {
    for (const auto& [out, in] : dims) shapes.push_back({batch, out, in});
  }
  return shapes;
}

std::vector<Metric> measure_tensor(double budget_s, std::size_t serve_threads,
                                   std::size_t train_threads) {
  const std::vector<GemmShape> serving = serving_gemm_shapes();
  // Mlp{784,256,10} at batch 64: forward Y = X W^T per layer, backward
  // dX = dY W per layer, update W += scale * dY^T X per layer.
  const std::vector<GemmShape> train_fwd = {{kTrainBatch, 256, 784},
                                            {kTrainBatch, 10, 256}};
  const std::vector<GemmShape> train_bwd = {{kTrainBatch, 784, 256},
                                            {kTrainBatch, 256, 10}};
  const std::vector<GemmShape> train_upd = {{256, 784, kTrainBatch},
                                            {10, 256, kTrainBatch}};
  const double each = budget_s / static_cast<double>(serving.size() + train_fwd.size() +
                                                     train_bwd.size() + train_upd.size());
  enw::Rng rng(0x7e45u);
  std::vector<Metric> out;
  const auto nt = [&](const GemmShape& s) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.n, s.k, rng);
    const double ns = per_call_ns("bench.matmul_nt", [&](std::size_t) {
      const Matrix c = enw::matmul_nt(a, b);
    }, each);
    out.push_back({"tensor.matmul_nt_gflops." + s.label(), gflops(s, ns), "GFLOP/s"});
  };

  enw::parallel::set_thread_count(serve_threads);
  for (const GemmShape& s : serving) nt(s);

  enw::parallel::set_thread_count(train_threads);
  for (const GemmShape& s : train_fwd) nt(s);
  for (const GemmShape& s : train_bwd) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const double ns = per_call_ns("bench.matmul", [&](std::size_t) {
      const Matrix c = enw::matmul(a, b, enw::ZeroSkip::kSkipZeroInputs);
    }, each);
    out.push_back({"tensor.matmul_gflops." + s.label(), gflops(s, ns), "GFLOP/s"});
  }
  for (const GemmShape& s : train_upd) {
    Matrix c(s.m, s.n);
    const Matrix a = random_matrix(s.k, s.m, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const double ns = per_call_ns("bench.matmul_tn_acc", [&](std::size_t) {
      enw::matmul_tn_acc(c, a, b, -1e-3f, enw::ZeroSkip::kSkipZeroInputs);
    }, each);
    out.push_back({"tensor.matmul_tn_acc_gflops." + s.label(), gflops(s, ns), "GFLOP/s"});
  }
  enw::parallel::set_thread_count(serve_threads);
  return out;
}

std::vector<Metric> measure_dlrm_layers(const enw::recsys::Dlrm& model,
                                        std::span<const enw::data::ClickSample> pool,
                                        double budget_s) {
  constexpr std::size_t kBatch = 32;
  const DlrmConfig& cfg = model.config();
  const std::size_t tables = cfg.num_tables;
  const std::size_t batches = pool.size() / kBatch;
  const double each = budget_s / 8.0;
  const double rows_per_list = rows_per_request(pool) / static_cast<double>(tables);

  // Embedding gather, one table per call, walking the pool sample-major so
  // the access pattern matches serving.
  Matrix out1(1, cfg.embed_dim);
  const double gather1 = per_call_ns("bench.lookup_sum_batch", [&](std::size_t i) {
    const std::span<const std::size_t> list = pool[(i / tables) % pool.size()].sparse[i % tables];
    model.tables()[i % tables].lookup_sum_batch({&list, 1}, out1);
  }, each);
  Matrix out32(kBatch, cfg.embed_dim);
  std::vector<std::span<const std::size_t>> lists(kBatch);
  const double gather32 = per_call_ns("bench.lookup_sum_batch", [&](std::size_t i) {
    const std::size_t first = ((i / tables) % batches) * kBatch;
    for (std::size_t s = 0; s < kBatch; ++s) lists[s] = pool[first + s].sparse[i % tables];
    model.tables()[i % tables].lookup_sum_batch(lists, out32);
  }, each);

  const auto predict = [&](std::size_t b) {
    return per_call_ns("bench.predict_batch", [&](std::size_t i) {
      const std::size_t first = (i * b) % (batches * kBatch);
      const std::vector<float> p = model.predict_batch(pool.subspan(first, b));
    }, each);
  };
  const double predict1 = predict(1);
  const double predict32 = predict(kBatch);

  // Dense stacks on fixed inputs: the pool's dense features for the bottom
  // MLP, uniform activations of the interaction width for the top MLP.
  enw::Rng rng(0x1a7e5u);
  const auto mlp = [&](const std::vector<enw::nn::DenseLayer>& layers, std::size_t b,
                       bool bottom) {
    std::vector<Matrix> inputs;
    for (std::size_t v = 0; v < 16; ++v) {
      if (bottom) {
        Matrix x(b, cfg.num_dense);
        for (std::size_t s = 0; s < b; ++s) {
          const auto& dense = pool[(v * b + s) % pool.size()].dense;
          std::copy(dense.begin(), dense.end(), x.row(s).begin());
        }
        inputs.push_back(std::move(x));
      } else {
        inputs.push_back(Matrix::uniform(b, layers.front().in_dim(), 0.0f, 1.0f, rng));
      }
    }
    return per_call_ns(bottom ? "bench.bottom_mlp" : "bench.top_mlp", [&](std::size_t i) {
      Matrix x = inputs[i % inputs.size()];
      for (const auto& layer : layers) x = layer.infer_batch(x);
    }, each);
  };
  const double bottom1 = mlp(model.bottom(), 1, true);
  const double bottom32 = mlp(model.bottom(), kBatch, true);
  const double top1 = mlp(model.top(), 1, false);
  const double top32 = mlp(model.top(), kBatch, false);

  const double gather32_batch = gather32 * static_cast<double>(tables);
  return {
      {"recsys.gather_ns_per_row.b1", gather1 / rows_per_list, "ns"},
      {"recsys.gather_ns_per_row.b32",
       gather32 / (rows_per_list * static_cast<double>(kBatch)), "ns"},
      {"dlrm.predict_batch_us.b1", predict1 / 1e3, "us"},
      {"dlrm.predict_batch_us.b32", predict32 / 1e3, "us"},
      {"dlrm.interaction_us.b32", (predict32 - bottom32 - gather32_batch - top32) / 1e3,
       "us"},
      {"nn.bottom_mlp_us.b1", bottom1 / 1e3, "us"},
      {"nn.bottom_mlp_us.b32", bottom32 / 1e3, "us"},
      {"nn.top_mlp_us.b1", top1 / 1e3, "us"},
      {"nn.top_mlp_us.b32", top32 / 1e3, "us"},
  };
}

double rows_per_request(std::span<const enw::data::ClickSample> pool) {
  std::size_t rows = 0;
  for (const auto& s : pool) {
    for (const auto& list : s.sparse) rows += list.size();
  }
  return static_cast<double>(rows) / static_cast<double>(pool.size());
}

double touched_mb(const DlrmConfig& cfg, std::span<const enw::data::ClickSample> pool) {
  std::size_t distinct = 0;
  std::vector<bool> seen(cfg.rows_per_table);
  for (std::size_t t = 0; t < cfg.num_tables; ++t) {
    std::fill(seen.begin(), seen.end(), false);
    for (const auto& s : pool) {
      for (std::size_t row : s.sparse[t]) {
        distinct += seen[row] ? 0 : 1;
        seen[row] = true;
      }
    }
  }
  return static_cast<double>(distinct * cfg.embed_dim * sizeof(float)) / 1e6;
}

}  // namespace perfbench
