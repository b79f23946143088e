#include "core/lfo_model.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "obs/trace_span.hpp"

namespace lfo::core {

namespace {
// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::atomic<LfoModel::Engine>& default_engine_slot() {
  static std::atomic<LfoModel::Engine> engine{
      LfoModel::Engine::kFlatForest};
  return engine;
}
}  // namespace

void LfoModel::set_default_engine(Engine engine) {
  default_engine_slot().store(engine, std::memory_order_relaxed);
}

LfoModel::Engine LfoModel::default_engine() {
  return default_engine_slot().load(std::memory_order_relaxed);
}

namespace {
// Fallback quantization scratch for callers that don't own a
// FeatureScratch (grow-once per thread; the serving path goes through
// the scratch-taking overloads instead).
std::vector<std::uint8_t>& thread_quantize_scratch() {
  thread_local std::vector<std::uint8_t> scratch;
  return scratch;
}
}  // namespace

LfoModel::LfoModel(gbdt::Model model, features::FeatureConfig config)
    : model_(std::move(model)),
      forest_(gbdt::FlatForest::compile(model_)),
      config_(config),
      quantized_(gbdt::QuantizedForest::compile(model_, config_.dimension())),
      engine_(default_engine()) {}

double LfoModel::predict(std::span<const float> feature_row) const {
  switch (engine_) {
    case Engine::kFlatForest:
      return forest_.predict_proba(feature_row);
    case Engine::kFlatQuantized:
      return quantized_.predict_proba(feature_row,
                                      thread_quantize_scratch());
    case Engine::kTreeWalk:
      break;
  }
  return model_.predict_proba(feature_row);
}

double LfoModel::predict(std::span<const float> feature_row,
                         features::FeatureScratch& scratch) const {
  if (engine_ == Engine::kFlatQuantized) {
    return quantized_.predict_proba(feature_row, scratch.quantized);
  }
  return predict(feature_row);
}

std::vector<double> LfoModel::predict_batch(
    std::span<const float> matrix) const {
  const std::size_t dim = dimension();
  std::vector<double> out(dim ? matrix.size() / dim : 0);
  predict_batch(matrix, out);
  return out;
}

void LfoModel::predict_batch(std::span<const float> matrix,
                             std::span<double> out) const {
  switch (engine_) {
    case Engine::kFlatForest:
      forest_.predict_proba_batch(matrix, dimension(), out);
      return;
    case Engine::kFlatQuantized:
      quantized_.predict_proba_batch(matrix, dimension(), out,
                                     thread_quantize_scratch());
      return;
    case Engine::kTreeWalk:
      break;
  }
  model_.predict_proba_batch(matrix, dimension(), out);
}

std::vector<LfoModel::FeatureImportance> LfoModel::feature_importance()
    const {
  const auto names = config_.names();
  const auto counts = model_.split_counts(names.size());
  const auto shares = model_.split_shares(names.size());
  std::vector<FeatureImportance> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.push_back({names[i], counts[i], shares[i]});
  }
  return out;
}

void LfoModel::save(std::ostream& os) const {
  os.precision(17);
  os << "lfo-model v1\n";
  os << config_.num_gaps << ' ' << config_.include_size << ' '
     << config_.include_cost << ' ' << config_.include_free_bytes << ' '
     << config_.thin_gaps << ' ' << config_.missing_gap_value << '\n';
  model_.save(os);
}

void LfoModel::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("LfoModel::save_file: cannot open " + path);
  }
  save(os);
}

LfoModel LfoModel::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (!is || tag != "lfo-model" || version != "v1") {
    throw std::runtime_error("LfoModel::load: bad header");
  }
  features::FeatureConfig config;
  is >> config.num_gaps >> config.include_size >> config.include_cost >>
      config.include_free_bytes >> config.thin_gaps >>
      config.missing_gap_value;
  // Bound num_gaps before dimension() materializes the gap list.
  if (!is || config.num_gaps > gbdt::kMaxFeatures ||
      config.dimension() == 0 || config.dimension() > gbdt::kMaxFeatures) {
    throw std::runtime_error("LfoModel::load: bad feature config");
  }
  auto model = gbdt::Model::load(is, config.dimension());
  return LfoModel(std::move(model), config);
}

LfoModel LfoModel::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("LfoModel::load_file: cannot open " + path);
  }
  return load(is);
}

TrainResult train_on_window(std::span<const trace::Request> window,
                            const LfoConfig& config) {
  if (window.empty()) {
    throw std::invalid_argument("train_on_window: empty window");
  }
  TrainResult result;

  auto t0 = Clock::now();
  opt::OptConfig opt_config = config.opt;
  opt_config.cache_size = config.cache_size;
  result.opt = opt::compute_opt(window, opt_config);
  result.opt_seconds = seconds_since(t0);

  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto dataset = features::build_dataset(window, result.opt, build);
  result.num_samples = dataset.num_rows();
  result.feature_summary = std::make_shared<const obs::FeatureSummary>(
      obs::summarize_rows(dataset.features_matrix(),
                          dataset.num_features()));

  t0 = Clock::now();
  auto booster = gbdt::train(dataset, config.gbdt);
  result.train_seconds = seconds_since(t0);
  result.train_confusion = gbdt::confusion(booster, dataset, config.cutoff);
  result.train_accuracy = result.train_confusion.accuracy();
  result.model = std::make_shared<const LfoModel>(std::move(booster),
                                                  config.features);
  return result;
}

util::BinaryConfusion evaluate_predictions(
    const LfoModel& model, std::span<const trace::Request> window,
    const opt::OptDecisions& opt, std::uint64_t cache_size, double cutoff) {
  LFO_TRACE_SPAN("evaluate_predictions");
  if (opt.cached.size() != window.size()) {
    throw std::invalid_argument(
        "evaluate_predictions: decisions/window mismatch");
  }
  features::DatasetBuildOptions build;
  build.features = model.feature_config();
  build.cache_size = cache_size;
  const auto dataset = features::build_dataset(window, opt, build);

  const auto proba = model.predict_batch(dataset.features_matrix());
  util::BinaryConfusion confusion;
  for (std::size_t i = 0; i < dataset.num_rows(); ++i) {
    const bool predicted = proba[i] >= cutoff;
    const bool actual = dataset.label(i) > 0.5f;
    confusion.add(predicted, actual);
  }
  return confusion;
}

}  // namespace lfo::core
