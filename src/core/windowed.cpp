#include "core/windowed.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lfo::core {

namespace {

// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Serve one window through the cache and fill the report's hit ratios
/// plus the serve-side model-health fields (admission rate, deltas vs
/// the previous window's report when one exists).
void serve_window(LfoCache& cache, std::span<const trace::Request> window,
                  WindowReport& report, const WindowReport* previous) {
  LFO_TRACE_SPAN("serve_window");
  const auto before = cache.stats();
  const auto bypassed_before = cache.bypassed();
#if LFO_METRICS_ENABLED
  if (obs::metrics_enabled()) {
    // Sampled per-request latency: clock reads on every 64th request
    // keep the histogram meaningful at < 1% timing overhead.
    static obs::LatencyHistogram& request_hist =
        obs::MetricsRegistry::instance().histogram("lfo_request_seconds");
    std::size_t i = 0;
    for (const auto& r : window) {
      if ((i++ & 63u) == 0u) {
        obs::ScopedTimer timer(request_hist);
        cache.access(r);
      } else {
        cache.access(r);
      }
    }
  } else
#endif
  {
    for (const auto& r : window) cache.access(r);
  }
  const auto after = cache.stats();
  const auto bytes = after.bytes_requested - before.bytes_requested;
  const auto reqs = after.requests - before.requests;
  report.bhr = bytes ? static_cast<double>(after.bytes_hit -
                                           before.bytes_hit) /
                           static_cast<double>(bytes)
                     : 0.0;
  report.ohr = reqs ? static_cast<double>(after.hits - before.hits) /
                          static_cast<double>(reqs)
                    : 0.0;

  auto& health = report.health;
  const auto misses = reqs - (after.hits - before.hits);
  const auto bypassed = cache.bypassed() - bypassed_before;
  if (misses > 0) {
    health.admission_rate = 1.0 - static_cast<double>(bypassed) /
                                      static_cast<double>(misses);
  }
  if (previous != nullptr) {
    health.bhr_delta = report.bhr - previous->bhr;
    if (health.admission_rate >= 0.0 &&
        previous->health.admission_rate >= 0.0) {
      health.admission_rate_delta =
          health.admission_rate - previous->health.admission_rate;
    }
  }
}

/// Everything one training task hands back to the pipeline. The
/// prediction error of the model that served the window is evaluated
/// inside the task too — it needs the freshly derived OPT labels, and
/// keeping it off the serving thread is the point of the exercise. The
/// same applies to the model-health confusion and drift scores.
struct TrainedWindow {
  TrainResult result;
  double prediction_error = -1.0;
  util::BinaryConfusion confusion;  ///< only meaningful when `evaluated`
  bool evaluated = false;
  obs::DriftScore drift;  ///< only meaningful when `drift_valid`
  bool drift_valid = false;
  /// Attempts consumed (1 = first try succeeded); train_failed is set
  /// when every attempt failed — result.model is null then and the
  /// rollout guard rejects the candidate.
  std::uint32_t train_attempts = 0;
  bool train_failed = false;
  Clock::time_point started;
  Clock::time_point finished;
};

TrainedWindow train_window_task(
    std::span<const trace::Request> window, const WindowedConfig& config,
    std::size_t window_index, std::shared_ptr<const LfoModel> serving,
    std::shared_ptr<const obs::FeatureSummary> serving_summary) {
  LFO_TRACE_SPAN("train_window");
  TrainedWindow out;
  out.started = Clock::now();
  // Bounded retry with (optional, wall-clock-only) backoff: a failed
  // attempt — an injected fault or a real exception out of
  // train_on_window — is retried up to max_train_retries times before
  // the job counts as failed and the guard keeps the last-good model.
  const std::uint32_t max_attempts = 1 + config.rollout.max_train_retries;
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    out.train_attempts = attempt;
    if (attempt > 1) {
      LFO_COUNTER_INC("lfo_train_retries_total");
      if (config.rollout.retry_backoff_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            config.rollout.retry_backoff_seconds *
            static_cast<double>(attempt - 1)));
      }
    }
    try {
      if (config.train_fault && config.train_fault(window_index, attempt)) {
        throw std::runtime_error("injected training fault");
      }
      out.result = train_on_window(window, config.lfo);
      out.train_failed = false;
      break;
    } catch (const std::exception& e) {
      LFO_COUNTER_INC("lfo_train_failures_total");
      util::log_warn("rollout: training job for window ", window_index,
                     " attempt ", attempt, "/", max_attempts,
                     " failed: ", e.what());
      out.train_failed = true;
    }
  }
  if (!out.train_failed) {
    if (serving) {
      out.confusion =
          evaluate_predictions(*serving, window, out.result.opt,
                               config.lfo.cache_size, config.lfo.cutoff);
      out.evaluated = true;
      out.prediction_error = 1.0 - out.confusion.accuracy();
    }
    if (serving_summary && out.result.feature_summary) {
      out.drift =
          obs::feature_drift(*serving_summary, *out.result.feature_summary);
      out.drift_valid = true;
    }
  }
  out.finished = Clock::now();
  return out;
}

/// Assemble the gate's view of a trained (or failed) candidate.
RolloutCandidate candidate_of(const TrainedWindow& trained) {
  RolloutCandidate candidate;
  candidate.train_failed = trained.train_failed;
  if (trained.train_failed) return candidate;
  candidate.train_accuracy = trained.result.train_accuracy;
  const auto& confusion = trained.result.train_confusion;
  if (confusion.total() > 0) {
    const auto total = static_cast<double>(confusion.total());
    candidate.model_admit_share =
        static_cast<double>(confusion.tp() + confusion.fp()) / total;
    candidate.opt_admit_share =
        static_cast<double>(confusion.tp() + confusion.fn()) / total;
  }
  if (trained.drift_valid) candidate.feature_drift = trained.drift.mean_score;
  // Out-of-sample accuracy of the serving model on the candidate's
  // window: already computed by the training task for WindowReport's
  // prediction_error, reused here for the guard's serving-accuracy gate.
  // Stays -1 (unknown) when nothing was serving — bootstrap and
  // post-fallback candidates are judged on their own diagnostics only.
  if (trained.evaluated) {
    candidate.serving_accuracy = trained.confusion.accuracy();
  }
  return candidate;
}

/// Copy the training task's diagnostics into the window's report.
void fill_training_report(WindowReport& report, const TrainedWindow& trained,
                          double drift_warn_threshold) {
  report.rollout.train_attempts = trained.train_attempts;
  report.rollout.train_failed = trained.train_failed;
  if (trained.train_failed) {
    // No model, no OPT labels: the serving/training diagnostics keep
    // their "undefined" defaults; only the attempt record is real.
    return;
  }
  report.train_accuracy = trained.result.train_accuracy;
  report.opt_seconds = trained.result.opt_seconds;
  report.train_seconds = trained.result.train_seconds;
  report.opt_bhr = trained.result.opt.bhr;
  report.opt_ohr = trained.result.opt.ohr;
  report.prediction_error = trained.prediction_error;

  auto& health = report.health;
  if (trained.evaluated) {
    health.decision_accuracy = trained.confusion.accuracy();
    health.false_positive_share = trained.confusion.false_positive_share();
    health.false_negative_share = trained.confusion.false_negative_share();
  }
  if (trained.drift_valid) {
    health.feature_drift = trained.drift.mean_score;
    health.max_feature_drift = trained.drift.max_score;
    health.drift_worst_feature = trained.drift.worst_feature;
    if (drift_warn_threshold > 0.0 &&
        health.feature_drift >= drift_warn_threshold) {
      health.drift_warning = true;
      util::log_warn("model-health: window ", report.index,
                     " feature drift ", health.feature_drift,
                     " (max ", health.max_feature_drift, " at feature ",
                     health.drift_worst_feature,
                     ") crossed the warn threshold ", drift_warn_threshold);
    }
  }
}

/// A window's report is complete: publish it to the metrics registry and
/// the user's hook. Runs on the serving thread; never alters decisions.
void emit_report(const WindowedConfig& config, const WindowReport& report) {
  LFO_COUNTER_INC("lfo_windows_total");
  LFO_GAUGE_SET("lfo_window_bhr", report.bhr);
  LFO_GAUGE_SET("lfo_window_ohr", report.ohr);
  if (report.health.decision_accuracy >= 0.0) {
    LFO_GAUGE_SET("lfo_model_decision_accuracy",
                  report.health.decision_accuracy);
  }
  if (report.health.feature_drift >= 0.0) {
    LFO_GAUGE_SET("lfo_model_feature_drift", report.health.feature_drift);
  }
  if (report.health.admission_rate >= 0.0) {
    LFO_GAUGE_SET("lfo_admission_rate", report.health.admission_rate);
  }
  if (report.health.drift_warning) {
    LFO_COUNTER_INC("lfo_drift_warnings_total");
  }
  if (report.train_seconds > 0.0) {
    LFO_HISTOGRAM_OBSERVE_SECONDS("lfo_opt_seconds", report.opt_seconds);
    LFO_HISTOGRAM_OBSERVE_SECONDS("lfo_train_seconds",
                                  report.train_seconds);
  }
  LFO_GAUGE_SET("lfo_rollout_state",
                static_cast<double>(static_cast<int>(report.rollout.state)));
  if (config.flight_recorder != nullptr) {
    // After the gauges/counters above so the frame's deltas are exactly
    // this window's contribution; before window_hook so hooks observe a
    // recorder that already holds their window.
    config.flight_recorder->record("window", report.index);
  }
  if (config.window_hook) {
    // The header's contract says the hook must not throw: enforce it.
    // An unwinding hook would corrupt the pipeline mid-flight (and in
    // async mode std::terminate a training worker), so fail fast with
    // the offending window instead.
    try {
      config.window_hook(report);
    } catch (const std::exception& e) {
      LFO_CHECK(false) << "WindowedConfig::window_hook threw for window "
                       << report.index
                       << " (contract: must not throw): " << e.what();
    } catch (...) {
      LFO_CHECK(false) << "WindowedConfig::window_hook threw a "
                          "non-std::exception for window "
                       << report.index << " (contract: must not throw)";
    }
  }
}

/// Swap a freshly activated model into the cache (spanned: with
/// rescore_on_swap this re-ranks every cached entry).
void swap_model_into(LfoCache& cache,
                     std::shared_ptr<const LfoModel> model) {
  LFO_TRACE_SPAN("model_swap");
  LFO_COUNTER_INC("lfo_models_swapped_total");
  cache.swap_model(std::move(model));
}

/// Run the candidate due at the end of `window_index` through the
/// rollout guard and apply its verdict: swap on activate, clear the
/// model on fallback, keep the last-good model on reject. Records the
/// decision on the current window's report and counts every transition
/// in the metrics registry.
void apply_rollout(RolloutGuard& guard, LfoCache& cache,
                   WindowedResult& result, std::size_t window_index,
                   std::size_t trained_on,
                   std::shared_ptr<const LfoModel> model,
                   std::shared_ptr<const obs::FeatureSummary> summary,
                   const RolloutCandidate& candidate,
                   std::shared_ptr<const obs::FeatureSummary>&
                       serving_summary) {
  const RolloutVerdict verdict = guard.evaluate(candidate);
  auto& current = result.windows[window_index].rollout;
  current.decision = verdict.decision;
  current.reason = verdict.reason;
  switch (verdict.decision) {
    case RolloutDecision::kActivated:
      LFO_COUNTER_INC("lfo_rollout_activated_total");
      break;
    case RolloutDecision::kRejected:
      LFO_COUNTER_INC("lfo_rollout_rejected_total");
      util::log_warn("rollout: window ", window_index,
                     " rejected the model trained on window ", trained_on,
                     ": ", verdict.reason);
      break;
    case RolloutDecision::kFallback:
      LFO_COUNTER_INC("lfo_rollout_rejected_total");
      LFO_COUNTER_INC("lfo_rollout_fallback_total");
      util::log_warn("rollout: window ", window_index,
                     " entered heuristic fallback: ", verdict.reason);
      break;
    case RolloutDecision::kRecovered:
      LFO_COUNTER_INC("lfo_rollout_activated_total");
      LFO_COUNTER_INC("lfo_rollout_recovered_total");
      util::log_info("rollout: window ", window_index,
                     " recovered from fallback (model trained on window ",
                     trained_on, ")");
      break;
    case RolloutDecision::kNone:
      break;
  }
  if (verdict.activate) {
    result.windows[trained_on].pipeline.training_lag_windows =
        static_cast<std::uint32_t>(window_index - trained_on);
    serving_summary = std::move(summary);
    swap_model_into(cache, std::move(model));
  } else if (verdict.clear_model) {
    LFO_COUNTER_INC("lfo_models_cleared_total");
    serving_summary = nullptr;
    cache.swap_model(nullptr);
  }
}

/// Stamp the guard's post-boundary state onto the window's report (done
/// every window, whether or not a candidate was due).
void record_rollout_state(const RolloutGuard& guard, WindowReport& report) {
  report.rollout.state = guard.state();
  report.rollout.consecutive_rejections = guard.consecutive_rejections();
  report.rollout.drift_streak = guard.drift_streak();
}

/// One window's training job. Pooled (config.async): the task runs on the
/// training pool. Inline: the task already ran on the serving thread and
/// the future is ready.
struct TrainJob {
  std::future<TrainedWindow> trained;
  std::size_t window_index = 0;
};

}  // namespace

/// The windowed driver. Each window is served with the current model,
/// then (unless retraining is off and a model already serves) a training
/// job is started on it, inline or on the pool. Jobs are popped strictly
/// FIFO after swap_lag windows, so both modes hand the rollout guard the
/// same candidates at the same boundaries and make identical decisions;
/// with swap_lag >= 1 a pooled job gets at least one full window of
/// serving time to overlap with.
WindowedResult run_windowed_lfo(const trace::Trace& trace,
                                const WindowedConfig& config) {
  LFO_TRACE_THREAD_LABEL("serve");
  WindowedResult result;
  LfoCache cache(config.lfo.cache_size, config.lfo.features,
                 config.lfo.cutoff);
  RolloutGuard guard(config.rollout);
  std::optional<util::ThreadPool> pool;
  if (config.async) {
    pool.emplace(config.train_threads != 0
                     ? config.train_threads
                     : std::max<std::size_t>(
                           1, std::thread::hardware_concurrency()));
  }
  // Jobs waiting out their activation lag (front = oldest). Failed
  // training jobs queue too — the pop schedule must not depend on
  // training outcomes — and are rejected by the guard when they surface.
  std::deque<TrainJob> jobs;
  // Summary of the window the *currently serving* model was trained on.
  std::shared_ptr<const obs::FeatureSummary> serving_summary;

  // Take a job's result. An inline job's report was filled at its own
  // boundary; a pooled job's report gets its training diagnostics and
  // pipeline stats here.
  const auto finish_job = [&](TrainJob& job) -> TrainedWindow {
    if (!pool) return job.trained.get();
    const auto wait_start = Clock::now();
    TrainedWindow trained = [&] {
      LFO_TRACE_SPAN("swap_wait");
      return job.trained.get();
    }();
    const auto wait_end = Clock::now();
    auto& report = result.windows[job.window_index];
    fill_training_report(report, trained, config.drift_warn_threshold);
    report.pipeline.trained_async = true;
    report.pipeline.wait_seconds = seconds_between(wait_start, wait_end);
    // Time the task ran before the pipeline had to block on it — the
    // overlap with request serving the paper's §3 asks for.
    const auto ran_until = std::min(trained.finished, wait_start);
    report.pipeline.overlap_seconds =
        std::max(0.0, seconds_between(trained.started, ran_until));
    return trained;
  };

  std::size_t window_index = 0;
  for (std::size_t begin = 0; begin < trace.size();
       begin += config.window_size) {
    const auto window = trace.window(begin, config.window_size);
    WindowReport report;
    report.index = window_index;
    report.begin = begin;
    report.length = window.size();
    if (pool) {
      report.pipeline.queue_depth = static_cast<std::uint32_t>(jobs.size());
      LFO_GAUGE_SET("lfo_train_queue_depth", jobs.size());
    }

    // Serve the window with the model trained on the previous one.
    const WindowReport* previous =
        result.windows.empty() ? nullptr : &result.windows.back();
    serve_window(cache, window, report, previous);
    result.windows.push_back(report);

    // Train on the window just served (unless retraining is disabled and
    // a model already serves). cache.has_model() flips only at the pops
    // below, so both modes take this decision identically. The current
    // report is published at this boundary unless a pooled job still
    // owes it the training diagnostics.
    bool emit_current = true;
    if (config.retrain || !cache.has_model()) {
      LFO_COUNTER_INC("lfo_train_jobs_total");
      TrainJob job;
      job.window_index = window_index;
      if (pool) {
        job.trained = pool->submit([window, &config, window_index,
                                    serving = cache.model(),
                                    baseline = serving_summary] {
          LFO_TRACE_THREAD_LABEL("train");
          return train_window_task(window, config, window_index, serving,
                                   baseline);
        });
        emit_current = false;
      } else {
        auto trained = train_window_task(window, config, window_index,
                                         cache.model(), serving_summary);
        fill_training_report(result.windows[window_index], trained,
                             config.drift_warn_threshold);
        std::promise<TrainedWindow> done;
        job.trained = done.get_future();
        done.set_value(std::move(trained));
      }
      jobs.push_back(std::move(job));
    }
    std::optional<std::size_t> popped;
    if (jobs.size() > config.swap_lag) {
      TrainJob job = std::move(jobs.front());
      jobs.pop_front();
      TrainedWindow trained = finish_job(job);
      apply_rollout(guard, cache, result, window_index, job.window_index,
                    std::move(trained.result.model),
                    std::move(trained.result.feature_summary),
                    candidate_of(trained), serving_summary);
      if (pool) popped = job.window_index;
    }
    // Stamp the current window's post-boundary state before any emit:
    // with swap_lag == 0 the popped report IS the current window's.
    record_rollout_state(guard, result.windows[window_index]);
    if (popped) emit_report(config, result.windows[*popped]);
    if (emit_current) emit_report(config, result.windows[window_index]);
    ++window_index;
  }

  // Drain the pooled jobs whose models never activate (trailing
  // windows): their reports still get the training diagnostics.
  if (pool) {
    for (auto& job : jobs) {
      finish_job(job);
      emit_report(config, result.windows[job.window_index]);
    }
    LFO_CHECK_EQ(pool->pending(), 0u)
        << "async pipeline drained but tasks remain queued";
  }

  result.overall = cache.stats();
  result.bypassed = cache.bypassed();
  result.demoted_hits = cache.demoted_hits();
  return result;
}

bool same_decisions(const WindowedResult& a, const WindowedResult& b) {
  if (a.overall.requests != b.overall.requests ||
      a.overall.hits != b.overall.hits ||
      a.overall.bytes_requested != b.overall.bytes_requested ||
      a.overall.bytes_hit != b.overall.bytes_hit ||
      a.overall.expired_hits != b.overall.expired_hits ||
      a.bypassed != b.bypassed || a.demoted_hits != b.demoted_hits ||
      a.windows.size() != b.windows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const auto& wa = a.windows[i];
    const auto& wb = b.windows[i];
    if (wa.index != wb.index || wa.begin != wb.begin ||
        wa.length != wb.length || wa.bhr != wb.bhr || wa.ohr != wb.ohr ||
        wa.prediction_error != wb.prediction_error ||
        wa.train_accuracy != wb.train_accuracy ||
        wa.opt_bhr != wb.opt_bhr || wa.opt_ohr != wb.opt_ohr) {
      return false;
    }
    // The model-health monitor is deterministic too: it derives from
    // the trace and the decision schedule only, so any divergence
    // between sync/async or across thread counts is a bug.
    const auto& ha = wa.health;
    const auto& hb = wb.health;
    if (ha.decision_accuracy != hb.decision_accuracy ||
        ha.feature_drift != hb.feature_drift ||
        ha.admission_rate != hb.admission_rate ||
        ha.bhr_delta != hb.bhr_delta ||
        ha.drift_warning != hb.drift_warning) {
      return false;
    }
    // The rollout guard feeds back into decisions, so its per-window
    // record must agree exactly: same state, same gate decision, same
    // training outcome. (train_attempts is excluded — a stateful fault
    // hook may legitimately vary the attempt count without changing the
    // final outcome the decisions depend on.)
    const auto& ra = wa.rollout;
    const auto& rb = wb.rollout;
    if (ra.state != rb.state || ra.decision != rb.decision ||
        ra.train_failed != rb.train_failed) {
      return false;
    }
  }
  return true;
}

}  // namespace lfo::core
