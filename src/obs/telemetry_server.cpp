#include "obs/telemetry_server.hpp"

#if LFO_METRICS_ENABLED

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/build_info.hpp"
#include "obs/exporters.hpp"
#include "obs/trace_span.hpp"
#include "util/socket.hpp"

namespace lfo::obs {

namespace {

/// Per-endpoint request counters. A table (rather than inline literals)
/// so tools/lfo_lint.py's metric-name rule covers the registrations and
/// the routing below cannot drift from the instrumented set.
struct EndpointMetric {
  const char* path;
  const char* metric;
};
constexpr EndpointMetric kEndpointRequestCounters[] = {
    {"/metrics", "lfo_telemetry_metrics_requests_total"},
    {"/stats", "lfo_telemetry_stats_requests_total"},
    {"/healthz", "lfo_telemetry_healthz_requests_total"},
    {"/vars", "lfo_telemetry_vars_requests_total"},
    {"/trace", "lfo_telemetry_trace_requests_total"},
};

void count_request(std::string_view path) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().counter("lfo_telemetry_requests_total").inc();
  for (const auto& e : kEndpointRequestCounters) {
    if (path == e.path) {
      MetricsRegistry::instance().counter(e.metric).inc();
      return;
    }
  }
}

void count_bad_request() {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance()
      .counter("lfo_telemetry_bad_requests_total")
      .inc();
}

using util::send_all;
using util::set_io_timeouts;

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpResponse error_response(int status, std::string_view detail) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::string(detail);
  resp.body += '\n';
  return resp;
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("a=1&b=2"). No percent-decoding: every parameter this server accepts
/// is [A-Za-z0-9_] by construction. Returns (found, value).
std::pair<bool, std::string_view> query_param(std::string_view query,
                                              std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return {true,
              eq == std::string_view::npos ? std::string_view{}
                                           : pair.substr(eq + 1)};
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {false, {}};
}

/// Strict non-negative integer parse; returns (ok, value).
std::pair<bool, std::size_t> parse_size(std::string_view text) {
  if (text.empty() || text.size() > 9) return {false, 0};
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return {false, 0};
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return {true, value};
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryServerConfig config)
    : config_(std::move(config)) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  if (listen_fd_ >= 0) return true;
  last_error_.clear();
  const int fd = util::listen_loopback(config_.port, 16, port_, last_error_);
  if (fd < 0) return false;
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  const std::uint32_t handlers =
      config_.handler_threads > 0 ? config_.handler_threads : 1;
  handler_threads_.reserve(handlers);
  for (std::uint32_t i = 0; i < handlers; ++i) {
    handler_threads_.emplace_back([this] { handler_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void TelemetryServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& handler : handler_threads_) {
    if (handler.joinable()) handler.join();
  }
  handler_threads_.clear();
  {
    // Connections accepted but never picked up: close without serving.
    util::MutexLock lock(queue_mu_);
    while (!pending_.empty()) {
      ::close(pending_.front());
      pending_.pop_front();
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void TelemetryServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    bool shed = false;
    {
      util::MutexLock lock(queue_mu_);
      if (pending_.size() >= config_.max_pending_connections) {
        shed = true;  // every handler busy and the backlog full
      } else {
        pending_.push_back(client);
      }
    }
    if (shed) {
      LFO_COUNTER_INC("lfo_telemetry_shed_connections_total");
      ::close(client);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void TelemetryServer::handler_loop() {
  while (true) {
    int client = -1;
    {
      util::MutexLock lock(queue_mu_);
      while (pending_.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        queue_cv_.wait_for_seconds(queue_mu_, 0.1);
      }
      client = pending_.front();
      pending_.pop_front();
    }
    serve_connection(client);
    ::close(client);
  }
}

void TelemetryServer::serve_connection(int fd) const {
  set_io_timeouts(fd, config_.io_timeout_seconds);
  std::string request;
  char buf[1024];
  bool complete = false;
  bool oversize = false;
  while (request.size() <= config_.max_request_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF, timeout or error: serve what we have
    request.append(buf, static_cast<std::size_t>(n));
    if (request.find("\r\n\r\n") != std::string::npos) {
      complete = true;
      break;
    }
    if (request.size() > config_.max_request_bytes) {
      oversize = true;
      break;
    }
  }
  HttpResponse resp;
  if (oversize) {
    count_bad_request();
    resp = error_response(431, "request head too large");
  } else if (!complete) {
    count_bad_request();
    resp = error_response(400, "incomplete request");
  } else {
    resp = handle_request(request);
  }
  std::ostringstream head;
  head << "HTTP/1.1 " << resp.status << ' ' << status_reason(resp.status)
       << "\r\nContent-Type: " << resp.content_type
       << "\r\nContent-Length: " << resp.body.size()
       << "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.str())) send_all(fd, resp.body);
}

LFO_ENDPOINT_HANDLER
HttpResponse TelemetryServer::handle_request(
    std::string_view request) const {
  // Request line: METHOD SP TARGET SP VERSION CRLF. Anything that does
  // not parse maps to a 4xx — never an assertion — because the bytes
  // come from outside the process (lfo_lint `endpoint` rule).
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string_view::npos) {
    count_bad_request();
    return error_response(400, "malformed request line");
  }
  const std::string_view line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 == sp1 + 1) {
    count_bad_request();
    return error_response(400, "malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") {
    count_bad_request();
    return error_response(400, "malformed request line");
  }
  if (method != "GET") {
    count_bad_request();
    return error_response(405, "only GET is supported");
  }
  const std::size_t qmark = target.find('?');
  const std::string_view path = target.substr(0, qmark);
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view{}
                                      : target.substr(qmark + 1);
  if (path.empty() || path.front() != '/') {
    count_bad_request();
    return error_response(400, "target must be an absolute path");
  }
  count_request(path);

  HttpResponse resp;
  if (path == "/metrics") {
    std::ostringstream body;
    write_prometheus_text(body);
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = body.str();
    return resp;
  }
  if (path == "/stats") {
    std::size_t history = 0;
    const auto [has_history, history_text] = query_param(query, "history");
    if (has_history) {
      const auto [ok, n] = parse_size(history_text);
      if (!ok) {
        count_bad_request();
        return error_response(400, "history must be a small integer");
      }
      history = n;
    }
    std::ostringstream body;
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.17g",
                  static_cast<double>(detail::monotonic_ns()) * 1e-9);
    body << "{\"monotonic_seconds\":" << ts << ',';
    append_build_info_json(body);
    body << ',';
    append_snapshot_json(body, MetricsRegistry::instance().snapshot());
    body << ",\"history\":[";
    if (config_.flight_recorder != nullptr && history > 0) {
      const auto frames = config_.flight_recorder->history(history);
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i > 0) body << ',';
        write_frame_json(body, frames[i]);
      }
    }
    body << "]}";
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }
  if (path == "/healthz") {
    HealthStatus health;
    if (config_.health) health = config_.health();
    resp.status = health.serving ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = std::string("{\"serving\":") +
                (health.serving ? "true" : "false") + ",\"detail\":\"" +
                json_escaped(health.detail) + "\"}";
    return resp;
  }
  if (path == "/vars") {
    const auto [has_name, name] = query_param(query, "name");
    if (!has_name || name.empty()) {
      count_bad_request();
      return error_response(400, "missing ?name=<metric>");
    }
    const auto snap = MetricsRegistry::instance().snapshot();
    for (const auto& c : snap.counters) {
      if (c.name == name) {
        resp.body = std::to_string(c.value) + "\n";
        return resp;
      }
    }
    for (const auto& g : snap.gauges) {
      if (g.name == name) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g\n", g.value);
        resp.body = buf;
        return resp;
      }
    }
    for (const auto& h : snap.histograms) {
      if (h.name == name) {
        std::ostringstream body;
        MetricsSnapshot one;
        one.histograms.push_back(h);
        append_snapshot_json(body, one);
        resp.content_type = "application/json";
        resp.body = "{" + body.str() + "}";
        return resp;
      }
    }
    return error_response(404, "no such metric");
  }
  if (path == "/trace") {
    std::ostringstream body;
    write_chrome_trace(body);
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }
  return error_response(404, "unknown endpoint");
}

std::string fetch_local(std::uint16_t port, std::string_view target,
                        double timeout_seconds) {
  const int fd = util::connect_loopback(port, timeout_seconds);
  if (fd < 0) return {};
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace lfo::obs

#endif  // LFO_METRICS_ENABLED
