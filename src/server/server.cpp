#include "server/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/rollout.hpp"
#include "obs/metrics.hpp"
#include "util/socket.hpp"

namespace lfo::server {

namespace {

using util::send_all;
using util::set_io_timeouts;

enum class ReadStatus { kOk, kClosed, kError };

/// Read exactly `size` bytes. kClosed only when the peer closed before
/// the first byte (a clean end-of-stream between frames); a mid-frame
/// EOF or socket error is kError. With a `stop` flag, SO_RCVTIMEO
/// expiries re-check it and keep waiting (a server connection may sit
/// idle between frames for arbitrarily long, but shutdown must not
/// hang); without one, the first expiry is a hard deadline — that is
/// what makes LfoClient::connect(timeout_seconds) an actual timeout.
ReadStatus read_exact(int fd, void* data, std::size_t size,
                      const std::atomic<bool>* stop) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return got == 0 ? ReadStatus::kClosed : ReadStatus::kError;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (stop == nullptr) return ReadStatus::kError;  // deadline expired
      if (stop->load(std::memory_order_acquire)) return ReadStatus::kError;
      continue;  // io timeout: poll the stop flag and keep waiting
    }
    return ReadStatus::kError;
  }
  return ReadStatus::kOk;
}

}  // namespace

LfoServer::LfoServer(LfoServerConfig config)
    : config_(std::move(config)), cache_(config_.cache) {}

LfoServer::~LfoServer() { stop(); }

bool LfoServer::start() {
  if (listen_fd_ >= 0) return true;
  last_error_.clear();
  telemetry_error_.clear();
  std::uint16_t port = 0;
  const int fd = util::listen_loopback(config_.port, 64, port, last_error_);
  if (fd < 0) return false;
  // Every worker polls this fd (level-triggered), so one connection
  // wakes them all; accept must be non-blocking so the losers get
  // EAGAIN and fall back to polling instead of parking inside a
  // blocking ::accept() where stop_ is invisible — stop() joins the
  // workers before it closes the fd, so a parked worker is a deadlock.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    last_error_ = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  port_ = port;
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);

  if (config_.telemetry) {
    obs::TelemetryServerConfig tconfig;
    tconfig.port = config_.telemetry_port;
    tconfig.flight_recorder = config_.flight_recorder;
    tconfig.health = [this] {
      obs::HealthStatus health;
      const auto state = cache_.rollout_state();
      health.serving = state != core::RolloutState::kFallback;
      health.detail = core::to_string(state);
      return health;
    };
    telemetry_ = std::make_unique<obs::TelemetryServer>(std::move(tconfig));
    if (!telemetry_->start()) {
      // Telemetry is best-effort (it is compiled out entirely under
      // LFO_METRICS=OFF); the cache service still serves, so the
      // failure is reported via telemetry_error(), never last_error()
      // — a successful start() must leave last_error() empty.
      telemetry_error_ = telemetry_->last_error();
      LFO_COUNTER_INC("lfo_server_telemetry_start_failures_total");
    }
  }

  LFO_GAUGE_SET("lfo_server_workers", static_cast<double>(config_.workers));
  LFO_GAUGE_SET("lfo_server_shards", static_cast<double>(cache_.num_shards()));
  const std::uint32_t workers = config_.workers > 0 ? config_.workers : 1;
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void LfoServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (telemetry_ != nullptr) telemetry_->stop();
  telemetry_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

std::uint16_t LfoServer::telemetry_port() const {
  return telemetry_ != nullptr ? telemetry_->port() : 0;
}

void LfoServer::worker_loop() {
  // Every worker polls the shared listening socket (same poll/stop
  // idiom as the telemetry accept loop); a pending connection may wake
  // several idle workers, one wins the non-blocking accept and the rest
  // see EAGAIN. A worker owns its accepted connection until the peer
  // closes, so concurrency = workers, and a worker's request stream is
  // processed strictly in order — the 1-worker equivalence contract.
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    // EAGAIN: another worker won the race (the listen fd is
    // non-blocking); also covers a connection aborted between poll
    // and accept. Either way, go back to polling.
    if (client < 0) continue;
    // Linux accept() does not inherit O_NONBLOCK, but make it explicit:
    // the per-connection path relies on blocking reads bounded by
    // SO_RCVTIMEO, not on spinning.
    const int cflags = ::fcntl(client, F_GETFL, 0);
    if (cflags >= 0 && (cflags & O_NONBLOCK) != 0) {
      ::fcntl(client, F_SETFL, cflags & ~O_NONBLOCK);
    }
    LFO_COUNTER_INC("lfo_server_connections_total");
    serve_connection(client);
    ::close(client);
  }
}

LFO_ENDPOINT_HANDLER
void LfoServer::serve_connection(int fd) {
  set_io_timeouts(fd, config_.io_timeout_seconds);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Grow-once buffers reused across the connection's batches: the warm
  // per-request serving path performs no allocations.
  std::vector<WireRequest> batch;
  std::vector<std::uint8_t> decisions;
  while (!stop_.load(std::memory_order_acquire)) {
    std::uint32_t count = 0;
    const auto head = read_exact(fd, &count, sizeof(count), &stop_);
    if (head == ReadStatus::kClosed) return;  // clean end of stream
    if (head != ReadStatus::kOk) return;
    // Malformed frames come from outside the process: count and close,
    // never abort (lfo_lint `endpoint` rule).
    if (count == 0 || count > config_.max_batch) {
      LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return;
    }
    batch.resize(count);
    if (read_exact(fd, batch.data(), count * sizeof(WireRequest), &stop_) !=
        ReadStatus::kOk) {
      LFO_COUNTER_INC("lfo_server_bad_frames_total");
      return;
    }
    decisions.resize(count);
    std::uint64_t hits = 0;
    std::uint64_t expired = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      trace::Request request;
      request.object = batch[i].object;
      request.size = batch[i].size;
      request.cost = batch[i].cost;
      request.ttl = batch[i].ttl;
      const AccessResult result = cache_.access(request);
      hits += result.hit ? 1 : 0;
      expired += result.expired ? 1 : 0;
      decisions[i] = static_cast<std::uint8_t>(
          result.expired ? WireDecision::kExpired
                         : (result.hit ? WireDecision::kHit
                                       : WireDecision::kMiss));
    }
    LFO_COUNTER_ADD("lfo_server_requests_total", count);
    LFO_COUNTER_ADD("lfo_server_hits_total", hits);
    LFO_COUNTER_ADD("lfo_server_expired_hits_total", expired);
    LFO_COUNTER_INC("lfo_server_batches_total");
    LFO_GAUGE_SET("lfo_server_used_bytes",
                  static_cast<double>(cache_.used_bytes()));
    if (!send_all(fd, &count, sizeof(count)) ||
        !send_all(fd, decisions.data(), decisions.size())) {
      return;
    }
  }
}

LfoClient::~LfoClient() { close(); }

bool LfoClient::connect(std::uint16_t port, double timeout_seconds) {
  close();
  const int fd = util::connect_loopback(port, timeout_seconds);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return true;
}

bool LfoClient::exchange(std::span<const trace::Request> batch,
                         std::vector<WireDecision>& decisions) {
  if (fd_ < 0 || batch.empty()) return false;
  send_buffer_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    send_buffer_[i].object = batch[i].object;
    send_buffer_[i].size = batch[i].size;
    send_buffer_[i].ttl = batch[i].ttl;
    send_buffer_[i].cost = batch[i].cost;
  }
  const auto count = static_cast<std::uint32_t>(batch.size());
  if (!send_all(fd_, &count, sizeof(count)) ||
      !send_all(fd_, send_buffer_.data(),
                send_buffer_.size() * sizeof(WireRequest))) {
    close();
    return false;
  }
  std::uint32_t reply_count = 0;
  if (read_exact(fd_, &reply_count, sizeof(reply_count), nullptr) !=
          ReadStatus::kOk ||
      reply_count != count) {
    close();
    return false;
  }
  decisions.resize(reply_count);
  if (read_exact(fd_, decisions.data(), reply_count, nullptr) !=
      ReadStatus::kOk) {
    close();
    return false;
  }
  return true;
}

void LfoClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace lfo::server
