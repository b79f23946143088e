#ifndef LFO_UTIL_SOCKET_HPP
#define LFO_UTIL_SOCKET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// Loopback TCP helpers shared by the lfo::server front end and the
/// obs::TelemetryServer (POSIX sockets, 127.0.0.1 only).

namespace lfo::util {

/// Set SO_RCVTIMEO and SO_SNDTIMEO on `fd`; negative seconds count as 0,
/// which the kernel reads as "no timeout".
void set_io_timeouts(int fd, double seconds);

/// Send all `size` bytes (MSG_NOSIGNAL); false on any error or timeout.
bool send_all(int fd, const void* data, std::size_t size);
inline bool send_all(int fd, std::string_view data) {
  return send_all(fd, data.data(), data.size());
}

/// socket -> SO_REUSEADDR -> bind 127.0.0.1:`port` (0 = ephemeral) ->
/// listen(`backlog`) -> getsockname. Returns the listening fd and sets
/// `bound_port`; on failure closes the socket, sets `error` to
/// "<call>: <strerror>" and returns -1.
int listen_loopback(std::uint16_t port, int backlog,
                    std::uint16_t& bound_port, std::string& error);

/// A TCP connection to 127.0.0.1:`port` whose io timeouts (which also
/// bound the connect itself) are `timeout_seconds`; -1 on failure.
int connect_loopback(std::uint16_t port, double timeout_seconds);

}  // namespace lfo::util

#endif  // LFO_UTIL_SOCKET_HPP
