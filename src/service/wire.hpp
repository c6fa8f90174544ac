// Shared NDJSON wire helpers for the service layer's descriptors — one
// copy of the write-until-drained loop for both ends (sessions on a
// socket or on stdout, and the client).
#pragma once

#include <cerrno>
#include <string_view>

#include <sys/socket.h>
#include <unistd.h>

namespace mpsched::service {

/// Writes the whole buffer to `fd`, retrying on EINTR; false on a broken
/// connection. A socket is written with send(MSG_NOSIGNAL), so a peer that
/// hung up mid-write cannot raise a process-wide SIGPIPE; any other
/// descriptor (stdout, a file, a pipe) fails that with ENOTSOCK and is
/// written with write().
inline bool send_all(int fd, std::string_view data) {
  bool is_socket = true;
  while (!data.empty()) {
    const ssize_t n = is_socket ? ::send(fd, data.data(), data.size(), MSG_NOSIGNAL)
                                : ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != ENOTSOCK || !is_socket) return false;
      is_socket = false;
      continue;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace mpsched::service
