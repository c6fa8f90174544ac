// Shared NDJSON wire helpers for the service layer's POSIX sockets —
// one copy of the send-until-drained loop for both ends (server
// sessions and the client).
#pragma once

#include <cerrno>
#include <string_view>

#include <sys/socket.h>

namespace mpsched::service {

/// send()s the whole buffer, retrying on EINTR; false on a broken
/// connection. MSG_NOSIGNAL keeps a peer that hung up mid-write from
/// raising a process-wide SIGPIPE.
inline bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace mpsched::service
