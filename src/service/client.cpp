#include "service/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/wire.hpp"

namespace mpsched::service {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Client::Client(const std::string& socket_path) : fd_(connect_unix(socket_path)) {
  if (fd_ < 0)
    throw std::runtime_error("client: cannot connect to '" + socket_path +
                             "' (is mpsched_serve running?)");
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Json Client::call_raw(const Json& request) {
  std::string line = request.dump(-1);
  line += '\n';
  if (!send_all(fd_, line))
    throw std::runtime_error("client: connection lost while sending");

  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw std::runtime_error("client: server closed the connection before responding");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string response_line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return Json::parse(response_line);
}

Response Client::call(const Request& request) {
  return response_from_json(call_raw(request_to_json(request)));
}

bool wait_for_server_exit(const std::string& socket_path, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      ::close(fd);
    } else if (::access(socket_path.c_str(), F_OK) != 0) {
      return true;  // nothing accepting and the file is unlinked: it exited
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// -- v2 async convenience (everything goes through call()) -----------------

namespace {

Response referencing_call(Client& client, Op op, std::uint64_t request_id,
                          std::int64_t id) {
  Request request;
  request.op = op;
  request.id = id;
  request.request = request_id;
  return client.call(request);
}

}  // namespace

Response Client::poll(std::uint64_t request, std::int64_t id) {
  return referencing_call(*this, Op::Poll, request, id);
}

Response Client::wait_request(std::uint64_t request, std::int64_t id) {
  return referencing_call(*this, Op::Wait, request, id);
}

}  // namespace mpsched::service
