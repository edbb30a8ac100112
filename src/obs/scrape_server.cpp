#include "obs/scrape_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/manifest.hpp"

namespace patchwork::obs {

namespace {

/// listen() backlog: concurrent scrapers beyond this see a connection
/// refusal instead of unbounded kernel queueing.
constexpr int kListenBacklog = 16;
/// Per-request socket read/write timeout: 2 s.
constexpr struct timeval kIoTimeout = {2, 0};

/// Write all of `text`, tolerating partial writes; SO_SNDTIMEO bounds each
/// attempt, so a stalled reader cannot wedge the serving thread.
bool write_all(int fd, std::string_view text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the header terminator, `limit` bytes, EOF, or the socket
/// timeout. A scrape request is one small header block; anything that
/// does not fit in `limit` is malformed by construction.
std::string read_request(int fd, std::size_t limit) {
  std::string buf;
  char chunk[1024];
  while (buf.size() < limit &&
         buf.find("\r\n\r\n") == std::string::npos &&
         buf.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF, timeout, or error: parse what we have.
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return buf;
}

struct RequestLine {
  bool parsed = false;
  std::string method;
  std::string target;
};

RequestLine parse_request_line(const std::string& request) {
  RequestLine out;
  const std::size_t eol = request.find_first_of("\r\n");
  const std::string line =
      eol == std::string::npos ? request : request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return out;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return out;
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/", 0) != 0) return out;
  out.method = line.substr(0, sp1);
  out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.parsed = !out.method.empty() && !out.target.empty() &&
               out.target.front() == '/';
  return out;
}

/// True when the target's query string contains `key=value`.
bool query_has(const std::string& target, std::string_view key,
               std::string_view value) {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return false;
  std::string query = target.substr(q + 1);
  std::size_t start = 0;
  const std::string want = std::string(key) + "=" + std::string(value);
  while (start <= query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    if (query.substr(start, end - start) == want) return true;
    start = end + 1;
  }
  return false;
}

std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    std::string(reason) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

Counter& requests_counter(const std::string& route) {
  // Point-in-time serving traffic: kWallClock keeps live scrapes out of
  // the deterministic exposition.
  return registry().counter("patchwork_scrape_requests_total",
                            "HTTP requests answered by the scrape server",
                            {{"route", route}}, Determinism::kWallClock);
}

constexpr std::string_view kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";

}  // namespace

Gauge& run_phase_gauge() {
  return registry().gauge(
      "patchwork_run_phase",
      "Coordinator phase (0 idle, 1 control, 2 render, 3 merge)", {},
      Determinism::kWallClock);
}

ScrapeServer::ScrapeServer(ScrapeServerOptions options)
    : options_(std::move(options)),
      started_(std::chrono::steady_clock::now()) {
  if (::pipe(wake_fds_) != 0) {
    wake_fds_[0] = wake_fds_[1] = -1;
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, kListenBacklog) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  thread_ = std::thread([this] { serve(); });
}

ScrapeServer::~ScrapeServer() {
  stop();
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void ScrapeServer::stop() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'q';
    // A full pipe already wakes the poll; the result only matters for
    // the first stop.
    (void)!::write(wake_fds_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
}

std::uint64_t ScrapeServer::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

void ScrapeServer::serve() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {wake_fds_[0], POLLIN, 0};
    fds[1] = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop(): drain nothing, just exit.
    if ((fds[1].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &kIoTimeout,
                 sizeof(kIoTimeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &kIoTimeout,
                 sizeof(kIoTimeout));
    handle_connection(conn);
    ::close(conn);
  }
  ::close(listen_fd_);
}

void ScrapeServer::handle_connection(int fd) {
  const std::string request = read_request(fd, /*limit=*/8192);
  const RequestLine line = parse_request_line(request);
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::string response;
  if (!line.parsed) {
    requests_counter("bad_request").add();
    response = http_response(400, "Bad Request", "text/plain",
                             "malformed request\n");
  } else if (line.method != "GET") {
    requests_counter("bad_request").add();
    response = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET is served\n");
  } else {
    const std::size_t q = line.target.find('?');
    const std::string path =
        q == std::string::npos ? line.target : line.target.substr(0, q);
    if (path == "/metrics") {
      requests_counter("/metrics").add();
      const bool deterministic =
          query_has(line.target, "deterministic", "1");
      response = http_response(200, "OK", kPromContentType,
                               expose_text(deterministic));
    } else if (path == "/healthz") {
      requests_counter("/healthz").add();
      const double uptime =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - started_)
              .count();
      char body[256];
      std::snprintf(body, sizeof(body),
                    "{\"status\":\"ok\",\"uptime_seconds\":%.3f,"
                    "\"run_phase\":%d,\"git_describe\":\"%s\"}\n",
                    uptime, static_cast<int>(run_phase_gauge().value()),
                    std::string(build_git_describe()).c_str());
      response = http_response(200, "OK", "application/json", body);
    } else if (path == "/manifest.json") {
      requests_counter("/manifest.json").add();
      if (options_.manifest) {
        response =
            http_response(200, "OK", "application/json", options_.manifest());
      } else {
        response = http_response(404, "Not Found", "text/plain",
                                 "no manifest configured\n");
      }
    } else {
      requests_counter("not_found").add();
      response =
          http_response(404, "Not Found", "text/plain", "unknown route\n");
    }
  }
  write_all(fd, response);
}

std::unique_ptr<ScrapeServer> maybe_start_scrape_server_from_env(
    std::function<std::string()> manifest) {
  const char* env = std::getenv("PATCHWORK_SCRAPE");
  if (env == nullptr || *env == '\0') return nullptr;
  char* end = nullptr;
  const unsigned long port = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || port > 65535) return nullptr;
  ScrapeServerOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.manifest = std::move(manifest);
  auto server = std::make_unique<ScrapeServer>(std::move(options));
  return server->ok() ? std::move(server) : nullptr;
}

}  // namespace patchwork::obs
