#include "obs/exporter.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "common/logging.hpp"

namespace hetsgd::obs {

void register_obs_flags(CliParser& parser, ObsOptions* options) {
  parser.add_string("trace-out", &options->trace_out,
                    "write a dual-clock Chrome trace_event JSON here "
                    "(open in Perfetto); empty disables tracing");
  parser.add_string("metrics-out", &options->metrics_out,
                    "append periodic metrics snapshots (JSONL) here; "
                    "empty disables the exporter");
  parser.add_double("metrics-interval", &options->metrics_interval_ms,
                    "metrics snapshot period in milliseconds");
  parser.add_int("metrics-port", &options->metrics_port,
                 "serve Prometheus text on 127.0.0.1:<port> "
                 "(0 = ephemeral, -1 = off)");
  parser.add_int("trace-buffer", &options->trace_buffer,
                 "per-thread trace ring capacity in events "
                 "(rounded up to a power of two)");
}

MetricsExporter::MetricsExporter(Options options)
    : options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() { stop(); }

bool MetricsExporter::start(std::string* error) {
  if (running_.load(std::memory_order_relaxed)) return true;
  if (!options_.jsonl_path.empty()) {
    jsonl_ = std::fopen(options_.jsonl_path.c_str(), "w");
    if (jsonl_ == nullptr) {
      if (error != nullptr) {
        *error = "cannot open metrics output: " + options_.jsonl_path;
      }
      return false;
    }
  }
  if (options_.port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
      if (jsonl_ != nullptr) {
        std::fclose(jsonl_);
        jsonl_ = nullptr;
      }
      return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 4) != 0) {
      if (error != nullptr) {
        *error = "cannot bind scrape port: " + std::string(strerror(errno));
      }
      ::close(fd);
      if (jsonl_ != nullptr) {
        std::fclose(jsonl_);
        jsonl_ = nullptr;
      }
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    listen_fd_.store(fd);
    scrape_port_.store(ntohs(addr.sin_port));
  }
  {
    MutexLock lock(cv_mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  exporter_ = std::thread(&MetricsExporter::exporter_main, this);
  if (listen_fd_.load() >= 0) {
    scraper_ = std::thread(&MetricsExporter::scrape_main, this);
  }
  return true;
}

void MetricsExporter::stop() {
  if (!running_.exchange(false)) return;
  {
    MutexLock lock(cv_mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a blocking accept(); close() releases the port.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (exporter_.joinable()) exporter_.join();
  if (scraper_.joinable()) scraper_.join();
  write_snapshot();  // final snapshot after the threads are gone
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
  scrape_port_.store(-1);
}

void MetricsExporter::write_snapshot() {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  if (jsonl_ != nullptr) {
    const std::string line = MetricsRegistry::jsonl_line(snap);
    std::fwrite(line.data(), 1, line.size(), jsonl_);
    std::fflush(jsonl_);
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsExporter::exporter_main() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.interval_ms > 0.0 ? options_.interval_ms : 250.0);
  for (;;) {
    {
      MutexLock lock(cv_mu_);
      // Check the flag before (and after) waiting: a stop() that fires
      // while write_snapshot runs must not cost a full extra interval.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_requested_) {
        if (cv_.wait_until(cv_mu_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (stop_requested_) return;
    }
    write_snapshot();
  }
}

void MetricsExporter::scrape_main() {
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) return;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load(std::memory_order_relaxed)) return;
      continue;
    }
    // Drain (and ignore) whatever request line the client sent.
    char discard[512];
    (void)::recv(client, discard, sizeof(discard), MSG_DONTWAIT);
    const std::string text = MetricsRegistry::prometheus_text(
        MetricsRegistry::instance().snapshot());
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " +
        std::to_string(text.size()) + "\r\n\r\n" + text;
    const char* p = response.data();
    std::size_t left = response.size();
    while (left > 0) {
      const ssize_t n = ::send(client, p, left, MSG_NOSIGNAL);
      if (n <= 0) break;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace hetsgd::obs
