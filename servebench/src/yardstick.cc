#include "yardstick.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

namespace servebench {

namespace {

/// Loopback round trips and hash-table work per Measure(): about 9 ms and
/// 13 ms on the baseline machine.
constexpr int kRoundTrips = 600;
constexpr size_t kMessageBytes = 64;
constexpr uint64_t kHashEntries = 16384;
constexpr int kHashPasses = 4;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

bool ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    const ssize_t got = recv(fd, buf, n, 0);
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t n) {
  while (n > 0) {
    const ssize_t put = send(fd, buf, n, MSG_NOSIGNAL);
    if (put <= 0) return false;
    buf += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Pins the calling thread to `cpu`.
void PinThread(int cpu) {
  cpu_set_t only;
  CPU_ZERO(&only);
  CPU_SET(cpu, &only);
  sched_setaffinity(0, sizeof(only), &only);
}

void NoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One CPU's share of the yardstick: a loopback connection whose echo
/// thread runs on that CPU, as the measuring thread does while it measures.
struct Yardstick::Lane {
  int cpu = -1;
  int client_fd = -1;
  int echo_fd = -1;
  std::thread echo;

  ~Lane() {
    if (client_fd >= 0) {
      shutdown(client_fd, SHUT_RDWR);
      close(client_fd);
    }
    if (echo.joinable()) echo.join();
    if (echo_fd >= 0) close(echo_fd);
  }

  /// Connects to itself over loopback and starts the echo thread, which
  /// sends every message back until the connection closes.
  bool Open(std::string* error) {
    const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      *error = "yardstick: socket failed";
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(listen_fd, 1) != 0 ||
        getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      close(listen_fd);
      *error = "yardstick: cannot listen on loopback";
      return false;
    }
    client_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (client_fd < 0 ||
        connect(client_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      close(listen_fd);
      *error = "yardstick: cannot connect on loopback";
      return false;
    }
    echo_fd = accept(listen_fd, nullptr, nullptr);
    close(listen_fd);
    if (echo_fd < 0) {
      *error = "yardstick: accept failed";
      return false;
    }
    NoDelay(client_fd);
    NoDelay(echo_fd);
    echo = std::thread([fd = echo_fd, on = cpu] {
      PinThread(on);
      char buf[kMessageBytes];
      while (ReadFull(fd, buf, sizeof(buf)) && WriteFull(fd, buf, sizeof(buf))) {
      }
    });
    return true;
  }

  double MeasureNet() const {
    char buf[kMessageBytes];
    std::memset(buf, 0x5a, sizeof(buf));
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      if (!WriteFull(client_fd, buf, sizeof(buf)) ||
          !ReadFull(client_fd, buf, sizeof(buf))) {
        return -1;
      }
    }
    return Seconds(t0, Clock::now());
  }
};

Yardstick::Yardstick() = default;
Yardstick::~Yardstick() = default;

std::unique_ptr<Yardstick> Yardstick::Start(std::string* error) {
  std::unique_ptr<Yardstick> y(new Yardstick());
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    *error = "yardstick: sched_getaffinity failed";
    return nullptr;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    y->lanes_.push_back(std::make_unique<Lane>());
    y->lanes_.back()->cpu = cpu;
    if (!y->lanes_.back()->Open(error)) return nullptr;
  }
  return y;
}

double Yardstick::MeasureHash() {
  const Clock::time_point t0 = Clock::now();
  uint64_t found = 0;
  for (int pass = 0; pass < kHashPasses; ++pass) {
    std::unordered_map<uint64_t, uint64_t> table;
    for (uint64_t i = 0; i < kHashEntries; ++i) {
      table.emplace(SplitMix(i * 2), i);
    }
    for (uint64_t i = 0; i < 2 * kHashEntries; ++i) {
      found += table.count(SplitMix(i));
    }
  }
  const double s = Seconds(t0, Clock::now());
  // Every even key is present: a wrong count means the work was skipped.
  return found == kHashPasses * kHashEntries ? s : -1;
}

double Yardstick::Measure() {
  cpu_set_t before;
  CPU_ZERO(&before);
  sched_getaffinity(0, sizeof(before), &before);
  double total = 0;
  bool ok = !lanes_.empty();
  for (const auto& lane : lanes_) {
    PinThread(lane->cpu);
    const double net = lane->MeasureNet();
    const double hash = MeasureHash();
    ok = ok && net >= 0 && hash >= 0;
    total += net + hash;
  }
  sched_setaffinity(0, sizeof(before), &before);
  return ok ? total / static_cast<double>(lanes_.size()) : -1;
}

}  // namespace servebench
