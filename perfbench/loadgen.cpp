#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "asamap/net/frame.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

/// Sends as much of `wbuf` past `woff` as the socket takes.
bool flush(int fd, const std::string& wbuf, std::size_t& woff) {
  while (woff < wbuf.size()) {
    const ssize_t k =
        ::send(fd, wbuf.data() + woff, wbuf.size() - woff, MSG_NOSIGNAL);
    if (k > 0) {
      woff += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (k < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Waits up to `timeout_ns` for the socket (readable, or writable when
/// `want_write`).
void wait_io(int fd, bool want_write, std::int64_t timeout_ns) {
  pollfd p{fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0};
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  ::ppoll(&p, 1, &ts, nullptr);
}

}  // namespace

PipeClient::~PipeClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool PipeClient::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // Nonblocking from here on: every wait goes through ppoll.
  timeval tv{};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return true;
}

bool PipeClient::pump(const std::function<void(std::string_view)>& on_reply) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t k = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (k == 0) return false;
    if (k < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    rbuf_.append(buf, static_cast<std::size_t>(k));
    if (static_cast<std::size_t>(k) < sizeof buf) break;
  }
  std::size_t off = 0;
  for (;;) {
    const auto d = asamap::net::decode_one(std::string_view(rbuf_).substr(off));
    if (d.status == asamap::net::DecodeStatus::kNeedMore) break;
    if (d.status == asamap::net::DecodeStatus::kError) return false;
    off += d.consumed;
    on_reply(d.payload);
  }
  rbuf_.erase(0, off);
  return true;
}

bool PipeClient::call(std::string_view request, std::string& reply) {
  std::string wbuf;
  asamap::net::append_frame(request, wbuf);
  std::size_t woff = 0;
  bool got = false;
  const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
  while (!got && now_ns() < deadline) {
    if (!flush(fd_, wbuf, woff)) return false;
    wait_io(fd_, woff < wbuf.size(), 10'000'000);
    if (!pump([&](std::string_view r) {
          reply.assign(r);
          got = true;
        })) {
      return false;
    }
  }
  return got;
}

LoadResult PipeClient::burst(const std::vector<std::string>& requests,
                              const ReplyCheck& check) {
  LoadResult out;
  std::string wbuf;
  for (const auto& r : requests) asamap::net::append_frame(r, wbuf);
  out.sent = requests.size();
  std::size_t woff = 0;
  const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
  bool alive = true;
  while (alive && out.received < out.sent && now_ns() < deadline) {
    alive = flush(fd_, wbuf, woff);
    wait_io(fd_, woff < wbuf.size(), 5'000'000);
    alive = alive && pump([&](std::string_view r) {
              if (!check(out.received, r)) ++out.failed;
              ++out.received;
            });
  }
  out.failed += out.sent - out.received;
  return out;
}

LoadResult PipeClient::closed_loop(const std::vector<std::string>& requests,
                                   std::size_t window, double seconds,
                                   double slice_s, const ReplyCheck& check) {
  LoadResult out;
  std::string wbuf;
  std::size_t woff = 0;
  std::uint64_t slice_replies = 0;
  const std::uint64_t t0 = now_ns();
  const auto slice_ns = static_cast<std::uint64_t>(slice_s * 1e9);
  const auto stop_ns = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t slice_start = t0;
  bool alive = true;
  const auto on_reply = [&](std::string_view r) {
    if (!check(out.received % requests.size(), r)) ++out.failed;
    ++out.received;
    ++slice_replies;
  };
  while (alive) {
    const std::uint64_t now = now_ns();
    if (now >= slice_start + slice_ns) {
      out.slice_rps.push_back(static_cast<double>(slice_replies) /
                              (static_cast<double>(now - slice_start) * 1e-9));
      slice_replies = 0;
      slice_start = now;
    }
    if (now >= stop_ns) break;
    if (woff == wbuf.size()) {
      wbuf.clear();
      woff = 0;
    }
    while (out.sent - out.received < window) {
      asamap::net::append_frame(requests[out.sent % requests.size()], wbuf);
      ++out.sent;
    }
    alive = flush(fd_, wbuf, woff);
    wait_io(fd_, woff < wbuf.size(), 5'000'000);
    alive = alive && pump(on_reply);
  }
  // Drain the in-flight tail so the connection is clean for the next
  // phase; those replies are checked but not in any slice.
  const std::uint64_t drain_until = now_ns() + 5'000'000'000ULL;
  while (alive && out.received < out.sent && now_ns() < drain_until) {
    alive = flush(fd_, wbuf, woff);
    wait_io(fd_, woff < wbuf.size(), 5'000'000);
    alive = alive && pump(on_reply);
  }
  out.failed += out.sent - out.received;
  return out;
}

LoadResult PipeClient::open_loop(const std::vector<std::string>& requests,
                                 double rate, double seconds,
                                 const ReplyCheck& check) {
  // Wake-ups within a microsecond of the schedule, not the default 50us
  // timer slack, so lateness measures the generator, not the timer.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  LoadResult out;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  const double gap_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto sched = [&](std::uint64_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * gap_ns);
  };
  out.latency_us.reserve(total);
  out.late_us.reserve(total);
  std::string wbuf;
  std::size_t woff = 0;
  bool alive = true;
  const auto on_reply = [&](std::string_view r) {
    const std::uint64_t now = now_ns();
    const std::uint64_t j = out.received++;
    if (!check(j % requests.size(), r)) ++out.failed;
    out.latency_us.push_back(static_cast<double>(now - sched(j)) * 1e-3);
  };
  const std::uint64_t give_up = sched(total) + 5'000'000'000ULL;
  while (alive && out.received < total && now_ns() < give_up) {
    std::uint64_t now = now_ns();
    if (woff == wbuf.size()) {
      wbuf.clear();
      woff = 0;
    }
    while (out.sent < total && sched(out.sent) <= now) {
      asamap::net::append_frame(requests[out.sent % requests.size()], wbuf);
      out.late_us.push_back(static_cast<double>(now - sched(out.sent)) * 1e-3);
      ++out.sent;
    }
    alive = flush(fd_, wbuf, woff) && pump(on_reply);
    if (!alive) break;
    now = now_ns();
    std::int64_t wait = 2'000'000;
    if (out.sent < total) {
      wait = static_cast<std::int64_t>(sched(out.sent)) -
             static_cast<std::int64_t>(now);
    }
    if (wait > 30'000) {
      wait_io(fd_, woff < wbuf.size(), wait - 20'000);
    } else if (wait > 0) {
      wait_io(fd_, woff < wbuf.size(), 0);
    }
  }
  out.failed += total - out.received;
  return out;
}

}  // namespace perfbench
