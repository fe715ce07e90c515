#pragma once

// The load generator: one pipelined TCP connection speaking the binary
// frame protocol of asamap/net/frame.hpp, driven from one thread.  Two
// disciplines:
//
//   closed loop   keep a fixed number of requests in flight; report the
//                 reply rate per slice of the phase (their mean over all
//                 closed-loop time is the saturation throughput)
//   open loop     send request i at t0 + i / rate whether or not earlier
//                 replies arrived; each reply's latency is timed from its
//                 request's scheduled send time, so a stall also charges
//                 the requests queued behind it, and the generator's own
//                 lateness is reported beside it
//
// Replies arrive in request order on one connection, so reply j answers
// request j; every reply is handed to a checker.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Called for every reply with the index of the request it answers (into
/// the request list, modulo its size); returns false on a wrong answer.
using ReplyCheck = std::function<bool(std::size_t, std::string_view)>;

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t failed = 0;  ///< ERR replies, wrong answers, lost replies
  /// Closed loop: replies per second of each slice.
  std::vector<double> slice_rps;
  /// Open loop: per-reply latency from scheduled send, microseconds.
  std::vector<double> latency_us;
  /// Open loop: how late each request left the generator, microseconds.
  std::vector<double> late_us;
};

class PipeClient {
 public:
  PipeClient() = default;
  ~PipeClient();
  PipeClient(const PipeClient&) = delete;
  PipeClient& operator=(const PipeClient&) = delete;

  /// Connects to 127.0.0.1:port; false on failure.
  bool connect(std::uint16_t port);

  /// Closed loop over `requests` (cycled) with `window` in flight, for
  /// `seconds`, cut into slices of `slice_s`.
  LoadResult closed_loop(const std::vector<std::string>& requests,
                         std::size_t window, double seconds, double slice_s,
                         const ReplyCheck& check);

  /// Open loop at `rate` requests/second for `seconds`; waits (bounded)
  /// for the stragglers before returning.
  LoadResult open_loop(const std::vector<std::string>& requests, double rate,
                       double seconds, const ReplyCheck& check);

  /// Sends every request of `requests` pipelined and waits for all replies.
  LoadResult burst(const std::vector<std::string>& requests,
                   const ReplyCheck& check);

  /// One request, one reply (blocking); false on transport failure.
  bool call(std::string_view request, std::string& reply);

 private:
  /// Reads what the socket has and decodes whole replies; calls `on_reply`
  /// for each.  False when the peer closed or the framing broke.
  bool pump(const std::function<void(std::string_view)>& on_reply);

  int fd_ = -1;
  std::string rbuf_;
};

}  // namespace perfbench
