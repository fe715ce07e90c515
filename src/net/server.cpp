#include "asamap/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "asamap/net/frame.hpp"
#include "asamap/obs/tracing.hpp"
#include "asamap/serve/protocol.hpp"
#include "asamap/support/timer.hpp"

namespace asamap::net {
namespace {

// epoll_event.data.u64 tags.  Connection ids start high so they can never
// collide with the fixed tags or a worker index.
constexpr std::uint64_t kTagStop = 0;
constexpr std::uint64_t kTagListener = 1;
constexpr std::uint64_t kTagWorkerBase = 2;
constexpr std::uint64_t kTagConnBase = std::uint64_t{1} << 16;

constexpr std::size_t kReadChunk = 64 * 1024;

/// The reject-with-reason backpressure answer (bounded_queue semantics:
/// full means refuse now, not queue forever).
constexpr std::string_view kRejectMsg =
    "ERR rejected worker ring full; retry later";

void eventfd_signal(int fd) {
  const std::uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(fd, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
}

void eventfd_drain(int fd) {
  std::uint64_t value = 0;
  ssize_t r;
  do {
    r = ::read(fd, &value, sizeof(value));
  } while (r < 0 && errno == EINTR);
}

serve::ServeStatus errno_status(const char* what) {
  return serve::ServeStatus::error(
      serve::ServeCode::kUnavailable,
      std::string(what) + ": " + std::strerror(errno));
}

/// True when the request line's first token is QUIT — on the network plane
/// that means "close THIS connection" (the server keeps serving others).
bool is_quit(std::string_view payload) {
  std::size_t i = 0;
  while (i < payload.size() && (payload[i] == ' ' || payload[i] == '\t')) ++i;
  std::size_t j = i;
  while (j < payload.size() && payload[j] != ' ' && payload[j] != '\t' &&
         payload[j] != '\r') {
    ++j;
  }
  return payload.substr(i, j - i) == "QUIT";
}

}  // namespace

NetServer::NetServer(serve::RequestHandler& handler, const NetConfig& config)
    : handler_(handler), config_(config) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.max_batch < 1) config_.max_batch = 1;
  obs::MetricRegistry& m = handler_.metrics();
  connections_total_ = &m.counter("asamap_net_connections_total");
  connections_active_ = &m.gauge("asamap_net_connections_active");
  requests_text_ = &m.counter("asamap_net_requests_total", "proto=\"text\"");
  requests_binary_ =
      &m.counter("asamap_net_requests_total", "proto=\"binary\"");
  batches_total_ = &m.counter("asamap_net_batches_total");
  rejected_total_ = &m.counter("asamap_net_rejected_total");
  frame_errors_total_ = &m.counter("asamap_net_frame_errors_total");
  bytes_read_ = &m.counter("asamap_net_bytes_total", "dir=\"read\"");
  bytes_written_ = &m.counter("asamap_net_bytes_total", "dir=\"written\"");
  batch_seconds_ = &m.histogram("asamap_net_batch_seconds");
}

NetServer::~NetServer() { stop(); }

serve::ServeStatus NetServer::start() {
  if (started_) {
    return serve::ServeStatus::error_static(serve::ServeCode::kUnavailable,
                                            "server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return serve::ServeStatus::error(
        serve::ServeCode::kInvalidArgument,
        "bad bind address '" + config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, config_.backlog) < 0) {
    const serve::ServeStatus st = errno_status("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_event_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || stop_event_ < 0) {
    const serve::ServeStatus st = errno_status("epoll/eventfd");
    stop();
    return st;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagStop;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_event_, &ev);
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kTagListener;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>(config_.ring_capacity);
    // The request eventfd is a blocking read on the worker side; the reply
    // eventfd sits in epoll, so non-blocking.
    w->request_event = ::eventfd(0, EFD_CLOEXEC);
    w->reply_event = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (w->request_event < 0 || w->reply_event < 0) {
      const serve::ServeStatus st = errno_status("eventfd");
      if (w->request_event >= 0) ::close(w->request_event);
      if (w->reply_event >= 0) ::close(w->reply_event);
      stop();
      return st;
    }
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWorkerBase + static_cast<std::uint64_t>(i);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, w->reply_event, &ev);
    workers_.push_back(std::move(w));
  }

  started_ = true;
  stopped_.store(false, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  for (int i = 0; i < config_.workers; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
  socket_thread_ = std::thread([this] { socket_loop(); });
  return serve::ServeStatus::success();
}

void NetServer::stop() {
  if (!started_) {
    // start() may call stop() for cleanup before threads exist.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (stop_event_ >= 0) ::close(stop_event_);
    listen_fd_ = epoll_fd_ = stop_event_ = -1;
    workers_.clear();
    return;
  }
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  eventfd_signal(stop_event_);
  if (socket_thread_.joinable()) socket_thread_.join();
  for (auto& w : workers_) {
    eventfd_signal(w->request_event);
    if (w->thread.joinable()) w->thread.join();
    ::close(w->request_event);
    ::close(w->reply_event);
  }
  workers_.clear();
  conns_.clear();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(stop_event_);
  listen_fd_ = epoll_fd_ = stop_event_ = -1;
  started_ = false;
}

// --- worker side -----------------------------------------------------------

void NetServer::worker_loop(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  std::vector<std::string_view> lines;
  std::vector<std::string> responses;
  for (;;) {
    Batch batch;
    if (!w.requests.try_pop(batch)) {
      if (stopping_.load(std::memory_order_acquire)) return;
      eventfd_drain(w.request_event);  // blocks until signalled
      continue;
    }

    support::WallTimer wall;
    Reply reply;
    reply.conn_id = batch.conn_id;
    lines.clear();
    for (const Item& it : batch.items) lines.push_back(batch.payload(it));
    {
      // The batch's trace root: every verb span (and everything a CLUSTER
      // fans out to) parents under it, keyed by the connection id.
      obs::TraceSpan span("net.batch", obs::TraceCat::kSession,
                          obs::FlightRecorder::instance(), batch.conn_id);
      handler_.handle_batch(lines, responses);
    }
    for (std::size_t i = 0; i < responses.size(); ++i) {
      append_message(responses[i], batch.items[i].binary, reply.data);
      if (is_quit(batch.payload(batch.items[i]))) reply.close = true;
    }
    batches_total_->inc();
    batch_seconds_->record_seconds(wall.seconds());

    // The reply ring can only back up while the socket thread is busy; it
    // always drains, so a bounded spin-yield is safe (and unlike blocking
    // primitives it costs the fast path nothing).
    while (!w.replies.try_push(std::move(reply))) {
      if (stopping_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    eventfd_signal(w.reply_event);
  }
}

// --- socket side -----------------------------------------------------------

void NetServer::socket_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool running = true;
  while (running) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagStop) {
        eventfd_drain(stop_event_);
        running = false;
      } else if (tag == kTagListener) {
        accept_ready();
      } else if (tag < kTagConnBase) {
        const int widx = static_cast<int>(tag - kTagWorkerBase);
        eventfd_drain(workers_[static_cast<std::size_t>(widx)]->reply_event);
        drain_replies(widx);
      } else {
        // A connection may have been destroyed by an earlier event in this
        // same wakeup; the id lookup makes stale events harmless.
        Conn* conn = find_conn(tag);
        if (conn == nullptr) continue;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          destroy(*conn);
          continue;
        }
        if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          conn_readable(*conn);
        }
        conn = find_conn(tag);  // conn_readable may destroy
        if (conn != nullptr && (events[i].events & EPOLLOUT) != 0) {
          conn_writable(*conn);
        }
      }
    }
  }
  // Shutdown: every connection is dropped; workers are joined by stop()
  // after this thread exits, so no replies race the teardown.
  for (auto& [id, conn] : conns_) {
    ::close(conn->fd);
  }
  conns_.clear();
  connections_active_->set(0.0);
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = kTagConnBase + next_conn_id_++;
    conn->worker = static_cast<int>(conn->id %
                                    static_cast<std::uint64_t>(
                                        config_.workers));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_total_->inc();
    Conn& ref = *conn;
    conns_.emplace(conn->id, std::move(conn));
    connections_active_->set(static_cast<double>(conns_.size()));
    // Data may already be waiting (edge-triggered: we must not rely on a
    // future edge for bytes that arrived before the ADD).
    conn_readable(ref);
  }
}

void NetServer::conn_readable(Conn& conn) {
  bool eof = false;
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      conn.rbuf.append(chunk, static_cast<std::size_t>(r));
      bytes_read_->inc(static_cast<std::uint64_t>(r));
      continue;  // edge-triggered: read until EAGAIN
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    destroy(conn);
    return;
  }

  if (conn.closing) {
    conn.rbuf.clear();  // a closing connection reads only to detect EOF
  }

  // Decode everything complete, splitting into max_batch-sized handoffs.
  std::size_t off = 0;
  Batch batch;
  batch.conn_id = conn.id;
  while (!conn.closing) {
    const Decoded d =
        decode_one(std::string_view(conn.rbuf).substr(off));
    if (d.status == DecodeStatus::kNeedMore) break;
    if (d.status == DecodeStatus::kError) {
      frame_errors_total_->inc();
      append_message(
          serve::protocol::err(serve::ServeCode::kInvalidArgument, d.error),
          false, conn.wbuf);
      conn.closing = true;  // the stream cannot be re-synchronised
      break;
    }
    (d.status == DecodeStatus::kBinary ? requests_binary_ : requests_text_)
        ->inc();
    batch.items.push_back({static_cast<std::uint32_t>(batch.arena.size()),
                           static_cast<std::uint32_t>(d.payload.size()),
                           d.status == DecodeStatus::kBinary});
    batch.arena.append(d.payload);
    off += d.consumed;
    if (batch.items.size() >= config_.max_batch) {
      dispatch(conn, std::move(batch));
      batch = Batch{};
      batch.conn_id = conn.id;
    }
  }
  conn.rbuf.erase(0, off);
  if (!batch.items.empty()) dispatch(conn, std::move(batch));

  if (eof) {
    // Half-close support: a client may shutdown(SHUT_WR) after a pipelined
    // burst and still read its answers — finish replying, then close.
    conn.closing = true;
    conn.rbuf.clear();
  }
  flush(conn);
}

void NetServer::dispatch(Conn& conn, Batch&& batch) {
  Worker& w = *workers_[static_cast<std::size_t>(conn.worker)];
  const std::size_t n = batch.items.size();
  if (!w.requests.try_push(std::move(batch))) {
    // Ring full: refuse now with a reason (batch is untouched on a failed
    // push), in the request's own encoding.
    rejected_total_->inc(n);
    for (const Item& it : batch.items) {
      append_message(kRejectMsg, it.binary, conn.wbuf);
    }
    return;
  }
  ++conn.inflight;
  eventfd_signal(w.request_event);
}

void NetServer::drain_replies(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  Reply reply;
  while (w.replies.try_pop(reply)) {
    Conn* conn = find_conn(reply.conn_id);
    if (conn == nullptr) continue;  // connection died before its answer
    --conn->inflight;
    conn->wbuf.append(reply.data);
    if (reply.close) conn->closing = true;
    flush(*conn);
  }
}

void NetServer::conn_writable(Conn& conn) { flush(conn); }

void NetServer::flush(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t r = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (r > 0) {
      conn.woff += static_cast<std::size_t>(r);
      bytes_written_->inc(static_cast<std::uint64_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
        ev.data.u64 = conn.id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return;
    }
    if (r < 0 && errno == EINTR) continue;
    destroy(conn);  // EPIPE/ECONNRESET: the peer is gone
    return;
  }
  // Drained.
  conn.wbuf.clear();
  conn.woff = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }
  if (conn.closing && conn.inflight == 0) destroy(conn);
}

void NetServer::destroy(Conn& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(conn.id);  // invalidates conn
  connections_active_->set(static_cast<double>(conns_.size()));
}

NetServer::Conn* NetServer::find_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

}  // namespace asamap::net
