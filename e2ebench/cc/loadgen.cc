#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

namespace e2ebench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Req MakeGet(const std::string& target) {
  Req r;
  r.head = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n";
  return r;
}

Req MakePost(const std::string& target, std::string body, OpKind kind) {
  Req r;
  r.head = "POST " + target +
           " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n";
  r.body = std::move(body);
  r.kind = kind;
  return r;
}

namespace {

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<size_t> fifo;  // positions awaiting a response, in send order
  bool want_write = false;
};

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void ArmTimer(int tfd, double at_s) {
  itimerspec its{};
  if (at_s <= 0) at_s = 1e-9;
  double whole = std::floor(at_s);
  its.it_value.tv_sec = static_cast<time_t>(whole);
  its.it_value.tv_nsec = static_cast<long>((at_s - whole) * 1e9);
  if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
    its.it_value.tv_nsec = 1;
  }
  ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
}

/// Parses one complete response at conn.in[in_off..]. Returns false if more
/// bytes are needed; otherwise fills status/body and advances in_off.
bool TakeResponse(Conn& c, int* status, std::string_view* body) {
  std::string_view buf(c.in);
  buf.remove_prefix(c.in_off);
  size_t hdr_end = buf.find("\r\n\r\n");
  if (hdr_end == std::string_view::npos) return false;
  std::string_view head = buf.substr(0, hdr_end);
  *status = 0;
  if (head.size() > 12 && head.substr(0, 5) == "HTTP/") {
    *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  }
  size_t len = 0;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    constexpr std::string_view kCl = "content-length:";
    if (line.size() > kCl.size()) {
      bool match = true;
      for (size_t i = 0; i < kCl.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) != kCl[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        len = std::strtoull(std::string(line.substr(kCl.size())).c_str(),
                            nullptr, 10);
      }
    }
    pos = eol + 2;
  }
  if (buf.size() < hdr_end + 4 + len) return false;
  *body = buf.substr(hdr_end + 4, len);
  c.in_off += hdr_end + 4 + len;
  return true;
}

}  // namespace

std::vector<Sent> LoadGen::RunClosed(const std::vector<Req>& reqs,
                                     const std::vector<uint32_t>& seq,
                                     double seconds, double timeout_s,
                                     const OnResponse& on_response,
                                     uint64_t id_base) {
  // The generator shares the machine with the server's reactor, handler
  // and engine threads; raising its priority keeps its sends and reads from
  // being delayed by the very load it creates (best effort: needs
  // CAP_SYS_NICE).
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  errno = 0;
  const int old_nice = ::getpriority(PRIO_PROCESS, static_cast<id_t>(tid));
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), -10);
  // Every record is allocated and touched before the first send, so the
  // generator's memory does not grow with the rate it achieves.
  std::vector<Sent> out(seq.size());

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = std::numeric_limits<uint64_t>::max();
  ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &tev);

  std::vector<Conn> conns(static_cast<size_t>(conns_));
  auto watch = [&](size_t ci) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conns[ci].want_write ? EPOLLOUT : 0u);
    ev.data.u64 = ci;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conns[ci].fd, &ev);
  };
  auto open_conn = [&](size_t ci) {
    Conn& c = conns[ci];
    c = Conn{};
    c.fd = ConnectLoopback(port_);
    if (c.fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ci;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    return true;
  };
  size_t outstanding = 0;
  size_t next = 0;  // next position of `seq` to issue
  const double t0 = NowS();
  const double end = t0 + seconds;

  auto fail_conn = [&](size_t ci) {
    Conn& c = conns[ci];
    const double now = NowS();
    for (size_t pos : c.fifo) {
      out[pos].done = now;
      out[pos].status = 0;
      --outstanding;
    }
    c.fifo.clear();
    if (c.fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
    }
    open_conn(ci);
  };
  auto flush = [&](size_t ci) {
    Conn& c = conns[ci];
    while (c.out_off < c.out.size()) {
      ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                         c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          watch(ci);
        }
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      fail_conn(ci);
      return;
    }
    c.out.clear();
    c.out_off = 0;
    if (c.want_write) {
      c.want_write = false;
      watch(ci);
    }
  };
  auto issue = [&](size_t ci) {
    const uint32_t ri = seq[next];
    const Req& r = reqs[ri];
    Conn& c = conns[ci];
    c.out += r.head;
    c.out += "X-Bench-Id: ";
    c.out += std::to_string(id_base + next);
    c.out += "\r\n";
    if (!r.body.empty()) {
      c.out += "Content-Length: ";
      c.out += std::to_string(r.body.size());
      c.out += "\r\n";
    }
    c.out += "\r\n";
    c.out += r.body;
    Sent& s = out[next];
    s.req = ri;
    s.sent = NowS();
    c.fifo.push_back(next);
    ++outstanding;
    ++next;
    flush(ci);
  };
  for (size_t ci = 0; ci < conns.size(); ++ci) open_conn(ci);
  for (size_t ci = 0; ci < conns.size() && next < seq.size(); ++ci) issue(ci);

  std::vector<epoll_event> evs(64);
  while (true) {
    const double now = NowS();
    if ((now >= end || next == seq.size()) && outstanding == 0) break;
    if (outstanding > 0) {
      double oldest = std::numeric_limits<double>::infinity();
      for (const Conn& c : conns) {
        if (!c.fifo.empty()) oldest = std::min(oldest, out[c.fifo.front()].sent);
      }
      if (now - oldest > timeout_s) {
        for (size_t ci = 0; ci < conns.size(); ++ci) {
          for (size_t pos : conns[ci].fifo) {
            out[pos].done = now;
            out[pos].status = 0;
          }
          conns[ci].fifo.clear();
        }
        outstanding = 0;
        break;
      }
    }
    ArmTimer(tfd, std::min(now + 0.05, std::max(end, now)));
    int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()), -1);
    if (n < 0 && errno == EINTR) continue;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == std::numeric_limits<uint64_t>::max()) {
        uint64_t ticks;
        while (::read(tfd, &ticks, sizeof(ticks)) > 0) {
        }
        continue;
      }
      const size_t ci = static_cast<size_t>(tag);
      Conn& c = conns[ci];
      if (evs[i].events & EPOLLOUT) flush(ci);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        bool dead = false;
        char buf[65536];
        while (true) {
          ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
          if (r > 0) {
            c.in.append(buf, static_cast<size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          dead = true;
          break;
        }
        int status = 0;
        std::string_view body;
        while (!c.fifo.empty() && TakeResponse(c, &status, &body)) {
          const size_t pos = c.fifo.front();
          c.fifo.pop_front();
          --outstanding;
          Sent& s = out[pos];
          s.done = NowS();
          s.status = status;
          if (on_response) on_response(pos, s, body);
          if (s.done < end && next < seq.size()) issue(ci);
        }
        if (c.in_off == c.in.size()) {
          c.in.clear();
          c.in_off = 0;
        } else if (c.in_off > (1u << 16)) {
          c.in.erase(0, c.in_off);
          c.in_off = 0;
        }
        if (dead) {
          fail_conn(ci);
          if (next < seq.size() && NowS() < end && conns[ci].fd >= 0) {
            issue(ci);
          }
        }
      }
    }
  }
  out.resize(next);  // closed loop: drop the records never issued
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(tfd);
  ::close(ep);
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), old_nice);
  return out;
}

}  // namespace e2ebench
